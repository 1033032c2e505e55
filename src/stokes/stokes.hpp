#pragma once
// Variable-viscosity stabilized Stokes solver (paper Sec. III):
//
//   [ A   B^T ] [u]   [f]
//   [ B  -C   ] [p] = [0]
//
// with A the variable-viscosity viscous block, B the discrete divergence,
// and C the Dohrmann-Bochev polynomial pressure projection that
// circumvents the inf-sup condition for equal-order Q1-Q1 elements.
// The symmetric indefinite system is solved by preconditioned MINRES with
// the block-diagonal preconditioner
//
//   P = diag( A~ , S~ ),
//
// where A~ applies one AMG V-cycle per velocity component on a
// variable-viscosity discrete Poisson operator and S~ is the lumped mass
// matrix weighted by the inverse viscosity (spectrally equivalent to the
// Schur complement).
//
// Unknown layout: value index = 4 * local_dof + comp, comps 0..2 velocity
// and comp 3 pressure.

#include <functional>
#include <memory>

#include "amg/dist_amg.hpp"
#include "amg/hierarchy_cache.hpp"
#include "fem/operators.hpp"
#include "fem/stokes_operator.hpp"
#include "la/krylov.hpp"

namespace alps::stokes {

using fem::VelocityBc;
using mesh::Mesh;

/// Hierarchy-reuse policy when a HierarchyCache is supplied: a valid
/// cache (same mesh epoch) skips the symbolic AMG setup and runs the
/// numeric Galerkin refresh only; with a positive drift tolerance, a
/// relative viscosity change ||eta - eta_built|| / ||eta_built|| at or
/// below it skips even that and reuses the hierarchy untouched. The
/// preconditioner then lags the viscosity, which is safe: MINRES always
/// iterates with the freshly assembled operator.
struct AmgReuseOptions {
  double viscosity_drift_tol = 0.0;  // 0 = always refresh numerically
};

struct StokesOptions {
  VelocityBc bc = VelocityBc::kFreeSlip;
  la::KrylovOptions krylov{200, 1e-6};
  AmgReuseOptions reuse{};
};

class StokesSolver {
 public:
  /// Viscosity is supplied per element per quadrature point (ne * 8).
  /// Setup fills the matrix-free saddle operator's quadrature data, the
  /// variable-viscosity Poisson element matrices and the inverse-viscosity
  /// Schur diagonal in one element loop, then builds one Poisson AMG
  /// hierarchy per velocity component from that one operator, each with
  /// the component's Dirichlet rows. When `cache` is non-null and valid
  /// for the current mesh epoch, the hierarchies in it are reused per
  /// opt.reuse instead of being rebuilt. Collective.
  StokesSolver(par::Comm& comm, const Mesh& m,
               const forest::Connectivity& conn,
               std::span<const double> eta_quad, const StokesOptions& opt,
               amg::HierarchyCache* cache = nullptr);

  /// Solve with the given right-hand side (4*n_local, ghost-consistent;
  /// pressure rows typically zero). x holds the initial guess on entry
  /// and the solution (ghost-consistent, zero-mean pressure) on exit.
  la::SolveResult solve(par::Comm& comm, std::span<const double> rhs,
                        std::span<double> x);

  const fem::StokesOperator& op() const { return *op_; }
  /// The block-diagonal preconditioner P^-1 that solve() runs MINRES with.
  la::LinOp preconditioner(par::Comm& comm) {
    return [this, &comm](std::span<const double> in, std::span<double> out) {
      apply_preconditioner(comm, in, out);
    };
  }
  const amg::DistAmg& velocity_amg(int comp) const {
    return *cache_->amg[static_cast<std::size_t>(comp)];
  }
  /// This rank's matrix storage across the three velocity AMG hierarchies.
  std::int64_t local_amg_nnz() const {
    std::int64_t total = 0;
    for (const auto& a : cache_->amg) total += a->local_nnz();
    return total;
  }

  /// Buoyancy right-hand side f = Ra T e_dir (paper Eq. 2): 4*n_local
  /// vector with momentum component `dir` loaded. Collective.
  static std::vector<double> buoyancy_rhs(par::Comm& comm, const Mesh& m,
                                          const forest::Connectivity& conn,
                                          std::span<const double> temperature,
                                          double rayleigh, int dir,
                                          const StokesOptions& opt);

 private:
  void apply_preconditioner(par::Comm& comm, std::span<const double> x,
                            std::span<double> y);

  const Mesh* mesh_;
  StokesOptions opt_;
  std::unique_ptr<fem::StokesOperator> op_;      // matrix-free saddle operator
  amg::HierarchyCache own_cache_;   // used when no external cache is given
  amg::HierarchyCache* cache_;      // holds the three velocity hierarchies
  std::vector<double> schur_diag_;               // n_local, 1/eta-weighted
  std::vector<double> comp_b_, comp_x_;          // owned-slice workspaces
};

}  // namespace alps::stokes
