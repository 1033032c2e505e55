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

struct StokesOptions {
  VelocityBc bc = VelocityBc::kFreeSlip;
  la::KrylovOptions krylov{200, 1e-6};
};

/// One solver per mesh: construction builds what depends on the mesh
/// alone, and update() loads a viscosity, as often as the Picard loop
/// and the time steps between adaptations ask. The solver keeps pointers
/// to `m` and `conn`; rebuild it when the mesh changes.
class StokesSolver {
 public:
  /// The saddle operator's Dirichlet mask and gather plan, the Poisson
  /// operator's storage, and the workspaces. Call update() before solve().
  StokesSolver(const Mesh& m, const forest::Connectivity& conn,
               const StokesOptions& opt);

  /// The constructor above followed by update(comm, eta_quad). When
  /// `cache` is non-null the hierarchies live there instead of in the
  /// solver, so a second solver on the same mesh and cache refreshes the
  /// hierarchies the first one built. Collective.
  StokesSolver(par::Comm& comm, const Mesh& m,
               const forest::Connectivity& conn,
               std::span<const double> eta_quad, const StokesOptions& opt,
               amg::HierarchyCache* cache = nullptr);

  // Not copyable or movable: cache_ may point at own_cache_.
  StokesSolver(const StokesSolver&) = delete;
  StokesSolver& operator=(const StokesSolver&) = delete;

  /// Load a viscosity given per element per quadrature point (ne * 8).
  /// One element loop fills the saddle operator's quadrature data, the
  /// Poisson element matrices and the inverse-viscosity Schur diagonal.
  /// The first call then builds one Poisson AMG hierarchy per velocity
  /// component, each with the component's Dirichlet rows (counter
  /// amg.setup.full); later calls keep the C/F splits, interpolation and
  /// Galerkin structure and refresh the values (amg.setup.numeric).
  /// Collective.
  void update(par::Comm& comm, std::span<const double> eta_quad);

  /// Solve with the given right-hand side (4*n_local, ghost-consistent;
  /// pressure rows typically zero). x holds the initial guess on entry
  /// and the solution (ghost-consistent, zero-mean pressure) on exit.
  la::SolveResult solve(par::Comm& comm, std::span<const double> rhs,
                        std::span<double> x);

  const Mesh& mesh() const { return *mesh_; }
  const forest::Connectivity& connectivity() const { return *conn_; }
  const StokesOptions& options() const { return opt_; }
  const fem::StokesOperator& op() const { return op_; }
  /// The block-diagonal preconditioner P^-1 that solve() runs MINRES with.
  la::LinOp preconditioner(par::Comm& comm) {
    return [this, &comm](std::span<const double> in, std::span<double> out) {
      apply_preconditioner(comm, in, out);
    };
  }
  /// The three velocity hierarchies; null until the first update().
  const amg::HierarchyCache& hierarchies() const { return *cache_; }
  const amg::DistAmg& velocity_amg(int comp) const {
    return *cache_->amg[static_cast<std::size_t>(comp)];
  }
  /// This rank's heap bytes outside the AMG hierarchies: the saddle
  /// operator, the Poisson element matrices, the Schur diagonal and the
  /// workspaces.
  std::uint64_t memory_bytes() const {
    return op_.memory_bytes() + poisson_.memory_bytes() +
           obs::vec_bytes(schur_diag_) + obs::vec_bytes(comp_b_) +
           obs::vec_bytes(comp_x_);
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
  const forest::Connectivity* conn_;
  StokesOptions opt_;
  fem::StokesOperator op_;          // matrix-free saddle operator
  // The variable-viscosity Poisson operator the three velocity hierarchies
  // are assembled from; only its Dirichlet mask differs between them.
  fem::ElementOperator poisson_;
  amg::HierarchyCache own_cache_;   // used when no external cache is given
  amg::HierarchyCache* cache_;      // holds the three velocity hierarchies
  std::vector<double> schur_diag_;               // n_local, 1/eta-weighted
  std::vector<double> comp_b_, comp_x_;          // owned-slice workspaces
};

}  // namespace alps::stokes
