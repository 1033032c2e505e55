#pragma once
// Energy equation (paper Eq. 3): SUPG-stabilized advection-diffusion,
// advanced explicitly with a two-stage predictor-corrector and a lumped
// mass matrix — the transport component the paper uses to stress-test
// parallel AMR (Sec. V).

#include <functional>

#include "fem/operators.hpp"

namespace alps::energy {

using mesh::Mesh;

struct EnergyOptions {
  double kappa = 1.0;         // nondimensional thermal diffusivity
  double heat_source = 0.0;   // internal heating gamma
  // Faces with Dirichlet temperature (default: bottom and top).
  std::uint8_t dirichlet_faces = 0b110000;
  double cfl_safety = 0.5;
};

class EnergySolver {
 public:
  /// `velocity` is the 4-comp solution layout (4*n_local); only the
  /// velocity components are read. Assembles the SUPG operator once for
  /// the given velocity (re-create after the velocity or mesh changes).
  EnergySolver(par::Comm& comm, const Mesh& m,
               const forest::Connectivity& conn,
               std::span<const double> velocity, const EnergyOptions& opt);

  /// One explicit predictor-corrector step on the nodal temperature
  /// (n_local, ghost-consistent in and out). Collective.
  void step(par::Comm& comm, std::span<double> temperature, double dt) const;

  /// Largest stable time step (advective + diffusive limits), global.
  double stable_dt(par::Comm& comm) const;

  const fem::ElementOperator& op() const { return *op_; }

  /// Quadrature weights |J|·w at the 2x2x2 Gauss points, one row per local
  /// element, kept from assembly so per-step volume integrals (the physics
  /// diagnostics) need no geometry pass.
  std::span<const std::array<double, fem::kQuad>> element_jxw() const {
    return jxw_;
  }

  /// This rank's heap bytes for the lumped-mass, source and quadrature
  /// weight vectors (the "energy.fields" memory scope). The SUPG element
  /// operator is reported separately through op().memory_bytes() (the
  /// "fem.plan" scope).
  std::uint64_t memory_bytes() const {
    return obs::vec_bytes(lumped_) + obs::vec_bytes(source_) +
           obs::vec_bytes(jxw_);
  }

 private:
  void rate(par::Comm& comm, std::span<const double> t,
            std::span<double> dtdt) const;

  const Mesh* mesh_;
  EnergyOptions opt_;
  std::unique_ptr<fem::ElementOperator> op_;  // advection + diffusion + SUPG
  std::vector<double> lumped_;                // lumped mass
  std::vector<double> source_;                // gamma load vector
  std::vector<std::array<double, fem::kQuad>> jxw_;  // per-element weights
  double dt_limit_ = 0.0;                     // local element limit
};

}  // namespace alps::energy
