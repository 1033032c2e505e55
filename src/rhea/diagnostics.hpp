#pragma once
// Per-timestep physics diagnostics (paper Fig. 6): the scalar time series
// that tells whether a convection run is healthy — Nusselt number, RMS
// velocity, temperature extrema. Computed with the same 2x2x2 Gauss
// quadrature as assembly so the volume averages are consistent with the
// discretization. Emitted into the telemetry stream by the Simulation
// timestep loop.
//
// The computation splits in two: rank-local partial sums (a gather of
// nodal values through the hanging-node constraints), reduced over ranks
// by the caller, then a local finish. The Simulation driver ships the
// partials in its per-step exchange (obs::analysis::analyze_step), so the
// diagnostics add no collective of their own; the quadrature weights
// |J|·w depend only on the mesh, so it passes the ones the energy
// assembly already computed (energy::EnergySolver::element_jxw()) and no
// step recomputes element geometry. compute_physics_diagnostics bundles
// the three steps around one allreduce for standalone callers.

#include <array>
#include <span>

#include "fem/hex8.hpp"
#include "forest/connectivity.hpp"
#include "mesh/mesh.hpp"
#include "par/comm.hpp"

namespace alps::rhea {

struct PhysicsDiagnostics {
  /// Nu = 1 + <u_z T> / kappa, the classical volume-averaged advective
  /// heat-transport measure for the unit Rayleigh-Benard cell (1 when
  /// kappa <= 0 or the flow is at rest).
  double nusselt = 1.0;
  double v_rms = 0.0;   // sqrt(<|u|^2>), volume-averaged
  double t_min = 0.0;   // over owned dofs
  double t_max = 0.0;
  double t_mean = 0.0;  // volume-averaged
};

/// One rank's share: the quadrature integrals of 1, u_z T, |u|^2 and T
/// over its elements (`sum`, added over ranks) and -t_min, t_max over its
/// owned dofs (`max`, maxed over ranks with a > b ? a : b).
struct DiagnosticSums {
  std::array<double, 4> sum{};
  std::array<double, 2> max{};
};

/// Local partial sums for nodal temperature (n_local) and 4-component
/// velocity+pressure solution (4 * n_local), given the quadrature weights
/// of every local element of `m` (one row per element, else
/// std::invalid_argument).
DiagnosticSums diagnostic_partials(
    const mesh::Mesh& m, std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution);

/// The diagnostics from the partial sums reduced over all ranks.
PhysicsDiagnostics finish_diagnostics(const DiagnosticSums& global,
                                      double kappa);

/// diagnostic_partials, one allreduce, finish_diagnostics. Collective.
PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m,
    std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa);

/// Same, mapping every element through `conn` first to get its weights
/// (one geometry pass; for callers without an assembled EnergySolver).
PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa);

}  // namespace alps::rhea
