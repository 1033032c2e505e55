#pragma once
// Picard fixed-point iteration for strain-rate-dependent (yielding)
// viscosity (paper Sec. III): each iteration freezes the viscosity at the
// current velocity, solves the linearized Stokes system, and repeats
// until the velocity stops changing.

#include "stokes/stokes.hpp"

namespace alps::stokes {

/// eta = law(x, T, edot) with edot the second invariant of the deviatoric
/// strain rate tensor, sqrt(0.5 eps':eps').
using ViscosityLaw =
    std::function<double(const std::array<double, 3>& x, double temperature,
                         double strain_rate_invariant)>;

struct PicardOptions {
  int max_iterations = 10;
  double tolerance = 1e-3;  // relative velocity change
  StokesOptions stokes{};  // what the caller builds its StokesSolver with
  double rayleigh = 1e5;
  int buoyancy_dir = 2;  // radial (z) direction
};

struct PicardResult {
  int iterations = 0;
  double velocity_change = 0.0;
  std::vector<la::SolveResult> solves;
};

/// Second invariant of the strain rate at element e's quadrature points,
/// from the element's mapped quadrature and the velocity in the 4-comp
/// vector x (ghosts current). The per-element kernel of
/// strain_rate_invariant and evaluate_viscosity, exported so callers that
/// already map an element (the yielding indicator) map it only once.
std::array<double, fem::kQuad> element_strain_rate(
    const Mesh& m, std::size_t e, const fem::MappedQuad& mq,
    std::span<const double> x);

/// Second invariant of the strain rate at each quadrature point (ne * 8)
/// of the velocity in the 4-comp solution vector x.
std::vector<double> strain_rate_invariant(const Mesh& m,
                                          const forest::Connectivity& conn,
                                          std::span<const double> x);

/// Viscosity at each quadrature point (ne * 8) from the law, the nodal
/// temperature, and the current velocity.
std::vector<double> evaluate_viscosity(const Mesh& m,
                                       const forest::Connectivity& conn,
                                       const ViscosityLaw& law,
                                       std::span<const double> temperature,
                                       std::span<const double> x);

/// Nonlinear Stokes solve on the solver's mesh; x (4*n_local) is the
/// initial guess and result. The buoyancy right-hand side is built once,
/// and every iteration update()s the solver with the viscosity at the
/// current velocity, so the AMG hierarchies the solver holds are reused
/// across iterations and across calls.
PicardResult solve_nonlinear_stokes(par::Comm& comm, StokesSolver& solver,
                                    const ViscosityLaw& law,
                                    std::span<const double> temperature,
                                    std::span<double> x,
                                    const PicardOptions& opt);

}  // namespace alps::stokes
