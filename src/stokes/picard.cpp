#include "stokes/picard.hpp"

#include <cmath>

namespace alps::stokes {

std::array<double, fem::kQuad> element_strain_rate(
    const Mesh& m, std::size_t e, const fem::MappedQuad& mq,
    std::span<const double> x) {
  std::array<std::array<double, 3>, 8> ue;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t c = 0; c < 3; ++c)
      ue[i][c] = mesh::gather(m.corners[e][i], x, 4, c);
  std::array<double, fem::kQuad> edot;
  for (int q = 0; q < fem::kQuad; ++q) {
    double grad[3][3] = {};
    for (int i = 0; i < 8; ++i)
      for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d)
          grad[c][d] += ue[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] *
                        mq.dn[static_cast<std::size_t>(q)]
                             [static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(d)];
    const double div = grad[0][0] + grad[1][1] + grad[2][2];
    double ss = 0.0;
    for (int c = 0; c < 3; ++c)
      for (int d = 0; d < 3; ++d) {
        double eps = 0.5 * (grad[c][d] + grad[d][c]);
        if (c == d) eps -= div / 3.0;  // deviatoric part
        ss += eps * eps;
      }
    edot[static_cast<std::size_t>(q)] = std::sqrt(0.5 * ss);
  }
  return edot;
}

std::vector<double> strain_rate_invariant(const Mesh& m,
                                          const forest::Connectivity& conn,
                                          std::span<const double> x) {
  std::vector<double> edot(m.elements.size() * 8, 0.0);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const std::array<double, fem::kQuad> ed = element_strain_rate(
        m, e, fem::map_element(fem::element_geometry(m, conn, e)), x);
    std::copy(ed.begin(), ed.end(),
              edot.begin() + static_cast<std::ptrdiff_t>(8 * e));
  }
  return edot;
}

std::vector<double> evaluate_viscosity(const Mesh& m,
                                       const forest::Connectivity& conn,
                                       const ViscosityLaw& law,
                                       std::span<const double> temperature,
                                       std::span<const double> x) {
  const auto& n = fem::shape_values();
  std::vector<double> eta(m.elements.size() * 8);
  std::array<double, 8> te;
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    // One geometry map per element serves the strain rate, the
    // temperature and the quadrature coordinates.
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    const std::array<double, fem::kQuad> edot =
        element_strain_rate(m, e, mq, x);
    for (std::size_t i = 0; i < 8; ++i)
      te[i] = mesh::gather(m.corners[e][i], temperature);
    for (int q = 0; q < fem::kQuad; ++q) {
      double tq = 0.0;
      for (int i = 0; i < 8; ++i)
        tq += n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] *
              te[static_cast<std::size_t>(i)];
      eta[8 * e + static_cast<std::size_t>(q)] =
          law(mq.xq[static_cast<std::size_t>(q)], tq,
              edot[static_cast<std::size_t>(q)]);
    }
  }
  return eta;
}

PicardResult solve_nonlinear_stokes(par::Comm& comm, StokesSolver& solver,
                                    const ViscosityLaw& law,
                                    std::span<const double> temperature,
                                    std::span<double> x,
                                    const PicardOptions& opt) {
  const Mesh& m = solver.mesh();
  const forest::Connectivity& conn = solver.connectivity();
  PicardResult result;
  const std::size_t nl = static_cast<std::size_t>(m.n_local);
  std::vector<double> prev(x.begin(), x.end());
  // The temperature is fixed over the loop, and so is the buoyancy.
  const std::vector<double> rhs = StokesSolver::buoyancy_rhs(
      comm, m, conn, temperature, opt.rayleigh, opt.buoyancy_dir,
      solver.options());
  for (int it = 0; it < opt.max_iterations; ++it) {
    solver.update(comm, evaluate_viscosity(m, conn, law, temperature, x));
    result.solves.push_back(solver.solve(comm, rhs, x));
    result.iterations = it + 1;

    // Relative change of velocity (owned entries); both sums travel in
    // one allreduce.
    std::array<double, 2> local{}, global{};
    for (std::int64_t d = 0; d < m.n_owned; ++d)
      for (int c = 0; c < 3; ++c) {
        const std::size_t i = static_cast<std::size_t>(d) * 4 +
                              static_cast<std::size_t>(c);
        local[0] += (x[i] - prev[i]) * (x[i] - prev[i]);
        local[1] += x[i] * x[i];
      }
    comm.allreduce_sum(local, global);
    const double diff = global[0], norm = global[1];
    result.velocity_change = norm > 0 ? std::sqrt(diff / norm) : 0.0;
    if (result.velocity_change < opt.tolerance) break;
    std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(4 * nl),
              prev.begin());
  }
  return result;
}

}  // namespace alps::stokes
