#include "rhea/diagnostics.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fem/operators.hpp"

namespace alps::rhea {

PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m,
    std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa) {
  if (jxw.size() != m.elements.size())
    throw std::invalid_argument(
        "compute_physics_diagnostics: one weight row per local element");
  const auto& shapes = fem::shape_values();
  // Local quadrature sums: volume, u_z T, |u|^2, T; then -t_min and t_max
  // over owned dofs. Elements are owned leaves (never replicated across
  // ranks), so one allreduce that sums the first four slots and takes the
  // max of the last two yields the global integrals and extrema.
  std::array<double, 6> sums{};
  std::array<double, 8> te, ue[3];
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    // Gather nodal values through the hanging-node constraints.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      double t = 0.0;
      std::array<double, 3> u{};
      for (int k = 0; k < cc.n; ++k) {
        const std::size_t d =
            static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]);
        const double w = cc.w[static_cast<std::size_t>(k)];
        t += w * temperature[d];
        for (int c = 0; c < 3; ++c)
          u[static_cast<std::size_t>(c)] +=
              w * solution[4 * d + static_cast<std::size_t>(c)];
      }
      te[static_cast<std::size_t>(i)] = t;
      for (int c = 0; c < 3; ++c)
        ue[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
            u[static_cast<std::size_t>(c)];
    }
    for (int q = 0; q < fem::kQuad; ++q) {
      double tq = 0.0;
      std::array<double, 3> uq{};
      for (int i = 0; i < 8; ++i) {
        const double n = shapes[static_cast<std::size_t>(q)]
                               [static_cast<std::size_t>(i)];
        tq += n * te[static_cast<std::size_t>(i)];
        for (int c = 0; c < 3; ++c)
          uq[static_cast<std::size_t>(c)] +=
              n * ue[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
      }
      const double w = jxw[e][static_cast<std::size_t>(q)];
      sums[0] += w;
      sums[1] += w * uq[2] * tq;
      sums[2] += w * (uq[0] * uq[0] + uq[1] * uq[1] + uq[2] * uq[2]);
      sums[3] += w * tq;
    }
  }
  double tmin = std::numeric_limits<double>::infinity();
  double tmax = -std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < m.n_owned; ++i) {
    const double t = temperature[static_cast<std::size_t>(i)];
    tmin = t < tmin ? t : tmin;
    tmax = t > tmax ? t : tmax;
  }
  sums[4] = -tmin;  // max(-a) == -min(a) exactly
  sums[5] = tmax;
  sums = comm.allreduce(
      sums, [](const std::array<double, 6>& a, const std::array<double, 6>& b) {
        std::array<double, 6> r;
        for (std::size_t i = 0; i < 4; ++i) r[i] = a[i] + b[i];
        for (std::size_t i = 4; i < 6; ++i) r[i] = a[i] > b[i] ? a[i] : b[i];
        return r;
      });

  PhysicsDiagnostics d;
  const double vol = sums[0];
  if (vol > 0.0) {
    d.v_rms = std::sqrt(sums[2] / vol);
    d.t_mean = sums[3] / vol;
    if (kappa > 0.0) d.nusselt = 1.0 + sums[1] / vol / kappa;
  }
  d.t_min = -sums[4];
  d.t_max = sums[5];
  if (!(d.t_min <= d.t_max)) d.t_min = d.t_max = 0.0;  // no owned dofs
  return d;
}

PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa) {
  std::vector<std::array<double, fem::kQuad>> jxw(m.elements.size());
  for (std::size_t e = 0; e < jxw.size(); ++e)
    jxw[e] = fem::map_element(fem::element_geometry(m, conn, e)).jxw;
  return compute_physics_diagnostics(comm, m, jxw, temperature, solution,
                                     kappa);
}

}  // namespace alps::rhea
