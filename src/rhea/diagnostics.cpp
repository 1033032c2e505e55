#include "rhea/diagnostics.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fem/operators.hpp"

namespace alps::rhea {

DiagnosticSums diagnostic_partials(
    const mesh::Mesh& m, std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution) {
  if (jxw.size() != m.elements.size())
    throw std::invalid_argument(
        "diagnostic_partials: one weight row per local element");
  const auto& shapes = fem::shape_values();
  DiagnosticSums s;
  std::array<double, 8> te, ue[3];
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    for (std::size_t i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][i];
      te[i] = mesh::gather(cc, temperature);
      for (std::size_t c = 0; c < 3; ++c)
        ue[c][i] = mesh::gather(cc, solution, 4, c);
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
      s.sum[0] += w;
      s.sum[1] += w * uq[2] * tq;
      s.sum[2] += w * (uq[0] * uq[0] + uq[1] * uq[1] + uq[2] * uq[2]);
      s.sum[3] += w * tq;
    }
  }
  double tmin = std::numeric_limits<double>::infinity();
  double tmax = -std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < m.n_owned; ++i) {
    const double t = temperature[static_cast<std::size_t>(i)];
    tmin = t < tmin ? t : tmin;
    tmax = t > tmax ? t : tmax;
  }
  s.max[0] = -tmin;  // max(-a) == -min(a) exactly
  s.max[1] = tmax;
  return s;
}

PhysicsDiagnostics finish_diagnostics(const DiagnosticSums& global,
                                      double kappa) {
  PhysicsDiagnostics d;
  const double vol = global.sum[0];
  if (vol > 0.0) {
    d.v_rms = std::sqrt(global.sum[2] / vol);
    d.t_mean = global.sum[3] / vol;
    if (kappa > 0.0) d.nusselt = 1.0 + global.sum[1] / vol / kappa;
  }
  d.t_min = -global.max[0];
  d.t_max = global.max[1];
  if (!(d.t_min <= d.t_max)) d.t_min = d.t_max = 0.0;  // no owned dofs
  return d;
}

PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m,
    std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa) {
  const DiagnosticSums global = comm.allreduce(
      diagnostic_partials(m, jxw, temperature, solution),
      [](const DiagnosticSums& a, const DiagnosticSums& b) {
        DiagnosticSums r;
        for (std::size_t i = 0; i < r.sum.size(); ++i)
          r.sum[i] = a.sum[i] + b.sum[i];
        for (std::size_t i = 0; i < r.max.size(); ++i)
          r.max[i] = a.max[i] > b.max[i] ? a.max[i] : b.max[i];
        return r;
      });
  return finish_diagnostics(global, kappa);
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
