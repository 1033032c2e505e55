#include "rhea/indicator.hpp"

#include <algorithm>
#include <cmath>

#include "energy/energy.hpp"
#include "fem/operators.hpp"
#include "stokes/picard.hpp"

namespace alps::rhea {

namespace {

/// Element e's L2 norm of the gradient of a nodal field, and its size
/// h = vol^(1/3), from the element's mapped quadrature.
struct GradientNorm {
  double norm = 0.0;
  double h = 0.0;
};

GradientNorm gradient_norm(const mesh::Mesh& m, std::size_t e,
                           const fem::MappedQuad& mq,
                           std::span<const double> field) {
  std::array<double, 8> fe;
  for (std::size_t i = 0; i < 8; ++i)
    fe[i] = mesh::gather(m.corners[e][i], field);
  double g2 = 0.0, vol = 0.0;
  for (std::size_t q = 0; q < fem::kQuad; ++q) {
    double grad[3] = {};
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t d = 0; d < 3; ++d) grad[d] += fe[i] * mq.dn[q][i][d];
    const double w = mq.jxw[q];
    g2 += w * (grad[0] * grad[0] + grad[1] * grad[1] + grad[2] * grad[2]);
    vol += w;
  }
  return {std::sqrt(g2), std::cbrt(vol)};
}

}  // namespace

std::vector<double> gradient_indicator(const mesh::Mesh& m,
                                       const forest::Connectivity& conn,
                                       std::span<const double> temperature) {
  std::vector<double> eta(m.elements.size());
  for (std::size_t e = 0; e < eta.size(); ++e) {
    const GradientNorm g = gradient_norm(
        m, e, fem::map_element(fem::element_geometry(m, conn, e)),
        temperature);
    eta[e] = std::pow(g.h, 1.5) * g.norm;
  }
  return eta;
}

std::vector<double> yielding_indicator(const mesh::Mesh& m,
                                       const forest::Connectivity& conn,
                                       std::span<const double> temperature,
                                       std::span<const double> velocity,
                                       double strain_weight) {
  std::vector<double> eta(m.elements.size());
  for (std::size_t e = 0; e < eta.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    const GradientNorm g = gradient_norm(m, e, mq, temperature);
    const std::array<double, fem::kQuad> edot =
        stokes::element_strain_rate(m, e, mq, velocity);
    double emax = 0.0;
    for (double v : edot) emax = std::max(emax, v);
    const double h15 = std::pow(g.h, 1.5);
    eta[e] = h15 * g.norm + strain_weight * h15 * emax;
  }
  return eta;
}

std::vector<double> adjoint_indicator(
    par::Comm& comm, const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, std::span<const double> velocity,
    const std::function<double(const std::array<double, 3>&)>& goal_region,
    double kappa, int pseudo_steps) {
  // Reverse the velocity for the adjoint transport operator.
  std::vector<double> rev(velocity.begin(), velocity.end());
  for (std::int64_t d = 0; d < m.n_local; ++d)
    for (int c = 0; c < 3; ++c)
      rev[static_cast<std::size_t>(d * 4 + c)] =
          -velocity[static_cast<std::size_t>(d * 4 + c)];
  energy::EnergyOptions opt;
  opt.kappa = kappa;
  opt.dirichlet_faces = 0b111111;
  energy::EnergySolver adjoint(comm, m, conn, rev, opt);
  std::vector<double> lambda = fem::interpolate(m, goal_region);
  const double dt = adjoint.stable_dt(comm);
  for (int s = 0; s < pseudo_steps; ++s) adjoint.step(comm, lambda, dt);

  std::vector<double> eta(m.elements.size());
  for (std::size_t e = 0; e < eta.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    const GradientNorm gt = gradient_norm(m, e, mq, temperature);
    eta[e] = gt.h * gt.norm * gradient_norm(m, e, mq, lambda).norm;
  }
  return eta;
}

}  // namespace alps::rhea
