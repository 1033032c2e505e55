// Refinement indicators (src/rhea/indicator.cpp) on an adapted unit cube
// with hanging nodes, at P = 1 and 2. Box elements reproduce linear
// fields exactly through the constraints, so a linear temperature has a
// constant gradient and a linear shear a constant strain rate in every
// element, and both indicators have closed forms.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "fem/operators.hpp"
#include "par/runtime.hpp"
#include "rhea/indicator.hpp"
#include "test_meshes.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;
using par::Comm;

constexpr int kRankCounts[] = {1, 2};
constexpr std::array<double, 3> kSlope = {0.3, -1.2, 0.7};

// Runs `check(m, conn)` on the adapted cube at every rank count.
template <typename Check>
void on_adapted_cube(Check check) {
  for (const int p : kRankCounts)
    alps::par::run(p, [&check](Comm& c) {
      SCOPED_TRACE("P = " + std::to_string(c.size()));
      const Forest f = test::adapted_forest(c, Connectivity::unit_cube(), 2,
                                            {0.5, 0.5, 0.5}, 0.1);
      const Mesh m = mesh::extract_mesh(c, f);
      std::int64_t hanging = 0;
      for (const auto& corners : m.corners)
        for (const mesh::Corner& cc : corners) hanging += cc.hanging;
      ASSERT_GT(c.allreduce_sum(hanging), 0);
      check(m, f.connectivity());
    });
}

std::vector<double> linear_temperature(const Mesh& m) {
  return fem::interpolate(m, [](const std::array<double, 3>& p) {
    return kSlope[0] * p[0] + kSlope[1] * p[1] + kSlope[2] * p[2];
  });
}

double element_volume(const Mesh& m, const Connectivity& conn,
                      std::size_t e) {
  return fem::element_volume(fem::element_geometry(m, conn, e));
}

TEST(Indicator, GradientOfLinearTemperatureHasClosedForm) {
  on_adapted_cube([](const Mesh& m, const Connectivity& conn) {
    const std::vector<double> eta =
        rhea::gradient_indicator(m, conn, linear_temperature(m));
    ASSERT_EQ(eta.size(), m.elements.size());
    const double norm_a = std::sqrt(kSlope[0] * kSlope[0] +
                                    kSlope[1] * kSlope[1] +
                                    kSlope[2] * kSlope[2]);
    for (std::size_t e = 0; e < eta.size(); ++e) {
      const double vol = element_volume(m, conn, e);
      const double want =
          std::pow(std::cbrt(vol), 1.5) * norm_a * std::sqrt(vol);
      EXPECT_NEAR(eta[e], want, 1e-12 * want) << "element " << e;
    }
  });
}

TEST(Indicator, YieldingEqualsGradientBitForBitAtRest) {
  on_adapted_cube([](const Mesh& m, const Connectivity& conn) {
    const std::vector<double> t =
        fem::interpolate(m, [](const std::array<double, 3>& p) {
          return std::sin(3.0 * p[0]) * std::exp(-p[1]) + p[2] * p[2];
        });
    const std::vector<double> rest(static_cast<std::size_t>(m.n_local) * 4,
                                   0.0);
    const std::vector<double> grad = rhea::gradient_indicator(m, conn, t);
    const std::vector<double> yield =
        rhea::yielding_indicator(m, conn, t, rest, 5.0);
    ASSERT_EQ(yield.size(), grad.size());
    for (std::size_t e = 0; e < grad.size(); ++e)
      EXPECT_EQ(yield[e], grad[e]) << "element " << e;
  });
}

// u = (gamma z, 0, 0): the deviatoric strain rate has eps_xz = eps_zx =
// gamma / 2, so sqrt(0.5 eps':eps') = gamma / 2 at every quadrature point.
TEST(Indicator, YieldingAddsStrainRateOfLinearShear) {
  on_adapted_cube([](const Mesh& m, const Connectivity& conn) {
    const double gamma = 0.8, weight = 2.5;
    std::vector<double> u(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(m.n_local); ++i)
      u[4 * i] = gamma * m.dof_coords[i][2];
    const std::vector<double> t = linear_temperature(m);
    const std::vector<double> grad = rhea::gradient_indicator(m, conn, t);
    const std::vector<double> yield =
        rhea::yielding_indicator(m, conn, t, u, weight);
    ASSERT_EQ(yield.size(), grad.size());
    for (std::size_t e = 0; e < grad.size(); ++e) {
      const double h = std::cbrt(element_volume(m, conn, e));
      const double want = grad[e] + weight * std::pow(h, 1.5) * gamma / 2.0;
      EXPECT_NEAR(yield[e], want, 1e-12 * want) << "element " << e;
    }
  });
}

}  // namespace
