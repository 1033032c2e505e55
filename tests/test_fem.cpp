// Tests for trilinear hex element kernels and the distributed element
// operator (src/fem).

#include <gtest/gtest.h>

#include <cmath>

#include "amg/dist_amg.hpp"
#include "fem/operators.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using fem::ElemGeom;
using fem::ElementOperator;
using fem::MappedQuad;
using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;
using mesh::extract_mesh;
using alps::par::Comm;

ElemGeom unit_cube_geom(double h = 1.0) {
  ElemGeom g;
  for (int i = 0; i < 8; ++i)
    g[static_cast<std::size_t>(i)] = {h * ((i & 1) ? 1 : 0), h * ((i & 2) ? 1 : 0),
                                      h * ((i & 4) ? 1 : 0)};
  return g;
}

TEST(Hex8, VolumeOfScaledCube) {
  EXPECT_NEAR(fem::element_volume(unit_cube_geom(1.0)), 1.0, 1e-14);
  EXPECT_NEAR(fem::element_volume(unit_cube_geom(0.25)), 0.015625, 1e-14);
}

TEST(Hex8, StiffnessRowsSumToZero) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(0.5));
  std::array<double, 8> eta;
  eta.fill(3.0);
  const fem::Mat8 k = fem::stiffness(mq, eta);
  for (int i = 0; i < 8; ++i) {
    double s = 0;
    for (int j = 0; j < 8; ++j)
      s += k[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    EXPECT_NEAR(s, 0.0, 1e-12);  // constants are in the kernel
  }
}

TEST(Hex8, StiffnessScalesLinearlyWithViscosity) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(1.0));
  std::array<double, 8> e1, e7;
  e1.fill(1.0);
  e7.fill(7.0);
  const fem::Mat8 k1 = fem::stiffness(mq, e1);
  const fem::Mat8 k7 = fem::stiffness(mq, e7);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      EXPECT_NEAR(k7[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  7.0 * k1[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  1e-12);
}

TEST(Hex8, MassTotalEqualsVolume) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(0.5));
  const fem::Mat8 m = fem::mass(mq);
  double total = 0;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      total += m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  EXPECT_NEAR(total, 0.125, 1e-14);
  const std::array<double, 8> lm = fem::lumped_mass(mq);
  double lt = 0;
  for (double v : lm) lt += v;
  EXPECT_NEAR(lt, 0.125, 1e-14);
}

TEST(Hex8, ViscousBlockAnnihilatesRigidMotions) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(1.0));
  std::array<double, 8> eta;
  eta.fill(2.0);
  const auto a = fem::viscous_block(mq, eta);
  // Translation: u = (1,0,0) everywhere.
  std::array<double, 24> u{}, au{};
  for (int i = 0; i < 8; ++i) u[static_cast<std::size_t>(3 * i)] = 1.0;
  for (int r = 0; r < 24; ++r)
    for (int c = 0; c < 24; ++c)
      au[static_cast<std::size_t>(r)] +=
          a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] *
          u[static_cast<std::size_t>(c)];
  for (int r = 0; r < 24; ++r)
    EXPECT_NEAR(au[static_cast<std::size_t>(r)], 0.0, 1e-12);
  // Rigid rotation about z: u = (-y, x, 0): eps(u) = 0.
  std::array<double, 24> rot{}, arot{};
  for (int i = 0; i < 8; ++i) {
    const double x = (i & 1) ? 1 : 0, y = (i & 2) ? 1 : 0;
    rot[static_cast<std::size_t>(3 * i + 0)] = -y;
    rot[static_cast<std::size_t>(3 * i + 1)] = x;
  }
  for (int r = 0; r < 24; ++r)
    for (int c = 0; c < 24; ++c)
      arot[static_cast<std::size_t>(r)] +=
          a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] *
          rot[static_cast<std::size_t>(c)];
  for (int r = 0; r < 24; ++r)
    EXPECT_NEAR(arot[static_cast<std::size_t>(r)], 0.0, 1e-12);
}

TEST(Hex8, DivergenceDetectsLinearExpansion) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(1.0));
  const auto b = fem::divergence_block(mq);
  // u = (x, 0, 0): div u = 1, so sum_i B_(i)(u) = -int div u = -1.
  std::array<double, 24> u{};
  for (int i = 0; i < 8; ++i)
    u[static_cast<std::size_t>(3 * i)] = (i & 1) ? 1.0 : 0.0;
  double total = 0;
  for (int i = 0; i < 8; ++i) {
    double s = 0;
    for (int c = 0; c < 24; ++c)
      s += b[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] *
           u[static_cast<std::size_t>(c)];
    total += s;
  }
  EXPECT_NEAR(total, -1.0, 1e-12);
}

TEST(Hex8, PressureStabilizationKillsConstantsOnly) {
  const MappedQuad mq = fem::map_element(unit_cube_geom(1.0));
  const fem::Mat8 c = fem::pressure_stabilization(mq, 2.0);
  // Constant pressure in the kernel.
  std::array<double, 8> ones{};
  ones.fill(1.0);
  for (int i = 0; i < 8; ++i) {
    double s = 0;
    for (int j = 0; j < 8; ++j)
      s += c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
           ones[static_cast<std::size_t>(j)];
    EXPECT_NEAR(s, 0.0, 1e-13);
  }
  // Non-constant mode has positive energy.
  std::array<double, 8> mode{};
  for (int i = 0; i < 8; ++i) mode[static_cast<std::size_t>(i)] = (i & 1) ? 1.0 : -1.0;
  double energy = 0;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      energy += mode[static_cast<std::size_t>(i)] *
                c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                mode[static_cast<std::size_t>(j)];
  EXPECT_GT(energy, 1e-6);
}

TEST(Hex8, SupgTauLimits) {
  EXPECT_DOUBLE_EQ(fem::supg_tau(0.1, 0.0, 1.0), 0.0);
  // Advection-dominated: tau -> h/(2|u|).
  EXPECT_NEAR(fem::supg_tau(0.1, 100.0, 1e-9), 0.1 / 200.0, 1e-8);
  // Diffusion-dominated: tau -> h^2/(12 kappa), tiny compared to h/(2|u|).
  EXPECT_NEAR(fem::supg_tau(0.1, 0.01, 10.0), 0.01 / 120.0, 1e-7);
  EXPECT_LT(fem::supg_tau(0.1, 0.01, 10.0), 0.1 / (2.0 * 0.01) * 0.01);
}

class FemRanks : public ::testing::TestWithParam<int> {};

TEST_P(FemRanks, LaplaceSolveReproducesLinearSolution) {
  alps::par::run(GetParam(), [](Comm& c) {
    // -div(grad u) = 0 with u = x + 2y - z on the boundary: the exact
    // solution is linear, so trilinear FEM reproduces it to roundoff.
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    // Refine a bit to get hanging nodes into the operator.
    const alps::octree::coord_t mid = alps::octree::coord_t{1}
                                      << (alps::octree::kMaxLevel - 1);
    std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
    for (std::size_t i = 0; i < flags.size(); ++i) {
      const auto& o = f.tree().leaves()[i];
      if (o.x == mid && o.y == mid && o.z == mid) flags[i] = 1;
    }
    f.tree().adapt(flags, 0, 6);
    f.tree().update_ranges(c);
    f.balance(c);
    Mesh m = extract_mesh(c, f);

    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b111111);
    const auto exact = [](const std::array<double, 3>& p) {
      return p[0] + 2.0 * p[1] - p[2];
    };
    std::vector<double> g(static_cast<std::size_t>(m.n_local), 0.0);
    for (std::int64_t i = 0; i < m.n_local; ++i)
      if (m.dof_boundary[static_cast<std::size_t>(i)])
        g[static_cast<std::size_t>(i)] = exact(m.dof_coords[static_cast<std::size_t>(i)]);
    std::vector<double> b(static_cast<std::size_t>(m.n_local), 0.0);
    op.lift_bcs(c, g, b);
    std::vector<double> x = g;
    la::KrylovOptions kopt;
    kopt.rtol = 1e-12;
    kopt.max_iterations = 2000;
    la::SolveResult r =
        la::cg(op.as_linop(c), b, x, la::identity_op(), op.as_dot(c), kopt);
    EXPECT_TRUE(r.converged);
    for (std::int64_t i = 0; i < m.n_local; ++i)
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  exact(m.dof_coords[static_cast<std::size_t>(i)]), 1e-8);
  });
}

TEST_P(FemRanks, DistributedApplyMatchesGatheredMatrix) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(),
        [](const std::array<double, 3>& p) { return 1.0 + p[0]; }, 0b000011);
    la::Csr global = op.assemble_global(c);
    EXPECT_EQ(global.rows(), m.n_global);

    // Random-but-deterministic global vector.
    std::vector<double> xg(static_cast<std::size_t>(m.n_global));
    for (std::size_t i = 0; i < xg.size(); ++i)
      xg[i] = std::sin(0.37 * static_cast<double>(i));
    std::vector<double> yg(static_cast<std::size_t>(m.n_global));
    global.matvec(xg, yg);

    std::vector<double> x(static_cast<std::size_t>(m.n_local));
    for (std::int64_t i = 0; i < m.n_local; ++i)
      x[static_cast<std::size_t>(i)] =
          xg[static_cast<std::size_t>(m.dof_gids[static_cast<std::size_t>(i)])];
    std::vector<double> y(static_cast<std::size_t>(m.n_local));
    op.apply(c, x, y);
    for (std::int64_t i = 0; i < m.n_local; ++i)
      EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                  yg[static_cast<std::size_t>(m.dof_gids[static_cast<std::size_t>(i)])],
                  1e-10);
  });
}

TEST_P(FemRanks, AmgPreconditionedCgOnAdaptedVariableViscosity) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    const alps::octree::coord_t mid = alps::octree::coord_t{1}
                                      << (alps::octree::kMaxLevel - 1);
    for (int round = 0; round < 2; ++round) {
      std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
      for (std::size_t i = 0; i < flags.size(); ++i) {
        const auto& o = f.tree().leaves()[i];
        if (o.x == mid && o.y == mid && o.z == mid) flags[i] = 1;
      }
      f.tree().adapt(flags, 0, 6);
    }
    f.tree().update_ranges(c);
    f.balance(c);
    Mesh m = extract_mesh(c, f);
    // 10^4 viscosity contrast.
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(),
        [](const std::array<double, 3>& p) { return p[2] > 0.5 ? 1e4 : 1.0; },
        0b111111);
    // One distributed V-cycle over the owned slice (owned local dofs carry
    // gids gid_offset + i, the DistCsr row partition), then a halo
    // exchange refreshes the ghosts.
    amg::DistAmg amg(c, op.assemble_dist(c));
    const std::size_t no = static_cast<std::size_t>(m.n_owned);
    std::vector<double> bo(no), xo(no);
    la::LinOp pre = [&](std::span<const double> x, std::span<double> y) {
      std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(no),
                bo.begin());
      std::fill(xo.begin(), xo.end(), 0.0);
      amg.vcycle(c, bo, xo);
      std::copy(xo.begin(), xo.end(), y.begin());
      m.exchange(c, y);
    };
    std::vector<double> b(static_cast<std::size_t>(m.n_local), 1.0);
    for (std::int64_t i = 0; i < m.n_local; ++i)
      if (m.dof_boundary[static_cast<std::size_t>(i)]) b[static_cast<std::size_t>(i)] = 0.0;
    std::vector<double> x(static_cast<std::size_t>(m.n_local), 0.0);
    la::KrylovOptions kopt;
    kopt.rtol = 1e-8;
    la::SolveResult r = la::cg(op.as_linop(c), b, x, pre, op.as_dot(c), kopt);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 25);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, FemRanks, ::testing::Values(1, 2, 4));

}  // namespace
