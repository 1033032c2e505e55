// Tests for the high-order nodal DG module (src/dg).

#include <gtest/gtest.h>

#include <cmath>

#include "dg/advect.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using dg::DerivativeKernel;
using dg::DgAdvection;
using dg::lgl_rule;
using dg::LglRule;
using forest::Connectivity;
using forest::Forest;
using par::Comm;

TEST(Lgl, NodesAndWeightsKnownValues) {
  // p = 1: endpoints, equal weights.
  LglRule r1 = lgl_rule(1);
  EXPECT_NEAR(r1.nodes[0], 0.0, 1e-15);
  EXPECT_NEAR(r1.nodes[1], 1.0, 1e-15);
  EXPECT_NEAR(r1.weights[0], 0.5, 1e-15);
  // p = 2: midpoint with weight 2/3 (on [0,1]: 4/6).
  LglRule r2 = lgl_rule(2);
  EXPECT_NEAR(r2.nodes[1], 0.5, 1e-14);
  EXPECT_NEAR(r2.weights[1], 4.0 / 6.0, 1e-14);
  // p = 4: interior nodes at (1 +- sqrt(3/7))/2.
  LglRule r4 = lgl_rule(4);
  EXPECT_NEAR(r4.nodes[1], 0.5 * (1.0 - std::sqrt(3.0 / 7.0)), 1e-12);
  EXPECT_NEAR(r4.nodes[3], 0.5 * (1.0 + std::sqrt(3.0 / 7.0)), 1e-12);
}

TEST(Lgl, WeightsIntegratePolynomialsExactly) {
  for (int p = 1; p <= 8; ++p) {
    LglRule r = lgl_rule(p);
    // LGL integrates degree 2p-1 exactly; check x^(2p-1).
    double s = 0.0;
    for (std::size_t i = 0; i < r.nodes.size(); ++i)
      s += r.weights[i] * std::pow(r.nodes[i], 2 * p - 1);
    EXPECT_NEAR(s, 1.0 / (2.0 * p), 1e-12) << "p=" << p;
    double total = 0.0;
    for (double w : r.weights) total += w;
    EXPECT_NEAR(total, 1.0, 1e-13);
  }
}

TEST(Lgl, DifferentiationMatrixExactOnPolynomials) {
  for (int p = 2; p <= 6; ++p) {
    LglRule r = lgl_rule(p);
    std::vector<double> d = dg::differentiation_matrix(r);
    const std::size_t n = r.nodes.size();
    // Differentiate x^p: derivative p x^(p-1).
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        s += d[i * n + j] * std::pow(r.nodes[j], p);
      EXPECT_NEAR(s, p * std::pow(r.nodes[i], p - 1), 1e-10);
    }
  }
}

TEST(Kernels, TensorAndMatrixAgree) {
  for (int p : {1, 2, 4, 6}) {
    DerivativeKernel k(p);
    const std::int64_t n3 = k.nodes_per_elem();
    std::vector<double> u(static_cast<std::size_t>(n3));
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = std::sin(0.37 * static_cast<double>(i));
    std::vector<double> tx(u.size()), ty(u.size()), tz(u.size());
    std::vector<double> mx(u.size()), my(u.size()), mz(u.size());
    k.apply_tensor(u, tx, ty, tz);
    k.apply_matrix(u, mx, my, mz);
    for (std::size_t i = 0; i < u.size(); ++i) {
      EXPECT_NEAR(tx[i], mx[i], 1e-10);
      EXPECT_NEAR(ty[i], my[i], 1e-10);
      EXPECT_NEAR(tz[i], mz[i], 1e-10);
    }
  }
}

TEST(Kernels, FlopCountsMatchPaperFormulas) {
  DerivativeKernel k(4);
  EXPECT_EQ(k.flops_tensor(), 6 * 5 * 5 * 5 * 5);
  EXPECT_EQ(k.flops_matrix(), 6LL * 5 * 5 * 5 * 5 * 5 * 5);
}

class DgRanks : public ::testing::TestWithParam<int> {};

TEST_P(DgRanks, ConstantFieldIsSteady) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::brick(2, 1, 1, true, true, true), 1);
    DgAdvection dg(c, f, 3, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{1.0, 0.5, -0.25};
                   });
    std::vector<double> u =
        dg.interpolate([](const std::array<double, 3>&) { return 4.2; });
    std::vector<double> r(u.size());
    dg.rhs(c, u, 0.0, r);
    for (double v : r) EXPECT_NEAR(v, 0.0, 1e-10);
  });
}

TEST_P(DgRanks, LinearFieldHasExactDerivative) {
  alps::par::run(GetParam(), [](Comm& c) {
    // du/dt = -a . grad(u) with u = x: rhs must be exactly -a_x.
    Forest f = Forest::new_uniform(c, Connectivity::brick(1, 1, 1, true, true, true), 1);
    DgAdvection dg(c, f, 2, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{2.0, 0.0, 0.0};
                   });
    std::vector<double> u = dg.interpolate(
        [](const std::array<double, 3>& p) { return 3.0 * p[1]; });
    std::vector<double> r(u.size());
    dg.rhs(c, u, 0.0, r);
    // velocity has no y-component: rhs = 0 despite gradient in y
    // (checks metric terms and face coupling don't pollute).
    for (double v : r) EXPECT_NEAR(v, 0.0, 1e-10);
  });
}

TEST_P(DgRanks, PeriodicAdvectionReturnsToStart) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Advect a smooth bump across a periodic unit cube and back to the
    // starting position; high-order DG should return it almost exactly.
    Forest f = Forest::new_uniform(
        c, Connectivity::brick(1, 1, 1, true, true, true), 1);
    const int p = 6;
    DgAdvection dg(c, f, p, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{1.0, 0.0, 0.0};
                   });
    const auto bump = [](const std::array<double, 3>& x) {
      return std::sin(2.0 * M_PI * x[0]) * std::cos(2.0 * M_PI * x[1]);
    };
    std::vector<double> u = dg.interpolate(bump);
    const std::vector<double> u0 = u;
    const double dt0 = dg.stable_dt(c, 0.0);
    const int steps = static_cast<int>(std::ceil(1.0 / dt0));
    const double dt = 1.0 / steps;  // exactly one period
    double t = 0.0;
    for (int s = 0; s < steps; ++s) {
      dg.step(c, u, t, dt);
      t += dt;
    }
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) {
      err = std::max(err, std::abs(u[i] - u0[i]));
      norm = std::max(norm, std::abs(u0[i]));
    }
    err = c.allreduce_max(err);
    EXPECT_LT(err, 0.02 * norm);
  });
}

TEST_P(DgRanks, MassConservedOnPeriodicMesh) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(
        c, Connectivity::brick(2, 2, 1, true, true, true), 1);
    DgAdvection dg(c, f, 4, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{0.7, 0.4, 0.0};
                   });
    std::vector<double> u = dg.interpolate([](const std::array<double, 3>& x) {
      return 1.0 + 0.5 * std::sin(M_PI * x[0]) * std::sin(M_PI * x[1]);
    });
    const double m0 = dg.integral(c, u);
    const double dt = dg.stable_dt(c, 0.0);
    double t = 0.0;
    for (int s = 0; s < 10; ++s) {
      dg.step(c, u, t, dt);
      t += dt;
    }
    EXPECT_NEAR(dg.integral(c, u), m0, 5e-4 * std::abs(m0));
  });
}

TEST_P(DgRanks, StepExchangesGhostsPointToPointWithoutAlltoall) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(
        c, Connectivity::brick(2, 2, 1, true, true, true), 1);
    DgAdvection dg(c, f, 2, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{0.7, 0.4, 0.0};
                   });
    std::vector<double> u = dg.interpolate(
        [](const std::array<double, 3>& x) { return x[0] + 2.0 * x[1]; });
    // Barriers fence the counter reads: setup's collectives are done
    // before the first read, and every rank has stepped before the last.
    c.barrier();
    const std::uint64_t a2a = c.stats().alltoall_calls.load();
    const std::uint64_t msgs = c.stats().p2p_messages.load();
    c.barrier();
    dg.step(c, u, 0.0, 1e-3);
    c.barrier();
    EXPECT_EQ(c.stats().alltoall_calls.load(), a2a);
    if (c.size() > 1) {
      EXPECT_GT(c.stats().p2p_messages.load(), msgs);
    }
  });
}

TEST_P(DgRanks, NonconformingMeshStaysStableAndAccurate) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Refine half the domain: 2:1 faces appear; advection across them
    // must remain stable and roughly conservative.
    Forest f = Forest::new_uniform(
        c, Connectivity::brick(1, 1, 1, true, true, true), 1);
    std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
    for (std::size_t i = 0; i < flags.size(); ++i)
      if (f.tree().leaves()[i].x == 0) flags[i] = 1;
    f.tree().adapt(flags, 0, 6);
    f.tree().update_ranges(c);
    f.balance(c);
    f.partition(c);
    DgAdvection dg(c, f, 4, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{1.0, 0.0, 0.0};
                   });
    std::vector<double> u = dg.interpolate([](const std::array<double, 3>& x) {
      return std::exp(-30.0 * ((x[0] - 0.5) * (x[0] - 0.5) +
                               (x[1] - 0.5) * (x[1] - 0.5)));
    });
    const double m0 = dg.integral(c, u);
    const double dt = dg.stable_dt(c, 0.0);
    double t = 0.0;
    double umax0 = 0.0;
    for (double v : u) umax0 = std::max(umax0, std::abs(v));
    umax0 = c.allreduce_max(umax0);
    for (int s = 0; s < 20; ++s) {
      dg.step(c, u, t, dt);
      t += dt;
    }
    double umax = 0.0;
    for (double v : u) umax = std::max(umax, std::abs(v));
    umax = c.allreduce_max(umax);
    EXPECT_LT(umax, 1.5 * umax0);  // stable
    EXPECT_NEAR(dg.integral(c, u), m0, 0.02 * std::abs(m0) + 1e-6);
  });
}

TEST_P(DgRanks, CubedSphereSolidBodyRotationIsStable) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f =
        Forest::new_uniform(c, Connectivity::cubed_sphere_shell(), 1);
    DgAdvection dg(c, f, 3,
                   dg::shell_geometry(f.connectivity(), 0.55, 1.0),
                   [](const std::array<double, 3>& x, double) {
                     return dg::solid_body_rotation(x, 1.0);
                   });
    std::vector<double> u = dg.interpolate([](const std::array<double, 3>& x) {
      const double dx = x[0] - 0.8, dy = x[1], dz = x[2];
      return std::exp(-20.0 * (dx * dx + dy * dy + dz * dz));
    });
    const double m0 = dg.integral(c, u);
    const double dt = dg.stable_dt(c, 0.0);
    double t = 0.0;
    for (int s = 0; s < 10; ++s) {
      dg.step(c, u, t, dt);
      t += dt;
    }
    double umax = 0.0;
    for (double v : u) umax = std::max(umax, std::abs(v));
    EXPECT_LT(c.allreduce_max(umax), 2.0);
    EXPECT_NEAR(dg.integral(c, u), m0, 0.05 * std::abs(m0) + 1e-6);
  });
}

TEST_P(DgRanks, AdaptivityTransferPreservesPolynomials) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 1);
    const int p = 3;
    DgAdvection dg(c, f, p, dg::brick_geometry(f.connectivity()),
                   [](const std::array<double, 3>&, double) {
                     return std::array<double, 3>{1, 0, 0};
                   });
    // A degree-3 polynomial is represented exactly at order 3 and must
    // survive refine + coarsen exactly.
    const auto poly = [](const std::array<double, 3>& x) {
      return x[0] * x[0] * x[0] - 2.0 * x[1] * x[1] + x[2] + 0.3 * x[0] * x[1] * x[2];
    };
    std::vector<double> u = dg.interpolate(poly);
    const std::vector<octree::Octant> leaves0 = f.tree().leaves();
    std::vector<std::int8_t> flags(leaves0.size(), 1);
    f.tree().adapt(flags, 0, 6);
    auto corr = octree::compute_correspondence(leaves0, f.tree().leaves());
    std::vector<double> u1 = dg::dg_interpolate_element_values(
        p, leaves0, f.tree().leaves(), corr, u);
    // Verify against analytic values on the refined forest.
    DgAdvection dg1(c, f, p, dg::brick_geometry(f.connectivity()),
                    [](const std::array<double, 3>&, double) {
                      return std::array<double, 3>{1, 0, 0};
                    });
    const std::vector<double> exact = dg1.interpolate(poly);
    for (std::size_t i = 0; i < u1.size(); ++i)
      EXPECT_NEAR(u1[i], exact[i], 1e-11);
    // Coarsen back.
    const std::vector<octree::Octant> leaves1 = f.tree().leaves();
    std::vector<std::int8_t> cf(leaves1.size(), -1);
    f.tree().adapt(cf, 0, 6);
    auto corr2 = octree::compute_correspondence(leaves1, f.tree().leaves());
    std::vector<double> u2 = dg::dg_interpolate_element_values(
        p, leaves1, f.tree().leaves(), corr2, u1);
    for (std::size_t i = 0; i < u.size(); ++i) EXPECT_NEAR(u2[i], u[i], 1e-11);
  });
}

TEST_P(DgRanks, MatrixAndTensorKernelsGiveSameRhs) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(
        c, Connectivity::brick(1, 1, 1, true, true, true), 1);
    const auto vel = [](const std::array<double, 3>&, double) {
      return std::array<double, 3>{0.8, -0.3, 0.1};
    };
    DgAdvection tensor(c, f, 3, dg::brick_geometry(f.connectivity()), vel,
                       /*use_matrix_kernel=*/false);
    DgAdvection matrix(c, f, 3, dg::brick_geometry(f.connectivity()), vel,
                       /*use_matrix_kernel=*/true);
    const auto field = [](const std::array<double, 3>& x) {
      return std::sin(2 * M_PI * x[0]) * std::cos(2 * M_PI * x[1]) + x[2];
    };
    std::vector<double> u = tensor.interpolate(field);
    std::vector<double> rt(u.size()), rm(u.size());
    tensor.rhs(c, u, 0.0, rt);
    matrix.rhs(c, u, 0.0, rm);
    for (std::size_t i = 0; i < u.size(); ++i)
      EXPECT_NEAR(rt[i], rm[i], 1e-9);
    // The flop accounting reflects the 6(p+1)^6 vs 6(p+1)^4 difference.
    EXPECT_GT(matrix.kernel_flops(), 10 * tensor.kernel_flops());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DgRanks, ::testing::Values(1, 2));

}  // namespace
