// Tests for the variable-viscosity stabilized Stokes solver (src/stokes)
// and its matrix-free saddle operator (src/fem/stokes_operator), which
// must match the operator assembled from hex8's element blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"
#include "rhea/viscosity.hpp"
#include "stokes/picard.hpp"
#include "par/runtime.hpp"
#include "saddle_reference.hpp"
#include "test_meshes.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using mesh::extract_mesh;
using mesh::Mesh;
using par::Comm;
using stokes::StokesOptions;
using stokes::StokesSolver;

std::vector<double> constant_eta(const Mesh& m, double eta) {
  return std::vector<double>(m.elements.size() * 8, eta);
}

// Viscosity varying by about three orders of magnitude across the domain.
double eta_at(const std::array<double, 3>& x) {
  return std::exp(3.0 * std::sin(2.0 * x[0] + x[1]) * std::cos(1.5 * x[2]));
}

// eta_at at every quadrature point (ne * 8).
std::vector<double> varying_eta(const Mesh& m, const Connectivity& conn) {
  std::vector<double> eta(m.elements.size() * 8);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    for (std::size_t q = 0; q < 8; ++q) eta[8 * e + q] = eta_at(mq.xq[q]);
  }
  return eta;
}

// Deterministic ghost-consistent velocity + pressure keyed on the gid.
std::vector<double> gid_field(const Mesh& m) {
  std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4);
  for (std::size_t d = 0; d < static_cast<std::size_t>(m.n_local); ++d)
    for (std::size_t c = 0; c < 4; ++c)
      x[d * 4 + c] =
          std::sin(0.37 * static_cast<double>(m.dof_gids[d]) + 0.7 * c);
  return x;
}

// Global max |a - b| / max |b| over every local value.
double relative_difference(Comm& c, const std::vector<double>& a,
                           const std::vector<double>& b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return c.allreduce_max(diff) / c.allreduce_max(scale);
}

// Hot blob at the bottom center: buoyant rise test.
double blob_t(const std::array<double, 3>& p) {
  const double dx = p[0] - 0.5, dy = p[1] - 0.5, dz = p[2] - 0.25;
  return std::exp(-40.0 * (dx * dx + dy * dy + dz * dz));
}

class StokesRanks : public ::testing::TestWithParam<int> {};

TEST_P(StokesRanks, ZeroBuoyancyGivesZeroFlow) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    StokesOptions opt;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    std::vector<double> rhs(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    for (double v : x) EXPECT_NEAR(v, 0.0, 1e-10);
  });
}

TEST_P(StokesRanks, HotBlobRises) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.max_iterations = 300;
    opt.krylov.rtol = 1e-8;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    // Vertical velocity above the blob must be positive (upwelling).
    double w_at_center = 0.0;
    bool found = false;
    for (std::int64_t d = 0; d < m.n_owned; ++d) {
      const auto& p = m.dof_coords[static_cast<std::size_t>(d)];
      if (std::abs(p[0] - 0.5) < 1e-9 && std::abs(p[1] - 0.5) < 1e-9 &&
          std::abs(p[2] - 0.5) < 1e-9) {
        w_at_center = x[static_cast<std::size_t>(d) * 4 + 2];
        found = true;
      }
    }
    const int who = c.allreduce_max(found ? c.rank() : -1);
    ASSERT_GE(who, 0);
    // Broadcast via allreduce (only one rank owns the node).
    w_at_center = c.allreduce_sum(found ? w_at_center : 0.0);
    EXPECT_GT(w_at_center, 1.0);
  });
}

TEST_P(StokesRanks, SolutionIsNearlyDivergenceFree) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.rtol = 1e-10;
    opt.krylov.max_iterations = 400;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    ASSERT_TRUE(solver.solve(c, rhs, x).converged);
    // The discrete divergence of u integrated against each pressure test
    // function equals the (small) stabilization term C p: scale-check it
    // against the velocity magnitude.
    std::vector<double> ax(x.size());
    solver.op().apply(c, x, ax);
    double div2 = 0.0, vel2 = 0.0;
    for (std::int64_t d = 0; d < m.n_owned; ++d) {
      const double pres_res = ax[static_cast<std::size_t>(d) * 4 + 3] -
                              rhs[static_cast<std::size_t>(d) * 4 + 3];
      div2 += pres_res * pres_res;
      for (int cc = 0; cc < 3; ++cc)
        vel2 += x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)] *
                x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)];
    }
    div2 = c.allreduce_sum(div2);
    vel2 = c.allreduce_sum(vel2);
    EXPECT_LT(std::sqrt(div2), 1e-6 * std::sqrt(vel2) + 1e-8);
  });
}

TEST_P(StokesRanks, FreeSlipConstrainsNormalVelocity) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    solver.solve(c, rhs, x);
    for (std::int64_t d = 0; d < m.n_local; ++d) {
      const std::uint8_t mask = m.dof_boundary[static_cast<std::size_t>(d)];
      for (int cc = 0; cc < 3; ++cc)
        if (mask & (0b11u << (2 * cc))) {
          EXPECT_NEAR(
              x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)],
              0.0, 1e-12);
        }
    }
  });
}

TEST_P(StokesRanks, MinresIterationsBoundedUnderViscosityContrast) {
  alps::par::run(GetParam(), [](Comm& c) {
    // 10^4 viscosity jump: the block preconditioner should keep MINRES
    // iteration counts modest (this is the Fig. 2 claim in miniature).
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    std::vector<double> eta(m.elements.size() * 8);
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      const auto xyz = m.element_corners_xyz(f.connectivity(),
                                             static_cast<std::int64_t>(e));
      const double z = xyz[0][2];
      for (int q = 0; q < 8; ++q)
        eta[8 * e + static_cast<std::size_t>(q)] = z > 0.5 ? 1e4 : 1.0;
    }
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.rtol = 1e-6;
    opt.krylov.max_iterations = 300;
    StokesSolver solver(c, m, f.connectivity(), eta, opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 150);
  });
}

TEST(StrainRate, LinearShearHasKnownInvariant) {
  alps::par::run(1, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    // u = (z, 0, 0): eps = [[0,0,.5],[0,0,0],[.5,0,0]], edot = 0.5.
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    for (std::int64_t d = 0; d < m.n_local; ++d)
      x[static_cast<std::size_t>(d) * 4] =
          m.dof_coords[static_cast<std::size_t>(d)][2];
    const std::vector<double> edot =
        stokes::strain_rate_invariant(m, f.connectivity(), x);
    for (double e : edot) EXPECT_NEAR(e, 0.5, 1e-12);
  });
}

TEST(Picard, YieldingLawConverges) {
  alps::par::run(1, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    stokes::PicardOptions popt;
    popt.max_iterations = 8;
    popt.tolerance = 1e-2;
    popt.rayleigh = 1e4;
    popt.stokes.krylov.max_iterations = 300;
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 10.0;
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    StokesSolver solver(m, f.connectivity(), popt.stokes);
    stokes::PicardResult r = stokes::solve_nonlinear_stokes(
        c, solver, rhea::three_layer_yielding(yopt), t, x, popt);
    EXPECT_GE(r.iterations, 2);
    EXPECT_LT(r.velocity_change, 1e-2);
  });
}

TEST(Picard, HierarchyCacheReusesSetupAcrossIterationsAndSolves) {
  alps::par::run(2, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    stokes::PicardOptions popt;
    popt.max_iterations = 4;
    popt.tolerance = 1e-12;  // force several iterations
    popt.rayleigh = 1e4;
    popt.stokes.krylov.max_iterations = 300;
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 10.0;
    StokesSolver solver(m, f.connectivity(), popt.stokes);
    // This rank's setup counters: the solver's hierarchies are built once
    // and refreshed numerically by every later update().
    const auto setups = [&c](obs::CounterId id) {
      return static_cast<std::int64_t>(obs::counter_value(c.rank(), id));
    };
    namespace wk = obs::wellknown;
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    stokes::PicardResult r = stokes::solve_nonlinear_stokes(
        c, solver, rhea::three_layer_yielding(yopt), t, x, popt);
    ASSERT_GE(r.iterations, 2);
    EXPECT_EQ(setups(wk::amg_setup_full()), 1);
    EXPECT_EQ(setups(wk::amg_setup_numeric()), r.iterations - 1);

    // A second solve with the same solver reuses the structure too: no
    // new symbolic setup, one more numeric refresh per iteration.
    stokes::PicardResult rb = stokes::solve_nonlinear_stokes(
        c, solver, rhea::three_layer_yielding(yopt), t, x, popt);
    EXPECT_EQ(setups(wk::amg_setup_full()), 1);
    EXPECT_EQ(setups(wk::amg_setup_numeric()),
              r.iterations + rb.iterations - 1);
    EXPECT_EQ(setups(wk::amg_setup_skipped()), 0);
  });
}

TEST(Viscosity, ThreeLayerLawMatchesPaper) {
  rhea::YieldingLawOptions opt;
  opt.sigma_y = 1.0;
  opt.eta_min = 1e-8;
  opt.eta_max = 1e8;
  const auto law = rhea::three_layer_yielding(opt);
  // Lithosphere, cold, slow deformation: 10 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.95}, 0.0, 1e-6), 10.0, 1e-9);
  // Lithosphere under fast deformation: yields to sigma_y / (2 edot).
  EXPECT_NEAR(law({0, 0, 0.95}, 0.0, 100.0), 1.0 / 200.0, 1e-12);
  // Aesthenosphere: 0.8 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.8}, 1.0, 0.0), 0.8 * std::exp(-6.9), 1e-12);
  // Lower mantle: 50 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.5}, 0.5, 0.0), 50.0 * std::exp(-3.45), 1e-9);
  // Four orders of magnitude contrast across temperature at fixed depth.
  EXPECT_GT(law({0, 0, 0.5}, 0.0, 0.0) / law({0, 0, 0.95}, 1.0, 100.0), 1e3);
}

TEST(StokesSolver, VelocityHierarchiesShareOnePoissonOperator) {
  // The solver fills one Poisson operator and resets its Dirichlet mask
  // per velocity component, so each hierarchy's finest matrix must equal,
  // bit for bit, a standalone scalar Laplacian with component c's
  // Dirichlet faces (free slip: the two faces normal to axis c).
  for (const int p : {1, 2})
    alps::par::run(p, [](Comm& c) {
      const Forest f = test::adapted_forest(c, Connectivity::brick(2, 1, 1), 2,
                                            {1.0, 0.5, 0.5}, 0.1);
      const Mesh m = extract_mesh(c, f);
      const Connectivity& conn = f.connectivity();
      const std::vector<double> eta = varying_eta(m, conn);
      for (const fem::VelocityBc bc :
           {fem::VelocityBc::kFreeSlip, fem::VelocityBc::kNoSlip}) {
        StokesOptions opt;
        opt.bc = bc;
        const StokesSolver solver(c, m, conn, eta, opt);
        for (int comp = 0; comp < 3; ++comp) {
          SCOPED_TRACE("P = " + std::to_string(c.size()) + ", " +
                       (bc == fem::VelocityBc::kNoSlip ? "no" : "free") +
                       "-slip, component " + std::to_string(comp));
          const std::uint8_t faces =
              bc == fem::VelocityBc::kNoSlip
                  ? std::uint8_t{0x3f}
                  : static_cast<std::uint8_t>(0b11u << (2 * comp));
          const la::DistCsr want =
              fem::build_scalar_laplace(m, conn, eta_at, faces)
                  .assemble_dist(c);
          const la::DistCsr& got = solver.velocity_amg(comp).finest();
          EXPECT_EQ(got.row_offsets(), want.row_offsets());
          EXPECT_EQ(got.ghost_gids(), want.ghost_gids());
          for (const auto& [g, w] : {std::pair{&got.diag(), &want.diag()},
                                     std::pair{&got.offd(), &want.offd()}}) {
            EXPECT_EQ(g->rowptr(), w->rowptr());
            EXPECT_EQ(g->colidx(), w->colidx());
            EXPECT_EQ(g->values(), w->values());
          }
        }
      }
    });
}

TEST(StokesSolver, UpdateMatchesConstructionOnWarmHierarchies) {
  // update() on a built solver must leave exactly the state a solver
  // constructed with the new viscosity on hierarchies warmed by the old
  // one holds: same saddle operator, same preconditioner (Schur diagonal
  // included, so update() must clear it before accumulating), same
  // refreshed AMG levels, bit for bit.
  for (const int p : {1, 2})
    alps::par::run(p, [](Comm& c) {
      const Forest f = test::adapted_forest(c, Connectivity::brick(2, 1, 1), 2,
                                            {1.0, 0.5, 0.5}, 0.1);
      const Mesh m = extract_mesh(c, f);
      const Connectivity& conn = f.connectivity();
      const std::vector<double> eta1 = varying_eta(m, conn);
      std::vector<double> eta2 = eta1;
      for (std::size_t i = 0; i < eta2.size(); ++i)
        eta2[i] *= 1.0 + 0.5 * std::sin(0.1 * static_cast<double>(i));
      const std::vector<double> x = gid_field(m);
      for (const fem::VelocityBc bc :
           {fem::VelocityBc::kFreeSlip, fem::VelocityBc::kNoSlip}) {
        SCOPED_TRACE("P = " + std::to_string(c.size()) +
                     (bc == fem::VelocityBc::kNoSlip ? ", no-slip"
                                                     : ", free-slip"));
        StokesOptions opt;
        opt.bc = bc;
        StokesSolver updated(c, m, conn, eta1, opt);
        updated.update(c, eta2);
        // A fresh solver per viscosity, on hierarchies another solver
        // built on the same mesh (the external-cache path).
        amg::HierarchyCache cache;
        { const StokesSolver warm(c, m, conn, eta1, opt, &cache); }
        StokesSolver built(c, m, conn, eta2, opt, &cache);

        std::vector<double> y1(x.size()), y2(x.size());
        updated.op().apply(c, x, y1);
        built.op().apply(c, x, y2);
        EXPECT_EQ(y1, y2) << "saddle operator";
        updated.preconditioner(c)(x, y1);
        built.preconditioner(c)(x, y2);
        EXPECT_EQ(y1, y2) << "preconditioner";
        for (int comp = 0; comp < 3; ++comp) {
          const amg::DistAmg& a1 = updated.velocity_amg(comp);
          const amg::DistAmg& a2 = built.velocity_amg(comp);
          ASSERT_EQ(a1.num_grid_levels(), a2.num_grid_levels());
          for (int l = 0; l < a1.num_grid_levels(); ++l) {
            const la::Csr m1 = a1.matrix(l).replicate(c);
            const la::Csr m2 = a2.matrix(l).replicate(c);
            EXPECT_EQ(m1.rowptr(), m2.rowptr());
            EXPECT_EQ(m1.colidx(), m2.colidx());
            EXPECT_EQ(m1.values(), m2.values())
                << "component " << comp << ", level " << l;
          }
        }
      }
    });
}

TEST(StokesOperator, MatchesAssembledSaddleOperator) {
  for (const int p : {1, 2, 4})
    alps::par::run(p, [](Comm& c) {
      struct Case {
        const char* name;
        Forest f;
      };
      Case cases[] = {
          // Refined across the tree interface x = 1 and the rank cuts.
          {"brick", test::adapted_forest(c, Connectivity::brick(2, 1, 1), 2,
                                         {1.0, 0.5, 0.5}, 0.1)},
          {"shell", test::adapted_forest(c, Connectivity::cubed_sphere_shell(),
                                         1, {3.0, 1.0, 1.0}, 1.0)},
      };
      for (const Case& k : cases) {
        const Mesh m = extract_mesh(c, k.f);
        const Connectivity& conn = k.f.connectivity();
        std::int64_t hanging = 0, remote_masters = 0;
        for (const auto& corners : m.corners)
          for (const mesh::Corner& cc : corners) {
            hanging += cc.hanging;
            for (std::size_t j = 0; cc.hanging && j < std::size_t(cc.n); ++j)
              remote_masters += !m.is_owned(cc.dof[j]);
          }
        ASSERT_GT(c.allreduce_sum(hanging), 0);
        if (c.size() > 1 && std::string(k.name) == "brick") {
          ASSERT_GT(c.allreduce_sum(remote_masters), 0);
        }

        const std::vector<double> eta = varying_eta(m, conn);
        const std::vector<double> x = gid_field(m);
        for (const fem::VelocityBc bc :
             {fem::VelocityBc::kFreeSlip, fem::VelocityBc::kNoSlip}) {
          SCOPED_TRACE(std::string(k.name) + ", P = " +
                       std::to_string(c.size()) +
                       (bc == fem::VelocityBc::kNoSlip ? ", no-slip"
                                                       : ", free-slip"));
          const fem::StokesOperator op =
              test::matrix_free_saddle(m, conn, eta, bc);
          const fem::ElementOperator ref =
              test::assembled_saddle(m, conn, eta, bc);
          std::vector<double> y(x.size()), y_ref(x.size());
          op.apply(c, x, y);
          ref.apply(c, x, y_ref);
          EXPECT_LE(relative_difference(c, y, y_ref), 1e-12);
        }
      }
    });
}

TEST(StokesOperator, PicardMinresIterationsMatchAssembledOperator) {
  alps::par::run(2, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    const Connectivity& conn = f.connectivity();
    const std::vector<double> t = fem::interpolate(m, blob_t);
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 10.0;
    const stokes::ViscosityLaw law = rhea::three_layer_yielding(yopt);
    StokesOptions opt;
    opt.krylov.rtol = 1e-6;
    opt.krylov.max_iterations = 300;
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    for (int it = 0; it < 3; ++it) {
      SCOPED_TRACE("Picard iteration " + std::to_string(it));
      const std::vector<double> eta =
          stokes::evaluate_viscosity(m, conn, law, t, x);
      StokesSolver solver(c, m, conn, eta, opt);
      const fem::ElementOperator ref =
          test::assembled_saddle(m, conn, eta, opt.bc);
      const std::vector<double> rhs =
          StokesSolver::buoyancy_rhs(c, m, conn, t, 1e4, 2, opt);
      std::vector<double> x_ref = x;
      const la::SolveResult r =
          la::minres(solver.op().as_linop(c), rhs, x,
                     solver.preconditioner(c), solver.op().as_multi_dot(c),
                     opt.krylov);
      const la::SolveResult r_ref =
          la::minres(ref.as_linop(c), rhs, x_ref, solver.preconditioner(c),
                     ref.as_multi_dot(c), opt.krylov);
      ASSERT_TRUE(r.converged);
      ASSERT_TRUE(r_ref.converged);
      EXPECT_LE(std::abs(r.iterations - r_ref.iterations), 1)
          << r.iterations << " vs " << r_ref.iterations;
      EXPECT_LE(relative_difference(c, x, x_ref), 1e-4);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, StokesRanks, ::testing::Values(1, 2));

}  // namespace
