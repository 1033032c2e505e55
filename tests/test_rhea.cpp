// End-to-end tests for the RHEA simulation driver (src/rhea).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "octree/balance.hpp"
#include "rhea/simulation.hpp"
#include "par/runtime.hpp"
#include "telemetry_guard.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using par::Comm;
using rhea::SimConfig;
using rhea::Simulation;

double front_t0(const std::array<double, 3>& p) {
  const double dx = p[0] - 0.35, dy = p[1] - 0.5, dz = p[2] - 0.5;
  return std::exp(-60.0 * (dx * dx + dy * dy + dz * dz));
}

SimConfig advection_config() {
  SimConfig cfg;
  cfg.init_level = 3;
  cfg.min_level = 2;
  cfg.max_level = 5;
  cfg.initial_adapt_rounds = 2;
  cfg.adapt_every = 4;
  cfg.energy.kappa = 1e-6;
  cfg.energy.dirichlet_faces = 0b111111;
  cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
    return std::array<double, 3>{1.0, 0.0, 0.0};
  };
  return cfg;
}

class RheaRanks : public ::testing::TestWithParam<int> {};

TEST_P(RheaRanks, AdvectionRunAdaptsAndHoldsElementCount) {
  alps::par::run(GetParam(), [](Comm& c) {
    SimConfig cfg = advection_config();
    Simulation sim(c, cfg);
    sim.initialize(front_t0);
    const std::int64_t n0 = sim.global_elements();
    cfg.target_elements = n0;
    sim.run(12);  // 3 adaptation cycles at adapt_every = 4
    EXPECT_GE(sim.adapt_history().size(), 2u);
    // MARKELEMENTS holds the total roughly constant (Fig. 5 behaviour).
    for (const auto& st : sim.adapt_history()) {
      EXPECT_GT(st.total_elements, n0 / 4);
      EXPECT_LT(st.total_elements, n0 * 4);
      EXPECT_EQ(st.refined * 0 + st.unchanged + st.refined + st.coarsened,
                st.unchanged + st.refined + st.coarsened);  // tautology guard
      EXPECT_GE(st.refined, 0);
    }
    // Mesh stays balanced and complete through the cycles.
    EXPECT_TRUE(sim.forest().is_balanced(c));
    EXPECT_TRUE(octree::LinearOctree::globally_complete(
        c, const_cast<Simulation&>(sim).forest().tree()));
  });
}

TEST_P(RheaRanks, RefinementFollowsTheMovingFront) {
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    sim.run(12);
    // The fine elements should cluster near the (advected) blob; its
    // center moved right from x = 0.35 by roughly the elapsed time.
    const double cx = 0.35 + sim.time();
    double fine_near = 0, fine_far = 0;
    const auto& conn = sim.forest().connectivity();
    for (const auto& o : sim.forest().tree().leaves()) {
      if (o.level < 5) continue;
      const auto h = octree::octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      (std::abs(p[0] - cx) < 0.25 ? fine_near : fine_far) += 1;
    }
    fine_near = c.allreduce_sum(fine_near);
    fine_far = c.allreduce_sum(fine_far);
    if (fine_near + fine_far > 0) {
      EXPECT_GT(fine_near, fine_far);
    }
  });
}

TEST_P(RheaRanks, TimersArePopulated) {
#ifdef ALPS_OBS_DISABLE
  GTEST_SKIP() << "phase spans are compiled out";
#endif
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    sim.run(8);
    const rhea::PhaseTimers& t = sim.timers();
    EXPECT_GT(t.time_integration, 0.0);
    EXPECT_GT(t.mark_elements, 0.0);
    EXPECT_GT(t.balance, 0.0);
    EXPECT_GT(t.extract_mesh, 0.0);
    EXPECT_GE(t.amr_total(), t.balance);
  });
}

TEST_P(RheaRanks, AdaptationStatsAreConsistent) {
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    sim.run(4);  // energy steps only: the first adaptation is due at step 4
    ASSERT_TRUE(sim.adapt_history().empty());
    const std::int64_t before = sim.global_elements();

    // Every rank has finished the allreduce above before any rank reads
    // the shared counter, and no rank starts adapt_once before all have
    // read it (and likewise around the second read).
    const std::uint64_t a0 = c.stats().allreduce_calls.load();
    c.barrier();
    sim.adapt_once();
    c.barrier();
    const std::uint64_t a1 = c.stats().allreduce_calls.load();
    c.barrier();
    // allreduce_calls counts every rank: rounds = delta / P. The measured
    // count: marking, balance, partition, ghost layer and extraction issue
    // their own, and the Fig. 5 statistics add two (one counter array, one
    // level histogram).
    EXPECT_EQ((a1 - a0) / static_cast<std::uint64_t>(c.size()), 13u);

    ASSERT_EQ(sim.adapt_history().size(), 1u);
    const auto& st = sim.adapt_history().front();
    // Old elements partition into refined/coarsened/unchanged.
    EXPECT_EQ(st.refined + st.coarsened + st.unchanged, before);
    // New totals: unchanged + 8*refined + coarsened/8 + balance_added.
    EXPECT_EQ(st.total_elements,
              st.unchanged + 8 * st.refined + st.coarsened / 8 +
                  st.balance_added);
    // Level histogram sums to the total.
    std::int64_t sum = 0;
    for (auto v : st.per_level) sum += v;
    EXPECT_EQ(sum, st.total_elements);
  });
}

/// Allreduce + allgather rounds of one non-adapting step, after a first
/// step that builds the energy operator.
std::uint64_t step_rounds(int ranks, bool sentinels) {
  std::uint64_t rounds = 0;
  alps::par::run(ranks, [&](Comm& c) {
    SimConfig cfg = advection_config();
    cfg.sentinels = sentinels;
    Simulation sim(c, cfg);
    sim.initialize(front_t0);
    sim.run(1);
    const auto collectives = [&c] {
      const par::CommStats s = par::snapshot(c.stats());
      return s.allreduce_calls + s.allgather_calls;
    };
    c.barrier();
    const std::uint64_t n0 = collectives();
    c.barrier();
    sim.run(1);  // non-adapting: the first adaptation is due at step 4
    c.barrier();
    const std::uint64_t n1 = collectives();
    c.barrier();
    EXPECT_TRUE(sim.adapt_history().empty());
    // The counters sum over ranks: rounds = delta / P.
    if (c.rank() == 0)
      rounds = (n1 - n0) / static_cast<std::uint64_t>(c.size());
  });
  return rounds;
}

TEST_P(RheaRanks, TelemetryStepCollectives) {
  // The stable time step's allreduce, plus one step exchange whenever a
  // consumer needs it: telemetry, memory, level histogram, V-cycles,
  // diagnostics and the sentinel flag all ride the same allgatherv.
  {
    const test::TelemetryOn telemetry("rhea_collectives.jsonl");
    EXPECT_EQ(step_rounds(GetParam(), true), 2u) << "telemetry on";
  }
  EXPECT_EQ(step_rounds(GetParam(), true), 2u) << "default pillars";
  obs::set_mem_enabled(false);
  obs::set_analysis_enabled(false);
  EXPECT_EQ(step_rounds(GetParam(), true), 2u) << "sentinels only";
  EXPECT_EQ(step_rounds(GetParam(), false), 1u) << "exchange skipped";
  obs::set_mem_enabled(true);
  obs::set_analysis_enabled(true);
}

TEST_P(RheaRanks, SentinelTripsWithEveryPillarOff) {
  // With memory, telemetry and analysis off the non-finite flag still
  // rides the step exchange, and every rank throws.
  const std::string dump_dir =
      (std::filesystem::path(::testing::TempDir()) / "rhea_sentinel_dump")
          .string();
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_mem_enabled(false);
  obs::set_analysis_enabled(false);
  std::atomic<int> thrown{0};
  EXPECT_THROW(alps::par::run(GetParam(),
                              [&thrown](Comm& c) {
                                SimConfig cfg = advection_config();
                                cfg.nan_inject_step = 2;
                                Simulation sim(c, cfg);
                                sim.initialize(front_t0);
                                try {
                                  sim.run(3);  // must die at step 2
                                } catch (const rhea::SentinelError&) {
                                  ++thrown;
                                  throw;
                                }
                              }),
               rhea::SentinelError);
  EXPECT_EQ(thrown.load(), GetParam());
  obs::set_mem_enabled(true);
  obs::set_analysis_enabled(true);
  unsetenv("ALPS_DUMP_DIR");
  std::filesystem::remove_all(dump_dir);
}

TEST_P(RheaRanks, SmallMantleConvectionRunsStably) {
  alps::par::run(GetParam(), [](Comm& c) {
    SimConfig cfg;
    cfg.init_level = 2;
    cfg.min_level = 2;
    cfg.max_level = 4;
    cfg.initial_adapt_rounds = 1;
    cfg.adapt_every = 3;
    cfg.energy.kappa = 1.0;
    cfg.picard.rayleigh = 1e4;
    cfg.picard.max_iterations = 2;
    cfg.picard.stokes.krylov.max_iterations = 200;
    cfg.picard.stokes.krylov.rtol = 1e-6;
    rhea::YieldingLawOptions yopt;
    cfg.law = rhea::three_layer_yielding(yopt);
    Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      return (1.0 - p[2]) + 0.1 * std::cos(M_PI * p[0]) * std::sin(M_PI * p[2]);
    });
    sim.run(4);
    // Convection started: nonzero velocity somewhere.
    double vmax = 0;
    for (std::int64_t d = 0; d < sim.mesh().n_owned; ++d)
      for (int cc = 0; cc < 3; ++cc)
        vmax = std::max(vmax, std::abs(sim.solution()[static_cast<std::size_t>(
                                  d * 4 + cc)]));
    EXPECT_GT(c.allreduce_max(vmax), 1e-2);
    // Temperature remains bounded (no blow-up).
    double tmax = 0;
    for (double v : sim.temperature()) tmax = std::max(tmax, std::abs(v));
    EXPECT_LT(c.allreduce_max(tmax), 2.0);
#ifndef ALPS_OBS_DISABLE  // phase spans are compiled out
    EXPECT_GT(sim.timers().minres + sim.timers().amg_apply, 0.0);
#endif
  });
}

TEST_P(RheaRanks, GoalOrientedAdaptationTracksGoalRegion) {
  alps::par::run(GetParam(), [](Comm& c) {
    // With an adjoint goal at the right wall and flow in +x, refinement
    // should end up biased toward the right (upstream-of-goal) half even
    // though the temperature front starts on the left.
    SimConfig cfg = advection_config();
    cfg.goal_region = [](const std::array<double, 3>& p) {
      return p[0] > 0.8 ? 1.0 : 0.0;
    };
    cfg.adjoint_pseudo_steps = 8;
    Simulation sim(c, cfg);
    sim.initialize(front_t0);
    sim.run(10);
    ASSERT_GE(sim.adapt_history().size(), 1u);
    double left = 0, right = 0;
    const auto& conn = sim.forest().connectivity();
    for (const auto& o : sim.forest().tree().leaves()) {
      if (o.level < 4) continue;
      const auto h = octree::octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      (p[0] < 0.5 ? left : right) += 1;
    }
    left = c.allreduce_sum(left);
    right = c.allreduce_sum(right);
    EXPECT_GT(right, left);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RheaRanks, ::testing::Values(1, 2));

}  // namespace
