// Memory observability (DESIGN.md §12): the obs::mem scope registry
// (set/add, RAII transients, per-rank slots and merge), HWM phase
// attribution, the RSS sampler's clean unavailable fallback, the
// analyze_step memory aggregation, and the rhea drift detector's
// injection hook tripping the flight recorder with the leaking rank
// named in the bundle.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"
#include "telemetry_guard.hpp"

namespace {

using namespace alps;

/// Restore every obs::mem switch after each test.
class MemRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_mem_enabled(true);
    obs::set_rss_unavailable_for_testing(false);
    test::reset_telemetry();
    obs::set_enabled(false);
  }

  std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

using MemHwmTest = MemRegistryTest;
using MemRssTest = MemRegistryTest;
using MemAnalysisTest = MemRegistryTest;
using MemDriftTest = MemRegistryTest;

}  // namespace

// ---- scope registry ----------------------------------------------------

TEST_F(MemRegistryTest, SetAddAndClampOnOneRank) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId id = obs::mem_scope("test.setadd");
  EXPECT_EQ(obs::mem_scope("test.setadd"), id);  // interning is stable
  par::run(1, [&](par::Comm&) {
    obs::mem_set(id, 1000);
    EXPECT_EQ(obs::mem_bytes(0, id), 1000u);
    obs::mem_add(id, 500);
    EXPECT_EQ(obs::mem_bytes(0, id), 1500u);
    obs::mem_add(id, -5000);  // clamped at zero, never wraps
    EXPECT_EQ(obs::mem_bytes(0, id), 0u);
    obs::mem_set(id, 64);
  });
  EXPECT_EQ(obs::mem_bytes(0, id), 64u);  // readable after the join
  EXPECT_GE(obs::mem_accounted(0), 64u);
}

TEST_F(MemRegistryTest, SetIsNoOpOnUnboundThread) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId id = obs::mem_scope("test.unbound");
  par::run(1, [&](par::Comm&) { obs::mem_set(id, 11); });
  // This thread is not a rank thread: writes must not land anywhere.
  obs::mem_set(id, 999);
  obs::mem_add(id, 999);
  EXPECT_EQ(obs::mem_bytes(0, id), 11u);
}

TEST_F(MemRegistryTest, RaiiScopeTagsTransientAllocations) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId id = obs::mem_scope("test.workspace");
  par::run(1, [&](par::Comm&) {
    EXPECT_EQ(obs::mem_bytes(0, id), 0u);
    {
      OBS_MEM_SCOPE("test.workspace", 4096);
      EXPECT_EQ(obs::mem_bytes(0, id), 4096u);
      {
        OBS_MEM_SCOPE("test.workspace", 1024);  // nesting accumulates
        EXPECT_EQ(obs::mem_bytes(0, id), 5120u);
      }
      EXPECT_EQ(obs::mem_bytes(0, id), 4096u);
    }
    EXPECT_EQ(obs::mem_bytes(0, id), 0u);  // fully unwound
  });
}

TEST_F(MemRegistryTest, VecBytesTracksCapacity) {
  std::vector<double> v;
  EXPECT_EQ(obs::vec_bytes(v), 0u);
  v.reserve(100);
  EXPECT_EQ(obs::vec_bytes(v), v.capacity() * sizeof(double));
  EXPECT_GE(obs::vec_bytes(v), 100u * sizeof(double));
}

TEST_F(MemRegistryTest, RankSlotsMergeAcrossFourRanks) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId id = obs::mem_scope("test.merge");
  par::run(4, [&](par::Comm& c) {
    obs::mem_set(id, static_cast<std::uint64_t>(c.rank() + 1) * 1000);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(obs::mem_bytes(r, id),
              static_cast<std::uint64_t>(r + 1) * 1000);
  bool found = false;
  for (const auto& [name, bytes] : obs::aggregate_mem()) {
    if (name != "test.merge") continue;
    EXPECT_EQ(bytes, 10000u);  // 1000 + 2000 + 3000 + 4000
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MemRegistryTest, SlotsResetAtWorldBegin) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId id = obs::mem_scope("test.reset");
  par::run(2, [&](par::Comm&) { obs::mem_set(id, 777); });
  EXPECT_EQ(obs::mem_bytes(0, id), 777u);
  par::run(2, [&](par::Comm& c) {
    // A fresh world starts from a clean slate — no stale carry-over.
    EXPECT_EQ(obs::mem_bytes(c.rank(), id), 0u);
  });
}

TEST_F(MemRegistryTest, DisabledRegistryIgnoresWrites) {
  obs::set_mem_enabled(false);
  const obs::MemScopeId id = obs::mem_scope("test.disabled");
  par::run(1, [&](par::Comm&) {
    obs::mem_set(id, 123);
    obs::mem_add(id, 456);
  });
  EXPECT_EQ(obs::mem_bytes(0, id), 0u);
}

// ---- high-water marks --------------------------------------------------

TEST_F(MemHwmTest, HwmAttributesPeakToInnermostPhase) {
  obs::set_mem_enabled(true);
  obs::set_enabled(true);  // phases need the trace ring
  const obs::MemScopeId id = obs::mem_scope("test.hwmphase");
  par::run(1, [&](par::Comm&) {
    obs::mem_set(id, 100);
    {
      OBS_PHASE_SPAN("test.spike");
      obs::mem_set(id, 1u << 20);  // the peak happens inside the phase
    }
    obs::mem_set(id, 100);  // dropping back does not lower the HWM
  });
  const obs::MemHwm hwm = obs::mem_hwm(0);
  EXPECT_GE(hwm.bytes, 1u << 20);
  ASSERT_NE(hwm.phase, nullptr);
  EXPECT_STREQ(hwm.phase, "test.spike");
}

// ---- RSS sampling ------------------------------------------------------

TEST_F(MemRssTest, ForcedUnavailableDegradesCleanly) {
  obs::set_rss_unavailable_for_testing(true);
  const obs::RssSample s = obs::sample_rss();
  EXPECT_FALSE(s.available);
  EXPECT_EQ(s.rss_bytes, 0u);  // no fabricated numbers
  EXPECT_EQ(s.hwm_bytes, 0u);
}

TEST_F(MemRssTest, LinuxSampleIsOrderedWhenAvailable) {
  const obs::RssSample s = obs::sample_rss();
  if (!s.available) GTEST_SKIP() << "/proc not readable here";
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GE(s.hwm_bytes, s.rss_bytes);  // lifetime peak >= current
}

// ---- cross-rank aggregation --------------------------------------------

TEST_F(MemAnalysisTest, AnalyzeMemoryGathersRankStats) {
  obs::set_mem_enabled(true);
  const obs::MemScopeId a = obs::mem_scope("alpha.main");
  const obs::MemScopeId b = obs::mem_scope("beta.detail");
  obs::analysis::MemRecord rec;
  par::run(4, [&](par::Comm& c) {
    obs::mem_set(a, static_cast<std::uint64_t>(c.rank() + 1) * 100);
    obs::mem_set(b, 50);
    const obs::analysis::StepRecord r = obs::analysis::analyze_step(
        c, 7, {.timing = false, .sum = {}, .max = {}});
    if (c.rank() == 0) rec = r.mem;
    // The record is identical on every rank (drift decisions are made
    // from it without further communication).
    EXPECT_EQ(r.step, 7);
    EXPECT_EQ(r.mem.acc_total, 1000u + 200u);
    EXPECT_EQ(r.mem.acc_argmax, 3);
  });
  EXPECT_TRUE(rec.enabled);
  EXPECT_EQ(rec.ranks, 4);
  EXPECT_EQ(rec.acc_min, 150u);   // rank 0: 100 + 50
  EXPECT_EQ(rec.acc_max, 450u);   // rank 3: 400 + 50
  EXPECT_EQ(rec.acc_total, 1200u);
  EXPECT_DOUBLE_EQ(rec.acc_mean, 300.0);
  EXPECT_GE(rec.acc_imbalance, 1.0);
  ASSERT_EQ(rec.acc_by_rank.size(), 4u);
  EXPECT_EQ(rec.acc_by_rank[0], 150u);
  EXPECT_EQ(rec.acc_by_rank[3], 450u);
  EXPECT_GE(rec.acc_hwm_max, rec.acc_max);
  // Scope stats: "alpha.main" summed over ranks with the argmax rank.
  bool found_alpha = false;
  for (const auto& s : rec.scopes) {
    if (s.scope != "alpha.main") continue;
    EXPECT_EQ(s.total, 1000u);
    EXPECT_EQ(s.max, 400u);
    EXPECT_EQ(s.argmax, 3);
    found_alpha = true;
  }
  EXPECT_TRUE(found_alpha);
  // Subsystem grouping by the prefix before '.'.
  ASSERT_EQ(rec.subsystems.size(), 2u);
  EXPECT_EQ(rec.subsystems[0].scope, "alpha");
  EXPECT_EQ(rec.subsystems[1].scope, "beta");
  EXPECT_EQ(rec.subsystems[1].total, 200u);
}

TEST_F(MemAnalysisTest, DisabledAnalyzeReturnsInertRecord) {
  obs::set_mem_enabled(false);
  par::run(2, [&](par::Comm& c) {
    const obs::analysis::StepRecord r = obs::analysis::analyze_step(
        c, 1, {.timing = false, .sum = {}, .max = {}});
    EXPECT_FALSE(r.mem.enabled);
  });
}

TEST_F(MemAnalysisTest, MemoryJsonEmitsBlockAndCleanRssFallback) {
  obs::set_mem_enabled(true);
  obs::set_rss_unavailable_for_testing(true);
  obs::analysis::MemRecord rec;
  par::run(2, [&](par::Comm& c) {
    obs::mem_set(obs::mem_scope("gamma.data"), 1 << 10);
    const obs::analysis::StepRecord r = obs::analysis::analyze_step(
        c, 3, {.timing = false, .sum = {}, .max = {}});
    if (c.rank() == 0) rec = r.mem;
  });
  EXPECT_FALSE(rec.rss_available);
  const std::string json =
      obs::analysis::memory_json(rec, /*dofs=*/512, "{\"warn\":false}");
  EXPECT_NE(json.find("\"accounted\""), std::string::npos);
  EXPECT_NE(json.find("\"gamma\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\":{\"warn\":false}"), std::string::npos);
  // Unavailable RSS is exactly {"available":false} — no fabricated zeros.
  const std::size_t rss_pos = json.find("\"rss\":{");
  ASSERT_NE(rss_pos, std::string::npos);
  const std::size_t rss_end = json.find('}', rss_pos);
  const std::string rss_obj = json.substr(rss_pos, rss_end - rss_pos + 1);
  EXPECT_NE(rss_obj.find("\"available\":false"), std::string::npos);
  EXPECT_EQ(rss_obj.find("bytes"), std::string::npos);
}

// ---- drift detector ----------------------------------------------------

TEST_F(MemDriftTest, InjectTripsPanicAndNamesLeakingRank) {
  const std::string dump_dir = temp_path("alps_mem_drift_dump");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_mem_enabled(true);

  auto run = [] {
    par::run(2, [](par::Comm& c) {
      rhea::SimConfig cfg;
      cfg.init_level = 2;
      cfg.min_level = 1;
      cfg.max_level = 3;
      cfg.initial_adapt_rounds = 0;
      cfg.adapt_every = 0;  // non-adapting: the window never resets
      cfg.energy.kappa = 1e-6;
      cfg.energy.dirichlet_faces = 0b111111;
      cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
        return std::array<double, 3>{1.0, 0.0, 0.0};
      };
      cfg.mem_drift_window = 3;
      cfg.mem_drift_panic_bytes_per_step = 1e6;
      cfg.mem_drift_inject_rank = 1;  // rank 1 "leaks" 2 MB per step
      cfg.mem_drift_inject_bytes = 2'000'000;
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& p) {
        return p[0] * (1.0 - p[0]);
      });
      sim.run(8);  // must die once the window fills at step 3
    });
  };
  EXPECT_THROW(run(), rhea::SentinelError);
  unsetenv("ALPS_DUMP_DIR");

  // The bundle names the leaking rank and carries the memory snapshot.
  std::ifstream reason(std::filesystem::path(dump_dir) / "reason.txt");
  std::stringstream ss;
  ss << reason.rdbuf();
  EXPECT_NE(ss.str().find("memory drift"), std::string::npos);
  EXPECT_NE(ss.str().find("rank 1"), std::string::npos);
  std::ifstream mem(std::filesystem::path(dump_dir) / "memory.json");
  ASSERT_TRUE(mem.good());
  std::stringstream ms;
  ms << mem.rdbuf();
  EXPECT_NE(ms.str().find("by_rank"), std::string::npos);
  std::filesystem::remove_all(dump_dir);
}

TEST_F(MemDriftTest, SteadyFootprintDoesNotTrip) {
  const std::string dump_dir = temp_path("alps_mem_steady_dump");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_mem_enabled(true);

  par::run(2, [](par::Comm& c) {
    rhea::SimConfig cfg;
    cfg.init_level = 2;
    cfg.min_level = 1;
    cfg.max_level = 3;
    cfg.initial_adapt_rounds = 0;
    cfg.adapt_every = 0;
    cfg.energy.kappa = 1e-6;
    cfg.energy.dirichlet_faces = 0b111111;
    cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
      return std::array<double, 3>{1.0, 0.0, 0.0};
    };
    cfg.mem_drift_window = 3;
    cfg.mem_drift_panic_bytes_per_step = 1e6;  // same threshold, no inject
    rhea::Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      return p[0] * (1.0 - p[0]);
    });
    sim.run(6);  // a steady footprint must survive the whole run
  });
  unsetenv("ALPS_DUMP_DIR");
  EXPECT_FALSE(std::filesystem::exists(dump_dir));
}
