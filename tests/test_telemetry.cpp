// Telemetry sink, structured Krylov convergence reporting, and the
// failure flight recorder
// (DESIGN.md §8): JSONL record building and round-trip, solver status
// classification (zero RHS, NaN operator, indefinite operator,
// stagnation), residual history rings, and the end-to-end sentinel ->
// panic_dump path through the RHEA driver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "la/csr.hpp"
#include "la/krylov.hpp"
#include "obs/dump.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"
#include "telemetry_guard.hpp"

namespace {

using namespace alps;

/// Restore every telemetry/trace switch after each test.
class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    test::reset_telemetry();
    obs::set_enabled(false);
    obs::set_comm_tracing(false);
  }

  std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

la::Csr laplace_1d(std::int64_t n) {
  std::vector<la::Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return la::Csr::from_triplets(n, n, std::move(t));
}

la::DotFn serial_dot() {
  return [](std::span<const double> a, std::span<const double> b) {
    return la::local_dot(a, b);
  };
}

la::LinOp matrix_op(const la::Csr& m) {
  return [&m](std::span<const double> x, std::span<double> y) {
    m.matvec(x, y);
  };
}

}  // namespace

// ---- record builder ---------------------------------------------------

TEST_F(TelemetryTest, RecordBuildsValidJson) {
  const std::int64_t levels[] = {4, 8, 0};
  obs::TelemetryRecord rec;
  rec.field("step", std::int64_t{3})
      .field("dt", 0.25)
      .field("status", std::string("converged"))
      .field("per_level", std::span<const std::int64_t>(levels, 3));
  EXPECT_EQ(rec.json(),
            "{\"step\": 3, \"dt\": 0.25, \"status\": \"converged\", "
            "\"per_level\": [4, 8, 0]}");
}

TEST_F(TelemetryTest, NonFiniteDoublesBecomeNull) {
  obs::TelemetryRecord rec;
  rec.field("a", std::numeric_limits<double>::quiet_NaN())
      .field("b", std::numeric_limits<double>::infinity())
      .field("c", 1.5);
  EXPECT_EQ(rec.json(), "{\"a\": null, \"b\": null, \"c\": 1.5}");
}

TEST_F(TelemetryTest, TailRecordsEvenWhenFileSinkDisabled) {
  obs::set_telemetry(false);
  const std::uint64_t before = obs::telemetry_records();
  obs::TelemetryRecord rec;
  rec.field("step", 1);
  obs::telemetry_emit(rec);
  EXPECT_EQ(obs::telemetry_records(), before + 1);
  const std::vector<std::string> tail = obs::telemetry_tail();
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.back(), "{\"step\": 1}");
}

TEST_F(TelemetryTest, FileRoundTrip) {
  const std::string path = temp_path("telemetry_roundtrip.jsonl");
  obs::set_telemetry_path(path);
  obs::set_telemetry(true);
  for (int s = 1; s <= 3; ++s) {
    obs::TelemetryRecord rec;
    rec.field("step", s).field("dt", 0.5 * s);
    obs::telemetry_emit(rec);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\": " + std::to_string(count)),
              std::string::npos);
  }
  EXPECT_EQ(count, 3);
}

TEST_F(TelemetryTest, HistoryRegistryIsBoundedPerName) {
  for (int h = 0; h < 7; ++h) {
    const std::vector<double> v = {1.0, 0.5, 0.1 * h};
    obs::record_history("test.hist", v);
  }
  for (const auto& [name, hists] : obs::histories()) {
    if (name != "test.hist") continue;
    EXPECT_EQ(hists.size(), 4u);  // bounded, newest kept
    // FIFO eviction: inserts 0..6 keep exactly 3,4,5,6 in order.
    for (std::size_t h = 0; h < hists.size(); ++h)
      EXPECT_DOUBLE_EQ(hists[h][2], 0.1 * (3.0 + static_cast<double>(h)));
    return;
  }
  FAIL() << "history name not found";
}

// ---- structured Krylov convergence ------------------------------------

TEST_F(TelemetryTest, ZeroRhsSolvesReportConvergedWithNoIterations) {
  la::Csr a = laplace_1d(16);
  const std::vector<double> b(16, 0.0);
  la::KrylovOptions opt;
  opt.history_capacity = 8;
  for (const bool use_cg : {true, false}) {
    std::vector<double> x(16, 0.0);
    const la::SolveResult r =
        use_cg ? la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(),
                        opt)
               : la::minres(matrix_op(a), b, x, la::identity_op(),
                            serial_dot(), opt);
    EXPECT_EQ(r.status, la::SolveStatus::kConverged);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 0);
    EXPECT_TRUE(r.residual_history.empty());
    for (double v : x) EXPECT_EQ(v, 0.0);
  }
}

TEST_F(TelemetryTest, NanOperatorReportsNonFinite) {
  const la::LinOp nan_op = [](std::span<const double>, std::span<double> y) {
    for (double& v : y) v = std::numeric_limits<double>::quiet_NaN();
  };
  const std::vector<double> b(8, 1.0);
  la::KrylovOptions opt;
  for (const bool use_cg : {true, false}) {
    std::vector<double> x(8, 0.0);
    const la::SolveResult r =
        use_cg ? la::cg(nan_op, b, x, la::identity_op(), serial_dot(), opt)
               : la::minres(nan_op, b, x, la::identity_op(), serial_dot(),
                            opt);
    EXPECT_EQ(r.status, la::SolveStatus::kNonFinite);
    EXPECT_FALSE(r.converged);
  }
}

TEST_F(TelemetryTest, CgOnNegativeDefiniteOperatorReportsDiverged) {
  la::Csr a = laplace_1d(16);
  const la::LinOp neg = [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
    for (double& v : y) v = -v;
  };
  const std::vector<double> b(16, 1.0);
  std::vector<double> x(16, 0.0);
  const la::SolveResult r =
      la::cg(neg, b, x, la::identity_op(), serial_dot(), la::KrylovOptions{});
  EXPECT_EQ(r.status, la::SolveStatus::kDiverged);
  EXPECT_FALSE(r.converged);
}

TEST_F(TelemetryTest, UnreachableToleranceReportsStagnation) {
  // Random RHS on a system large enough that round-off keeps the residual
  // from ever reaching exactly zero (smooth RHS on the 1d Laplacian lets
  // CG terminate with an exact zero residual).
  la::Csr a = laplace_1d(400);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> b(400);
  for (double& v : b) v = val(rng);
  std::vector<double> x(400, 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-300;  // unreachable: the solve bottoms out at round-off
  opt.max_iterations = 5000;
  opt.stagnation_window = 25;
  const la::SolveResult r =
      la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(), opt);
  EXPECT_EQ(r.status, la::SolveStatus::kStagnated);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.iterations, opt.stagnation_window);
  EXPECT_LT(r.iterations, opt.max_iterations);  // bailed early, not budget
  EXPECT_LT(r.relative_residual, 1.0);  // it did make progress first
}

TEST_F(TelemetryTest, ResidualHistoryRingKeepsMostRecent) {
  la::Csr a = laplace_1d(64);
  const std::vector<double> b(64, 1.0);
  std::vector<double> x(64, 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-10;
  opt.history_capacity = 5;
  const la::SolveResult r =
      la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.iterations, 5);  // 1d Laplace needs ~n iterations
  ASSERT_EQ(r.residual_history.size(), 5u);
  // Chronological: the last entry is the final residual.
  EXPECT_DOUBLE_EQ(r.residual_history.back(), r.relative_residual);
}

TEST_F(TelemetryTest, StatusTokensAreStable) {
  EXPECT_STREQ(la::to_string(la::SolveStatus::kConverged), "converged");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kMaxIterations),
               "max_iterations");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kStagnated), "stagnated");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kDiverged), "diverged");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kNonFinite), "non_finite");
}

// ---- flight recorder --------------------------------------------------

TEST_F(TelemetryTest, SentinelTripWritesFlightRecorderBundle) {
  const std::string dump_dir = temp_path("alps_dump_test");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_telemetry_path(temp_path("telemetry_nan.jsonl"));
  obs::set_telemetry(true);

  auto run = [] {
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
      cfg.nan_inject_step = 2;
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& p) {
        return p[0] * (1.0 - p[0]);
      });
      sim.run(6);  // must die at step 2
    });
  };
  EXPECT_THROW(run(), rhea::SentinelError);
  unsetenv("ALPS_DUMP_DIR");

  // The bundle exists and has every artifact of the documented layout.
  for (const char* name :
       {"reason.txt", "trace.json", "counters.json", "phases.json",
        "residuals.json", "memory.json", "telemetry_tail.jsonl",
        "snapshot.vtk"}) {
    EXPECT_TRUE(
        std::filesystem::exists(std::filesystem::path(dump_dir) / name))
        << name;
  }
  std::ifstream reason(std::filesystem::path(dump_dir) / "reason.txt");
  std::stringstream ss;
  ss << reason.rdbuf();
  EXPECT_NE(ss.str().find("sentinel"), std::string::npos);
  EXPECT_NE(ss.str().find("step 2"), std::string::npos);
  // Telemetry was on, so the tail carries the pre-crash records.
  std::ifstream tail(std::filesystem::path(dump_dir) /
                     "telemetry_tail.jsonl");
  std::string first_line;
  EXPECT_TRUE(static_cast<bool>(std::getline(tail, first_line)));
  EXPECT_EQ(first_line.front(), '{');
  std::filesystem::remove_all(dump_dir);
}

TEST_F(TelemetryTest, TraceExportReportsDroppedEventsPerRank) {
  const std::size_t old_cap = obs::set_ring_capacity(4);
  obs::set_enabled(true);
  par::run(2, [](par::Comm&) {
    for (int i = 0; i < 32; ++i) OBS_SPAN("overflow.span");
  });
  obs::set_ring_capacity(old_cap);
  EXPECT_GT(obs::dropped(0), 0u);
  const std::string json = obs::chrome_trace_json();
  const std::size_t pos = json.find("\"alpsDropped\": [");
  ASSERT_NE(pos, std::string::npos);
  // Both ranks overflowed: the array holds two non-zero counts.
  EXPECT_EQ(json.find("\"alpsDropped\": [0, 0]"), std::string::npos);
}
