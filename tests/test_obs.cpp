// alps::obs: per-rank span recording, rank attribution, counter merge,
// cross-rank phase aggregation, Chrome-trace export, the guarantee that
// disabled tracing records no events while phase time keeps accumulating,
// and phase time's single store (the phase histograms).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "par/runtime.hpp"

using namespace alps;

namespace {

/// Restore the tracing switches after each test so ordering never leaks.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_comm_tracing(false);
  }
};

const obs::SpanEvent* find_event(const std::vector<obs::SpanEvent>& events,
                                 const char* name) {
  for (const auto& e : events)
    if (std::string(e.name) == name) return &e;
  return nullptr;
}

}  // namespace

TEST_F(ObsTest, SpanNestingAndRankAttribution) {
  for (int p : {1, 4}) {
    obs::set_enabled(true);
    par::run(p, [](par::Comm& c) {
      OBS_SPAN("outer");
      {
        OBS_SPAN("inner");
        volatile int sink = 0;
        for (int i = 0; i < 1000 * (c.rank() + 1); ++i) sink = sink + i;
      }
    });
    ASSERT_EQ(obs::world_size(), p);
    for (int r = 0; r < p; ++r) {
      const std::vector<obs::SpanEvent> ev = obs::events(r);
      EXPECT_EQ(obs::dropped(r), 0u);
      const obs::SpanEvent* outer = find_event(ev, "outer");
      const obs::SpanEvent* inner = find_event(ev, "inner");
      ASSERT_NE(outer, nullptr) << "rank " << r;
      ASSERT_NE(inner, nullptr) << "rank " << r;
      // Scoped nesting: the inner interval is contained in the outer one,
      // and the inner span closes (and is stored) first.
      EXPECT_GE(inner->start_ns, outer->start_ns);
      EXPECT_LE(inner->start_ns + inner->dur_ns,
                outer->start_ns + outer->dur_ns);
      EXPECT_LT(inner - ev.data(), outer - ev.data());
    }
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNoEventsButPhasesAccumulate) {
  obs::set_enabled(false);
  double phase_rank0 = 0.0;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.phase");
      volatile int sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + i;
    }
    OBS_SPAN("test.solver_span");
    if (c.rank() == 0) phase_rank0 = obs::phase_seconds("test.phase");
  });
  for (int r = 0; r < 2; ++r) EXPECT_TRUE(obs::events(r).empty());
  EXPECT_GT(phase_rank0, 0.0);
  EXPECT_GT(obs::phase_seconds(0, "test.phase"), 0.0);
}

TEST_F(ObsTest, PhaseSecondsAreThePhaseHistogramSums) {
#ifdef ALPS_OBS_DISABLE
  GTEST_SKIP() << "span macros are compiled out";
#endif
  obs::set_enabled(true);  // one timer feeds both the trace and histograms
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    for (int i = 0; i < 3; ++i) {
      OBS_PHASE_SPAN("test.store");
      OBS_HIST_SPAN("test.hist_only");
      volatile int sink = 0;
      for (int k = 0; k < 1000; ++k) sink = sink + k;
    }
    obs::phase_add("test.store", 0.25);
    obs::analysis::StepRecord mine = obs::analysis::analyze_step(c, 1);
    if (c.rank() == 0) rec = std::move(mine);
  });
  for (int r = 0; r < 2; ++r) {
    const auto samples = obs::hist_samples(r);
    const obs::Histogram* h = nullptr;
    for (const auto& [name, hist] : samples)
      if (name == "test.store") h = &hist;
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->is_phase());
    EXPECT_EQ(h->count(), 4u);
    EXPECT_EQ(obs::phase_seconds(r, "test.store"), h->sum());
    // Each traced OBS_HIST_SPAN close is one trace event and one sample.
    const obs::Histogram* lat = nullptr;
    for (const auto& [name, hist] : samples)
      if (name == "test.hist_only") lat = &hist;
    ASSERT_NE(lat, nullptr);
    EXPECT_FALSE(lat->is_phase());
    EXPECT_EQ(lat->count(), 3u);
    int traced = 0;
    for (const auto& e : obs::events(r))
      if (std::string(e.name) == "test.hist_only") {
        ++traced;
        EXPECT_EQ(e.cat, obs::Cat::kLatency);
      }
    EXPECT_EQ(traced, 3);
  }
  // OBS_HIST_SPAN durations are latency samples, not phase time.
  bool in_latency = false;
  for (const auto& l : rec.latency) in_latency |= l.phase == "test.hist_only";
  EXPECT_TRUE(in_latency);
  EXPECT_EQ(obs::phase_seconds(0, "test.hist_only"), 0.0);
  for (const auto& p : obs::aggregate_phases())
    EXPECT_NE(p.name, "test.hist_only");
  for (const auto& p : rec.critical) EXPECT_NE(p.phase, "test.hist_only");
  bool in_critical = false;
  for (const auto& p : rec.critical) in_critical |= p.phase == "test.store";
  EXPECT_TRUE(in_critical);
}

TEST_F(ObsTest, CommSpansOnlyRecordedWithCommTracing) {
  obs::set_enabled(true);
  par::run(2, [](par::Comm& c) { c.barrier(); });
  EXPECT_EQ(find_event(obs::events(0), "par.barrier"), nullptr);

  obs::set_comm_tracing(true);
  par::run(2, [](par::Comm& c) { c.barrier(); });
  EXPECT_NE(find_event(obs::events(0), "par.barrier"), nullptr);
  EXPECT_NE(find_event(obs::events(1), "par.barrier"), nullptr);
}

TEST_F(ObsTest, CounterRegistryMergesAcrossRanks) {
  const obs::CounterId id = obs::counter("test.counter");
  EXPECT_EQ(obs::counter("test.counter"), id);  // interned once
  par::run(4, [&](par::Comm& c) {
    obs::counter_add(id, static_cast<std::uint64_t>(c.rank()) + 1);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(obs::counter_value(r, id), static_cast<std::uint64_t>(r) + 1);
  const auto merged = obs::aggregate_counters();
  std::uint64_t sum = 0;
  for (const auto& [name, value] : merged)
    if (name == "test.counter") sum = value;
  EXPECT_EQ(sum, 10u);  // 1 + 2 + 3 + 4
}

TEST_F(ObsTest, AggregatorMatchesHandComputedStatistics) {
  par::run(4, [](par::Comm& c) {
    const double vals[] = {1.0, 2.0, 3.0, 10.0};
    obs::phase_add("test.agg", vals[c.rank()]);
  });
  const std::vector<obs::PhaseBreakdown> phases = obs::aggregate_phases();
  const obs::PhaseBreakdown* b = nullptr;
  for (const auto& p : phases)
    if (p.name == "test.agg") b = &p;
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->ranks, 4);
  EXPECT_DOUBLE_EQ(b->min_s, 1.0);
  EXPECT_DOUBLE_EQ(b->max_s, 10.0);
  EXPECT_DOUBLE_EQ(b->median_s, 2.5);  // even count: mean of middle two
  EXPECT_DOUBLE_EQ(b->mean_s, 4.0);
  EXPECT_DOUBLE_EQ(b->total_s, 16.0);
  EXPECT_DOUBLE_EQ(b->imbalance, 2.5);  // max / mean
}

TEST_F(ObsTest, AggregatorCountsAbsentRanksAsZero) {
  par::run(2, [](par::Comm& c) {
    if (c.rank() == 0) obs::phase_add("test.lopsided", 4.0);
  });
  const auto phases = obs::aggregate_phases();
  const obs::PhaseBreakdown* b = nullptr;
  for (const auto& p : phases)
    if (p.name == "test.lopsided") b = &p;
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->min_s, 0.0);
  EXPECT_DOUBLE_EQ(b->max_s, 4.0);
  EXPECT_DOUBLE_EQ(b->mean_s, 2.0);
  EXPECT_DOUBLE_EQ(b->imbalance, 2.0);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  obs::set_enabled(true);
  par::run(2, [](par::Comm&) {
    OBS_SPAN("trace.outer");
    OBS_SPAN("trace.inner");
  });
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"trace.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  // Balanced braces and brackets (no string values contain either).
  std::int64_t braces = 0, brackets = 0;
  for (char ch : json) {
    if (ch == '{') braces++;
    if (ch == '}') braces--;
    if (ch == '[') brackets++;
    if (ch == ']') brackets--;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // 2 metadata + >= 4 span events ("X").
  std::size_t x_events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1))
    x_events++;
  EXPECT_GE(x_events, 4u);
}

TEST_F(ObsTest, RingCapacityDropsExcessEventsAndCounts) {
  obs::set_enabled(true);
  const std::size_t old = obs::set_ring_capacity(4);
  par::run(1, [](par::Comm&) {
    for (int i = 0; i < 10; ++i) {
      OBS_SPAN("ring.filler");
    }
  });
  EXPECT_EQ(obs::events(0).size(), 4u);
  EXPECT_EQ(obs::dropped(0), 6u);
  obs::set_ring_capacity(old);
}

TEST_F(ObsTest, WorldBeginResetsSlots) {
  obs::set_enabled(true);
  par::run(2, [](par::Comm&) { OBS_SPAN("first.run"); });
  EXPECT_FALSE(obs::events(0).empty());
  par::run(1, [](par::Comm&) {});
  EXPECT_EQ(obs::world_size(), 1);
  EXPECT_TRUE(obs::events(0).empty());
}

TEST_F(ObsTest, UnboundThreadsRecordNothing) {
  obs::set_enabled(true);
  par::run(1, [](par::Comm&) {});
  // The main thread is never bound to a rank slot: spans, counters, and
  // phases away from rank threads must be silent no-ops.
  {
    OBS_SPAN("unbound.span");
  }
  obs::counter_add(obs::wellknown::amg_vcycles(), 7);
  obs::phase_add("unbound.phase", 1.0);
  EXPECT_TRUE(obs::events(0).empty());
  EXPECT_EQ(obs::counter_value(0, obs::wellknown::amg_vcycles()), 0u);
  EXPECT_DOUBLE_EQ(obs::phase_seconds(0, "unbound.phase"), 0.0);
}
