// obs::analysis: Scalasca-style wait-state classification (late-sender
// blame, collective imbalance, achieved overlap), per-step critical-path
// stitching via analyze_step and its driver-slot folds, and Perfetto
// flow-event pairing across ranks.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/obs.hpp"
#include "par/runtime.hpp"

using namespace alps;

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Restore every analysis/tracing switch so test ordering never leaks.
class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_analysis_enabled(true); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_analysis_enabled(true);  // default-on
    obs::analysis::reset_records();
  }
};

const obs::PhaseWaitSample* find_phase(
    const std::vector<obs::PhaseWaitSample>& samples, const char* phase) {
  for (const auto& s : samples)
    if (s.phase == phase) return &s;
  return nullptr;
}

}  // namespace

TEST_F(AnalysisTest, LateSenderBlockedTimeIsAttributedToTheSlowSender) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.late_sender");
    if (c.rank() == 1) {
      sleep_ms(30);  // the receiver is already blocked when this posts
      c.send(0, 7, std::vector<double>{1.0});
    } else {
      (void)c.recv<double>(1, 7);
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.late_sender");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->w.recvs, 1u);
  EXPECT_EQ(s->w.waited_recvs, 1u);
  // Most of the ~30ms block predates the send: late-sender, blamed on 1.
  EXPECT_GT(s->w.late_sender_s, 0.005);
  ASSERT_EQ(s->late_sender_by_rank.size(), 1u);
  EXPECT_EQ(s->late_sender_by_rank[0].first, 1);
  EXPECT_GT(s->late_sender_by_rank[0].second, 0.005);
}

TEST_F(AnalysisTest, LateReceiverCountsQueuedTimeWithoutBlocking) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.late_receiver");
    if (c.rank() == 1) {
      c.send(0, 7, std::vector<double>{1.0});
    } else {
      sleep_ms(30);  // the message sits queued while this rank "computes"
      (void)c.recv<double>(1, 7);
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.late_receiver");
  ASSERT_NE(s, nullptr);
  // Queue time was hidden by local work: no late-sender blame, and the
  // hidden-communication bucket carries roughly the sleep.
  EXPECT_LT(s->w.late_sender_s, 0.005);
  EXPECT_GT(s->w.late_receiver_s, 0.005);
}

TEST_F(AnalysisTest, CollectiveImbalanceLandsInTheCollectiveBucket) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.collective");
    // The sleep dwarfs scheduling delays on a loaded host: a late-started
    // thread shifts either side by far less than the 100 ms split below.
    if (c.rank() == 0) sleep_ms(200);
    c.barrier();
  });
  const auto fast = obs::wait_samples(1);
  const obs::PhaseWaitSample* s = find_phase(fast, "test.collective");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->w.collectives, 1u);
  EXPECT_GT(s->w.collective_s, 0.1);  // blocked on the sleeping rank
  const auto slow = obs::wait_samples(0);
  const obs::PhaseWaitSample* t = find_phase(slow, "test.collective");
  ASSERT_NE(t, nullptr);
  EXPECT_LT(t->w.collective_s, 0.1);  // the straggler barely waits
}

TEST_F(AnalysisTest, OverlapMarksMeasureCoveredVersusWaitedHaloTime) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.overlap");
    if (c.rank() == 1) {
      sleep_ms(20);
      c.send(0, 9, std::vector<double>{2.0});
    } else {
      // Split-phase halo shape: post (start), compute, consume (finish).
      obs::overlap_mark_start();
      sleep_ms(5);  // overlapped local compute
      obs::overlap_mark_finish_begin();
      (void)c.recv<double>(1, 9);  // still waits: sender is slower
      obs::overlap_mark_finish_end();
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.overlap");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->w.halo_ops, 1u);
  EXPECT_GT(s->w.overlap_covered_s, 0.002);  // the 5ms compute
  EXPECT_GT(s->w.overlap_waited_s, 0.002);   // the residual block
  const double cov = s->w.overlap_covered_s /
                     (s->w.overlap_covered_s + s->w.overlap_waited_s);
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

TEST_F(AnalysisTest, AnalyzeStepStitchesCriticalPathToTheSlowestRank) {
  obs::analysis::reset_records();
  obs::analysis::StepRecord recs[4];
  par::run(4, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.stitch");
      // Only rank 3 sleeps long, so host load cannot reorder the ranks:
      // another rank would need a 200 ms scheduling delay to overtake it.
      sleep_ms(c.rank() == 3 ? 200 : 2);
    }
    recs[c.rank()] = obs::analysis::analyze_step(c, 1);
  });
  const obs::analysis::StepRecord& rec = recs[0];
  EXPECT_EQ(rec.step, 1);
  const obs::analysis::PhaseCritical* c3 = nullptr;
  for (const auto& p : rec.critical)
    if (p.phase == "test.stitch") c3 = &p;
  ASSERT_NE(c3, nullptr);
  EXPECT_EQ(c3->rank, 3);
  EXPECT_GE(c3->cp_s, c3->mean_s);
  EXPECT_GT(c3->imbalance, 1.0);
  EXPECT_GE(rec.cp_length_s, rec.mean_length_s);
  // Every rank computed the same stitched record (it is a collective).
  for (int r = 1; r < 4; ++r)
    EXPECT_DOUBLE_EQ(recs[r].cp_length_s, rec.cp_length_s);
  // Rank 0 archived it for bench::Reporter / telemetry.
  ASSERT_EQ(obs::analysis::step_records().size(), 1u);
  EXPECT_DOUBLE_EQ(obs::analysis::step_records()[0].cp_length_s,
                   rec.cp_length_s);
}

TEST_F(AnalysisTest, AnalyzeStepBucketsRespectWallTimeAndBlameSlowRank) {
  obs::analysis::reset_records();
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.blame");
      if (c.rank() == 1) {
        sleep_ms(25);
        c.send(0, 3, std::vector<double>{1.0});
      } else {
        (void)c.recv<double>(1, 3);
      }
    }
    obs::analysis::StepRecord mine = obs::analysis::analyze_step(c, 1);
    if (c.rank() == 0) rec = std::move(mine);
  });
  const obs::analysis::PhaseWaits* w = nullptr;
  for (const auto& p : rec.waits)
    if (p.phase == "test.blame") w = &p;
  ASSERT_NE(w, nullptr);
  // The locally-exact buckets can never exceed the rank-summed wall time.
  EXPECT_LE(w->w.late_sender_s + w->w.transfer_s + w->w.collective_s,
            w->wall_s * 1.01 + 1e-9);
  EXPECT_EQ(w->blamed_rank, 1);
  EXPECT_GT(w->blamed_s, 0.005);
  // A second analyze_step reports only new activity (delta semantics).
  par::run(2, [&](par::Comm& c) {
    obs::analysis::StepRecord mine = obs::analysis::analyze_step(c, 2);
    if (c.rank() == 0) rec = std::move(mine);
  });
  for (const auto& p : rec.waits) EXPECT_LT(p.w.late_sender_s, 0.005);
}

TEST_F(AnalysisTest, JsonBlocksCarryTheAnalysisFields) {
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.json");
      if (c.rank() == 1) c.send(0, 4, std::vector<double>{1.0});
      else (void)c.recv<double>(1, 4);
    }
    obs::analysis::StepRecord mine = obs::analysis::analyze_step(c, 5);
    if (c.rank() == 0) rec = std::move(mine);
  });
  const std::string cp = obs::analysis::critical_path_json(rec);
  EXPECT_NE(cp.find("\"length_s\":"), std::string::npos);
  EXPECT_NE(cp.find("\"phases\":["), std::string::npos);
  EXPECT_NE(cp.find("test.json"), std::string::npos);
  const std::string ws = obs::analysis::wait_states_json(rec);
  EXPECT_NE(ws.find("\"wall_s\":"), std::string::npos);
  EXPECT_NE(ws.find("\"late_sender_s\":"), std::string::npos);
  const auto sum = obs::analysis::summarize({rec, rec});
  EXPECT_EQ(sum.steps, 2);
  EXPECT_DOUBLE_EQ(sum.cp_length_s, 2 * rec.cp_length_s);
}

TEST_F(AnalysisTest, AnalyzeStepIsInertWhenAnalysisIsDisabled) {
  obs::set_analysis_enabled(false);
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    OBS_PHASE_SPAN("test.disabled");
    if (c.rank() == 1) c.send(0, 2, std::vector<double>{1.0});
    else (void)c.recv<double>(1, 2);
    obs::analysis::StepRecord mine = obs::analysis::analyze_step(c, 1);
    if (c.rank() == 0) rec = std::move(mine);
  });
  EXPECT_TRUE(rec.critical.empty());
  EXPECT_TRUE(rec.waits.empty());
  EXPECT_TRUE(obs::wait_samples(0).empty());
}

TEST_F(AnalysisTest, DriverSlotsFoldBitIdenticallyToAllreduce) {
  // Sums that depend on association order, and a NaN that a > b ? a : b
  // keeps or drops depending on its side: the fold must reproduce
  // par::Comm::allreduce's rank order exactly.
  par::run(4, [](par::Comm& c) {
    const double big[] = {1e16, 0.3, -1e16, 0.7};
    const double v = big[c.rank()];
    const double w = c.rank() == 2 ? std::numeric_limits<double>::quiet_NaN()
                                   : 0.1 * c.rank();
    obs::analysis::StepInput in;
    in.timing = false;
    in.sum = {v, w};
    in.max = {-v, w};
    const obs::analysis::StepRecord rec = obs::analysis::analyze_step(c, 1, in);
    const auto add = [](double a, double b) { return a + b; };
    const auto max = [](double a, double b) { return a > b ? a : b; };
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    ASSERT_EQ(rec.sum.size(), 2u);
    ASSERT_EQ(rec.max.size(), 2u);
    EXPECT_EQ(bits(rec.sum[0]), bits(c.allreduce(v, add)));
    EXPECT_EQ(bits(rec.sum[1]), bits(c.allreduce(w, add)));
    EXPECT_EQ(bits(rec.max[0]), bits(c.allreduce(-v, max)));
    EXPECT_EQ(bits(rec.max[1]), bits(c.allreduce(w, max)));
  });
}

TEST_F(AnalysisTest, MismatchedDriverSlotsThrowNamingTheRank) {
  par::run(2, [](par::Comm& c) {
    obs::analysis::StepInput in;
    in.sum.assign(c.rank() == 1 ? 3 : 2, 1.0);
    try {
      (void)obs::analysis::analyze_step(c, 1, in);
      ADD_FAILURE() << "mismatched slot counts were accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
          << e.what();
    }
  });
}

TEST_F(AnalysisTest, FlowEventsPairAcrossRanksWithMatchingIds) {
  obs::set_enabled(true);
  par::run(2, [](par::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 11, std::vector<double>{1.0});
      obs::flow_emit(1, obs::kFlowHaloForward, true);
    } else {
      obs::flow_emit(0, obs::kFlowHaloForward, false);
      (void)c.recv<double>(0, 11);
    }
  });
  const std::vector<obs::FlowEvent> f0 = obs::flows(0);
  const std::vector<obs::FlowEvent> f1 = obs::flows(1);
  ASSERT_EQ(f0.size(), 1u);
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_TRUE(f0[0].start);
  EXPECT_FALSE(f1[0].start);
  // Both sides derived the same id from their local sequence counters.
  EXPECT_EQ(f0[0].id, f1[0].id);
  EXPECT_EQ(obs::flow_dropped(0), 0u);
  EXPECT_EQ(obs::flow_dropped(1), 0u);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"alpsFlowDropped\""), std::string::npos);
}

TEST_F(AnalysisTest, FlowSequencesStayMatchedWhenTracingTogglesMidRun) {
  obs::set_enabled(false);
  par::run(2, [](par::Comm& c) {
    // First pair invisible (tracing off), second pair visible: the ids
    // still match because the sequence advances regardless. The toggle is
    // global, so barriers fence it from both emits.
    obs::flow_emit(1 - c.rank(), obs::kFlowHaloReverse, c.rank() == 0);
    c.barrier();
    if (c.rank() == 0) obs::set_enabled(true);
    c.barrier();
    obs::flow_emit(1 - c.rank(), obs::kFlowHaloReverse, c.rank() == 0);
  });
  const std::vector<obs::FlowEvent> f0 = obs::flows(0);
  const std::vector<obs::FlowEvent> f1 = obs::flows(1);
  ASSERT_EQ(f0.size(), 1u);
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_EQ(f0[0].id, f1[0].id);
}
