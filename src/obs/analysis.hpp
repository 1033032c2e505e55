#pragma once
// obs::analysis — the per-step exchange: cross-rank wait-state
// attribution, critical-path profiling, memory aggregation and the
// driver's own statistics in one collective (DESIGN.md §11, §12).
//
// The raw instrumentation (obs.hpp wait-state section, obs/mem.hpp) is
// strictly rank-local. analyze_step() is called by every rank at a
// synchronization point (the rhea timestep loop calls it once per step);
// each rank encodes one self-delimiting blob (a u64 byte length, then its
// sections) and a single allgatherv exchanges them. From the blobs every
// rank stitches the same StepRecord:
//
//  * a step-level critical path: for each phase, the slowest rank and its
//    time; the chain of per-phase maxima bounds the step (phase-additive —
//    nested phases like stokes.minres/amg.apply are reported as-is, so
//    the total is an upper bound when phases overlap);
//  * per-phase wait-state totals with the most-blamed late sender;
//  * the achieved-overlap ratio covered/(covered+waited) of the
//    split-phase halo exchanges, which is in [0, 1] by construction;
//  * the memory snapshot reduced over ranks (when obs::mem is on);
//  * the caller's per-rank double slots folded by sum and by max.
//
// The exchange runs under wait_suppress so it never appears in the
// buckets it is measuring. Timed records are retained per world (rank 0
// stores them) for bench::Reporter run summaries and for the per-step
// telemetry blocks validated by scripts/check_analysis.py.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::par {
class Comm;
}

namespace alps::obs::analysis {

/// One phase on the step's critical path.
struct PhaseCritical {
  std::string phase;
  double cp_s = 0;       // max over ranks of this step's phase time
  double mean_s = 0;     // mean over ranks
  int rank = -1;         // argmax rank (who bounded the step here)
  double imbalance = 1;  // cp_s / mean_s (1 when balanced or empty)
};

/// One phase's wait-state totals, summed over ranks for this step.
struct PhaseWaits {
  std::string phase;
  WaitBuckets w;              // rank-summed buckets
  double wall_s = 0;          // rank-summed phase seconds (for validation)
  double max_blocked_s = 0;   // worst single-rank blocked time
  double overlap = -1;        // covered/(covered+waited); -1 = no halo ops
  int blamed_rank = -1;       // sender with the most attributed late time
  double blamed_s = 0;
};

/// One phase's all-rank duration histogram for this step's window (the
/// exact bucket merge of every rank's delta since the previous step).
struct PhaseLatency {
  std::string phase;
  Histogram hist;
};

// ---- memory aggregation (obs/mem.hpp across ranks) ---------------------

/// One memory scope reduced over ranks.
struct MemScopeStat {
  std::string scope;        // full "subsystem.detail" name
  std::uint64_t total = 0;  // summed over ranks
  std::uint64_t max = 0;    // worst single rank
  int argmax = -1;
};

/// The memory section of one step. `enabled` is false (and nothing else
/// valid) when obs::mem is off.
struct MemRecord {
  bool enabled = false;
  int ranks = 0;
  // Accounted (registry) bytes per rank.
  std::uint64_t acc_min = 0, acc_max = 0, acc_total = 0;
  double acc_median = 0, acc_mean = 0, acc_imbalance = 1;
  int acc_argmax = -1;
  std::vector<std::uint64_t> acc_by_rank;  // drift detector input
  std::uint64_t acc_hwm_max = 0;  // worst rank's accounted high-water mark
  std::string acc_hwm_phase;      // phase it was set in ("" = unattributed)
  // Process RSS (identical across in-process ranks; kept per rank so the
  // schema survives a real-MPI backend).
  bool rss_available = false;
  std::uint64_t rss_min = 0, rss_max = 0;
  double rss_mean = 0, rss_imbalance = 1;
  int rss_argmax = -1;
  std::uint64_t rss_hwm_max = 0;  // max over ranks of sampled-peak RSS
  std::string rss_hwm_phase;
  std::vector<MemScopeStat> scopes;       // full names, sorted
  std::vector<MemScopeStat> subsystems;   // grouped by prefix before '.'
};

/// What the caller adds to this rank's blob beyond its obs state.
struct StepInput {
  /// Encode the wait, counter and histogram sections (only while
  /// analysis_enabled() too). The memory section rides whenever
  /// mem_enabled().
  bool timing = true;
  /// Driver slots: every rank passes the same number of each. The record
  /// folds them over ranks in rank order starting from rank 0's value,
  /// exactly as par::Comm::allreduce does, so the results are
  /// bit-identical to an allreduce of the same array.
  std::vector<double> sum;  // folded with a + b
  std::vector<double> max;  // folded with a > b ? a : b
};

/// Everything analyze_step derives for one timestep; identical on every
/// rank (built from the same allgathered data).
struct StepRecord {
  int step = 0;
  bool timed = false;        // the timing sections were exchanged
  double cp_length_s = 0;    // sum of per-phase maxima
  double mean_length_s = 0;  // sum of per-phase means
  double cp_imbalance = 1;   // cp_length_s / mean_length_s
  std::vector<PhaseCritical> critical;  // sorted by cp_s, descending
  std::vector<PhaseWaits> waits;        // sorted by blocked time, descending
  std::vector<PhaseLatency> latency;    // sorted by name
  // Rank-summed *cumulative* counter values (monotone; Prometheus-ready).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  MemRecord mem;
  std::vector<double> sum, max;  // folded driver slots (StepInput)
};

/// Collective: exchange this rank's blob — histogram windows (phase time
/// included) and wait deltas since the previous timed analyze_step (or
/// begin_window, or world start), the memory snapshot, and `in`'s driver
/// slots — in one allgatherv, and return the stitched step record. Every rank of `comm` must call it together with
/// the same `in.timing` and slot counts; a blob whose sections do not
/// consume exactly its declared length throws, naming the rank. Rank 0
/// appends timed records to step_records().
StepRecord analyze_step(par::Comm& comm, int step, const StepInput& in = {});

/// Rank-local: start the next analyze_step's histogram and wait window
/// here, so work done before this call (a driver's setup) stays out of
/// the next record's critical path, wait states and latency.
void begin_window(par::Comm& comm);

/// Records stored by rank 0's analyze_step calls in the current world,
/// oldest first. Read from the main thread after par::run, or clear
/// between bench repetitions with reset_records().
const std::vector<StepRecord>& step_records();
void reset_records();

/// Run-level roll-up of `recs` (step-summed phases, re-sorted).
struct RunSummary {
  int steps = 0;
  double cp_length_s = 0;
  double mean_length_s = 0;
  std::vector<PhaseCritical> critical;
  std::vector<PhaseWaits> waits;
};
RunSummary summarize(const std::vector<StepRecord>& recs);

/// JSON object fragments (no surrounding key) for telemetry / BENCH_*.json
/// embedding: {"length_s":..,"phases":[{"phase":..,"cp_s":..,"rank":..},..]}
/// and {"phases":[{"phase":..,"late_sender_s":..,..,"overlap":..},..]}.
std::string critical_path_json(const StepRecord& rec);
std::string wait_states_json(const StepRecord& rec);
std::string critical_path_json(const RunSummary& sum);
std::string wait_states_json(const RunSummary& sum);

/// The telemetry "latency" block for one step's merged histograms:
/// {"phases":[{"phase":..,"count":..,"sum_s":..,"p50_s":..,"p95_s":..,
/// "p99_s":..,"max_s":..},..]}. Quantiles carry the histogram's ~4%
/// relative-error bound (DESIGN.md §14).
std::string latency_json(const StepRecord& rec);

/// Run-cumulative cross-rank histograms: every step's merged deltas
/// accumulated by rank 0's analyze_step calls in the current world —
/// the source of the Prometheus histogram series and the bench::Reporter
/// percentile rows. Sorted by name; copied under the analysis lock.
std::vector<std::pair<std::string, Histogram>> merged_histograms();

/// The telemetry "memory" block: {"available":..,"accounted":{..},
/// "rss":{..},"subsystems":[..],"scopes":[..]}. Subsystems group scopes
/// by the name prefix before the first '.'; bytes_per_dof fields are
/// emitted when `dofs` > 0. When RSS is unavailable its object is exactly
/// {"available":false} — no numeric fields (check_telemetry.py rejects
/// mixtures). `drift_json`, when non-empty, is embedded verbatim as the
/// "drift" member (rhea's detector state).
std::string memory_json(const MemRecord& rec, std::int64_t dofs,
                        const std::string& drift_json = {});

}  // namespace alps::obs::analysis
