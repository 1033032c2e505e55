#pragma once
// obs::Histogram — fixed-size log-bucketed duration histograms with exact
// mergeable bucket counts (DESIGN.md §14).
//
// Buckets grow geometrically by kGrowth = 1.08 from kFirstUpper = 1 ns:
// bucket i covers (upper(i-1), upper(i)] with upper(i) = 1e-9 * 1.08^i.
// Reported quantiles are the geometric midpoint of the selected bucket,
// clamped to the exact [min, max] range, so the relative error against a
// sorted reference is bounded by sqrt(1.08) - 1 ~= 3.92% < 4%. The 400
// buckets span 1 ns .. ~6 h, wide enough for any span this code times.
//
// Bucket counts are exact integers, so cross-rank merging (elementwise
// add) is associative and lossless — the property the per-step analysis
// exchange relies on: each rank ships its sparse delta, every rank adds
// them in rank order, and the result is identical everywhere regardless
// of how the reduction is grouped.
//
// Recording sites: obs::Span closes of category kPhase (OBS_PHASE_SPAN)
// and kLatency (OBS_HIST_SPAN: each Krylov solve "la.cg" / "la.minres",
// AMG V-cycle "amg.vcycle" and operator application "fem.apply"), plus
// phase_add and hist_record. The phase sites mark their histogram as a
// phase: its sum is the phase's seconds (obs::phase_seconds, the critical
// path), so phase time has this one store. Like counters, recording is a
// per-rank single-writer operation: no locks, no atomics.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace alps::obs {

class Histogram {
 public:
  static constexpr int kBucketCount = 400;

  /// Geometric bucket growth factor; quantile error bound is sqrt(g) - 1.
  static double growth();
  /// Upper bound of bucket 0 (seconds). Lower bounds follow as
  /// upper(i - 1); bucket 0 is (0, upper(0)].
  static double first_upper();
  /// Inclusive upper bound of bucket `i` (seconds).
  static double bucket_upper(int i);
  /// Exclusive lower bound of bucket `i` (0 for bucket 0).
  static double bucket_lower(int i);
  /// Bucket index for a duration: the smallest i with v <= upper(i);
  /// values beyond the last bound clamp into the last bucket.
  static int bucket_index(double seconds);

  /// Record one duration. Non-finite or negative samples are dropped
  /// (they would poison sum/min/max; the sentinel layer reports them).
  void record(double seconds);
  /// Elementwise-add `o` into this histogram (exact, associative); the
  /// phase bit is or-ed in.
  void merge(const Histogram& o);
  /// This histogram minus a prefix `base` of itself (bucket counts, count
  /// and sum subtract; the phase bit is kept). Exact min/max do not
  /// difference, so the window's range is re-estimated from its
  /// lowest/highest non-empty buckets.
  Histogram delta_since(const Histogram& base) const;

  /// True for phase-time histograms (OBS_PHASE_SPAN, phase_add): only
  /// these count as phase seconds and enter the critical path.
  bool is_phase() const { return phase_; }
  void mark_phase() { phase_ = true; }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  bool empty() const { return count_ == 0; }
  /// Smallest / largest recorded duration: exact when this histogram was
  /// filled by record()/merge(), bucket-midpoint estimates for windows
  /// produced by delta_since(). Both are 0 when empty.
  double min() const;
  double max() const;
  /// Nearest-rank quantile (q in [0, 1]): geometric midpoint of the
  /// bucket holding the floor(q * count)-th sample, clamped to
  /// [min(), max()]. Monotone in q; 0 when empty.
  double quantile(double q) const;

  std::uint64_t bucket(int i) const;
  /// Direct bucket injection for wire decoding; updates count() too.
  void add_bucket(int i, std::uint64_t n);
  void add_sum(double s) { sum_ += s; }
  void expand_range(double mn, double mx);

 private:
  static double bucket_mid(int i);
  std::vector<std::uint64_t> buckets_;  // empty until first sample
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;  // valid only when count_ > 0
  double max_ = 0;
  bool phase_ = false;
};

// ---- recording (per-rank slots live in obs.cpp) ------------------------

/// Record `seconds` into this rank's histogram named `name` (no-op on
/// unbound threads) without marking it a phase. `name` must be a string
/// literal.
void hist_record(const char* name, double seconds);
/// Histograms of `rank`, merged by name content, sorted by name. Safe
/// from the owning rank thread or after par::run has joined.
std::vector<std::pair<std::string, Histogram>> hist_samples(int rank);
/// Same, for the calling thread's bound rank (empty when unbound).
std::vector<std::pair<std::string, Histogram>> hist_samples();
/// Every rank's histograms merged per name, sorted by name. Call after
/// par::run has joined (main thread).
std::vector<std::pair<std::string, Histogram>> aggregate_hists();

}  // namespace alps::obs
