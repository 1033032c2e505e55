#include "obs/analysis.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/mem.hpp"
#include "par/comm.hpp"

namespace alps::obs::analysis {

namespace {

// ---- per-rank baselines ------------------------------------------------
//
// analyze_step reports *deltas* since the previous call, so each rank
// keeps the cumulative histograms and wait buckets it last reported.
// Baselines are invalidated when obs::world_generation() changes (a new
// par::run world reset all the underlying accumulators).

struct WaitCum {
  WaitBuckets w;
  std::map<int, double> late_by_rank;
};

/// Field-wise op(a, b) over every bucket and count.
template <typename Op>
WaitBuckets combine(const WaitBuckets& a, const WaitBuckets& b, Op op) {
  WaitBuckets r;
  r.late_sender_s = op(a.late_sender_s, b.late_sender_s);
  r.transfer_s = op(a.transfer_s, b.transfer_s);
  r.late_receiver_s = op(a.late_receiver_s, b.late_receiver_s);
  r.collective_s = op(a.collective_s, b.collective_s);
  r.overlap_covered_s = op(a.overlap_covered_s, b.overlap_covered_s);
  r.overlap_waited_s = op(a.overlap_waited_s, b.overlap_waited_s);
  r.recvs = op(a.recvs, b.recvs);
  r.waited_recvs = op(a.waited_recvs, b.waited_recvs);
  r.collectives = op(a.collectives, b.collectives);
  r.halo_ops = op(a.halo_ops, b.halo_ops);
  return r;
}

struct RankBaseline {
  std::map<std::string, WaitCum> waits;
  std::map<std::string, Histogram> hists;  // cumulative as of last report
};

struct AnalysisState {
  std::mutex mtx;
  std::uint64_t generation = 0;
  std::vector<RankBaseline> baselines;
  std::vector<StepRecord> records;  // written by rank 0 only
  // Run-cumulative cross-rank histograms: every step's merged deltas
  // added in (rank 0 only). Exact because bucket merging is.
  std::map<std::string, Histogram> cum_hists;
};

AnalysisState& state() {
  static AnalysisState s;
  return s;
}

/// Fetch this rank's baseline, resetting everything on a new world. The
/// lock is only contended at world boundaries and analyze_step entry.
RankBaseline& baseline_for(int rank, int nranks) {
  AnalysisState& s = state();
  const std::uint64_t gen = world_generation();
  std::lock_guard<std::mutex> lock(s.mtx);
  if (s.generation != gen) {
    s.generation = gen;
    s.baselines.assign(static_cast<std::size_t>(nranks), RankBaseline{});
    s.records.clear();
    s.cum_hists.clear();
  }
  if (s.baselines.size() < static_cast<std::size_t>(nranks))
    s.baselines.resize(static_cast<std::size_t>(nranks));
  return s.baselines[static_cast<std::size_t>(rank)];
}

// ---- wire format -------------------------------------------------------
//
// Each rank contributes one self-delimiting blob, exchanged with a single
// allgatherv (no sizes round: the receivers walk the length prefixes):
//   u64 blob_bytes (this prefix included)   u32 flags (kTimed | kMemory)
//   u32 n_sum { f64 } ...   u32 n_max { f64 } ...            (driver slots)
// kTimed:
//   u32 n_waits    { str, WaitBuckets (raw: f64 x6 buckets, u64 x4
//                    counts), u32 n_srcs { i32 rank, f64 seconds } ... } ...
//   u32 n_counters { str, u64 value } ...                    (cumulative)
//   u32 n_hists    { str, u8 is_phase, f64 sum, f64 min, f64 max,
//                    u32 n_nonzero { u32 bucket, u64 count } ... } ...
// kMemory:
//   u64 accounted, u64 acc_hwm, str acc_hwm_phase, u32 rss_available,
//   u64 rss, u64 rss_hwm, str rss_peak_phase, u32 n_scopes { str, u64 } ...
// with str = u32 length + chars. Histograms ship as sparse step deltas
// (bucket counts difference exactly); a phase histogram's window sum is
// the rank's seconds in that phase this step. Counters ship cumulative
// values (monotone, so rank sums are directly Prometheus-exposable).

constexpr std::uint32_t kTimed = 1, kMemory = 2;

template <typename T>
void put(std::vector<std::byte>& b, T v) {
  const std::size_t off = b.size();
  b.resize(off + sizeof v);
  std::memcpy(b.data() + off, &v, sizeof v);
}
void put_str(std::vector<std::byte>& b, const std::string& s) {
  put(b, static_cast<std::uint32_t>(s.size()));
  const std::size_t off = b.size();
  b.resize(off + s.size());
  std::memcpy(b.data() + off, s.data(), s.size());
}
void put_slots(std::vector<std::byte>& b, const std::vector<double>& v) {
  put(b, static_cast<std::uint32_t>(v.size()));
  for (const double x : v) put(b, x);
}

/// Bounds-checked cursor over one rank's blob: running past the end
/// throws, naming the rank.
struct Reader {
  const std::byte* p;
  const std::byte* end;
  int rank;
  [[noreturn]] void fail() const {
    throw std::runtime_error("obs::analysis: rank " + std::to_string(rank) +
                             "'s step blob does not match its declared "
                             "length");
  }
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) fail();
  }
  template <typename T>
  T get() {
    T v;
    need(sizeof v);
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    return v;
  }
  std::string str() {
    const std::uint32_t n = get<std::uint32_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
  std::vector<double> slots() {
    const std::uint32_t n = get<std::uint32_t>();
    need(std::size_t{n} * sizeof(double));  // before allocating
    std::vector<double> v(n);
    for (double& x : v) x = get<double>();
    return v;
  }
};

struct MemDelta {
  std::uint64_t accounted = 0;
  std::uint64_t acc_hwm = 0;
  std::string acc_hwm_phase;
  bool rss_available = false;
  std::uint64_t rss = 0;
  std::uint64_t rss_hwm = 0;
  std::string rss_peak_phase;
  std::vector<std::pair<std::string, std::uint64_t>> scopes;
};

struct RankDelta {
  std::uint32_t flags = 0;
  std::vector<double> sum, max;
  std::map<std::string, WaitCum> waits;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // cumulative
  std::map<std::string, Histogram> hists;  // step-window deltas
  MemDelta mem;
};

std::vector<std::byte> encode(const RankDelta& d) {
  std::vector<std::byte> b;
  put(b, std::uint64_t{0});  // patched below
  put(b, d.flags);
  put_slots(b, d.sum);
  put_slots(b, d.max);
  if (d.flags & kTimed) {
    put(b, static_cast<std::uint32_t>(d.waits.size()));
    for (const auto& [name, c] : d.waits) {
      put_str(b, name);
      put(b, c.w);
      put(b, static_cast<std::uint32_t>(c.late_by_rank.size()));
      for (const auto& [src, sec] : c.late_by_rank) {
        put(b, static_cast<std::int32_t>(src));
        put(b, sec);
      }
    }
    put(b, static_cast<std::uint32_t>(d.counters.size()));
    for (const auto& [name, value] : d.counters) {
      put_str(b, name);
      put(b, value);
    }
    put(b, static_cast<std::uint32_t>(d.hists.size()));
    for (const auto& [name, h] : d.hists) {
      put_str(b, name);
      put(b, static_cast<std::uint8_t>(h.is_phase()));
      put(b, h.sum());
      put(b, h.min());
      put(b, h.max());
      std::uint32_t nonzero = 0;
      for (int i = 0; i < Histogram::kBucketCount; ++i)
        if (h.bucket(i) > 0) ++nonzero;
      put(b, nonzero);
      for (int i = 0; i < Histogram::kBucketCount; ++i)
        if (h.bucket(i) > 0) {
          put(b, static_cast<std::uint32_t>(i));
          put(b, h.bucket(i));
        }
    }
  }
  if (d.flags & kMemory) {
    const MemDelta& m = d.mem;
    put(b, m.accounted);
    put(b, m.acc_hwm);
    put_str(b, m.acc_hwm_phase);
    put(b, static_cast<std::uint32_t>(m.rss_available ? 1 : 0));
    put(b, m.rss);
    put(b, m.rss_hwm);
    put_str(b, m.rss_peak_phase);
    put(b, static_cast<std::uint32_t>(m.scopes.size()));
    for (const auto& [name, bytes] : m.scopes) {
      put_str(b, name);
      put(b, bytes);
    }
  }
  const std::uint64_t n = b.size();
  std::memcpy(b.data(), &n, sizeof n);
  return b;
}

RankDelta decode(Reader& r) {
  RankDelta d;
  d.flags = r.get<std::uint32_t>();
  d.sum = r.slots();
  d.max = r.slots();
  if (d.flags & kTimed) {
    const std::uint32_t nw = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nw; ++i) {
      WaitCum& c = d.waits[r.str()];
      c.w = r.get<WaitBuckets>();
      const std::uint32_t ns = r.get<std::uint32_t>();
      for (std::uint32_t j = 0; j < ns; ++j) {
        const int src = r.get<std::int32_t>();
        c.late_by_rank[src] = r.get<double>();
      }
    }
    const std::uint32_t nc = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nc; ++i) {
      std::string name = r.str();
      d.counters.emplace_back(std::move(name), r.get<std::uint64_t>());
    }
    const std::uint32_t nh = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nh; ++i) {
      Histogram& h = d.hists[r.str()];
      if (r.get<std::uint8_t>() != 0) h.mark_phase();
      const double sum = r.get<double>();
      const double mn = r.get<double>();
      const double mx = r.get<double>();
      // Range before buckets: expand_range seeds min/max only while the
      // histogram is still empty.
      h.expand_range(mn, mx);
      h.add_sum(sum);
      const std::uint32_t nb = r.get<std::uint32_t>();
      for (std::uint32_t j = 0; j < nb; ++j) {
        const std::uint32_t idx = r.get<std::uint32_t>();
        h.add_bucket(static_cast<int>(idx), r.get<std::uint64_t>());
      }
    }
  }
  if (d.flags & kMemory) {
    MemDelta& m = d.mem;
    m.accounted = r.get<std::uint64_t>();
    m.acc_hwm = r.get<std::uint64_t>();
    m.acc_hwm_phase = r.str();
    m.rss_available = r.get<std::uint32_t>() != 0;
    m.rss = r.get<std::uint64_t>();
    m.rss_hwm = r.get<std::uint64_t>();
    m.rss_peak_phase = r.str();
    const std::uint32_t ns = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < ns; ++i) {
      std::string name = r.str();
      m.scopes.emplace_back(std::move(name), r.get<std::uint64_t>());
    }
  }
  return d;
}

/// Walk the concatenated blobs by their length prefixes. Every rank must
/// send the same sections and slot counts.
std::vector<RankDelta> decode_all(const std::vector<std::byte>& all,
                                  int nranks) {
  std::vector<RankDelta> deltas;
  deltas.reserve(static_cast<std::size_t>(nranks));
  const std::byte* p = all.data();
  const std::byte* const end = all.data() + all.size();
  for (int rank = 0; rank < nranks; ++rank) {
    Reader head{p, end, rank};
    const std::uint64_t n = head.get<std::uint64_t>();
    if (n < sizeof n || n > static_cast<std::uint64_t>(end - p)) head.fail();
    Reader r{head.p, p + n, rank};
    deltas.push_back(decode(r));
    if (r.p != r.end) r.fail();
    const RankDelta& d = deltas.back();
    const RankDelta& d0 = deltas.front();
    if (d.flags != d0.flags || d.sum.size() != d0.sum.size() ||
        d.max.size() != d0.max.size())
      throw std::runtime_error("obs::analysis: rank " + std::to_string(rank) +
                               "'s step blob carries different sections "
                               "than rank 0's");
    p += n;
  }
  if (p != end) Reader{p, end, nranks - 1}.fail();
  return deltas;
}

/// The timing sections of this rank's blob: wait buckets and histograms
/// as this rank's cumulative state minus its baseline (which is updated),
/// counters cumulative.
void add_timing(RankDelta& d, int rank, int nranks) {
  RankBaseline& base = baseline_for(rank, nranks);
  // wait_samples() excludes the analyzer's own suppressed waits already;
  // the "(unphased)" bucket (waits outside any OBS_PHASE_SPAN) is kept
  // out of the per-step record because it has no wall time to validate
  // against.
  for (const PhaseWaitSample& s : wait_samples()) {
    if (s.phase == "(unphased)") continue;
    WaitCum& prev = base.waits[s.phase];
    WaitCum cur;
    cur.w = s.w;
    for (const auto& [src, sec] : s.late_sender_by_rank)
      cur.late_by_rank[src] = sec;

    WaitCum delta;
    delta.w = combine(cur.w, prev.w, std::minus<>{});
    for (const auto& [src, sec] : cur.late_by_rank) {
      const auto it = prev.late_by_rank.find(src);
      const double ds = sec - (it != prev.late_by_rank.end() ? it->second : 0);
      if (ds > 0) delta.late_by_rank[src] = ds;
    }
    if (delta.w.recvs > 0 || delta.w.collectives > 0 || delta.w.halo_ops > 0 ||
        delta.w.collective_s > 0)
      d.waits[s.phase] = delta;
    prev = cur;
  }
  d.counters = counter_snapshot();
  for (auto& [name, cur] : hist_samples()) {
    Histogram& prev = base.hists[name];
    Histogram delta = cur.delta_since(prev);
    if (!delta.empty()) d.hists[name] = std::move(delta);
    prev = std::move(cur);
  }
}

/// The memory section: accounted bytes, high-water marks, an RSS sample
/// and the scope snapshot of the calling rank.
MemDelta local_memory(int rank) {
  MemDelta m;
  m.accounted = mem_accounted();
  const MemHwm hwm = mem_hwm(rank);
  m.acc_hwm = hwm.bytes;
  if (hwm.phase != nullptr) m.acc_hwm_phase = hwm.phase;
  const RssSample rss = sample_rss();
  const RssPeak peak = rss_peak();
  m.rss_available = rss.available;
  m.rss = rss.rss_bytes;
  // Report the larger of the kernel lifetime peak (VmHWM, monotone) and
  // the cadence sampler's observed peak; the phase comes from the latter.
  m.rss_hwm = std::max(rss.hwm_bytes, peak.bytes);
  if (peak.phase != nullptr) m.rss_peak_phase = peak.phase;
  m.scopes = mem_snapshot();
  return m;
}

/// A histogram window's phase seconds: its sum for a phase histogram, 0
/// otherwise (OBS_HIST_SPAN durations stay off the critical path). A
/// phase enters a rank's step only when this is positive.
double phase_window_s(const Histogram& h) {
  return h.is_phase() ? h.sum() : 0.0;
}

void stitch_timing(const std::vector<RankDelta>& deltas, StepRecord& rec) {
  const int nranks = static_cast<int>(deltas.size());

  // Critical path: per phase, max and mean over ranks with argmax.
  std::map<std::string, PhaseCritical> crit;
  for (int r = 0; r < nranks; ++r) {
    for (const auto& [name, h] : deltas[static_cast<std::size_t>(r)].hists) {
      const double sec = phase_window_s(h);
      if (sec <= 0) continue;
      PhaseCritical& c = crit[name];
      c.phase = name;
      c.mean_s += sec;
      if (sec > c.cp_s) {
        c.cp_s = sec;
        c.rank = r;
      }
    }
  }
  for (auto& [name, c] : crit) {
    c.mean_s /= nranks > 0 ? nranks : 1;
    c.imbalance = c.mean_s > 0 ? c.cp_s / c.mean_s : 1.0;
    rec.cp_length_s += c.cp_s;
    rec.mean_length_s += c.mean_s;
    rec.critical.push_back(c);
  }
  std::sort(rec.critical.begin(), rec.critical.end(),
            [](const PhaseCritical& a, const PhaseCritical& b) {
              return a.cp_s > b.cp_s;
            });
  rec.cp_imbalance =
      rec.mean_length_s > 0 ? rec.cp_length_s / rec.mean_length_s : 1.0;

  // Wait states: rank-summed buckets with the worst-blamed sender.
  std::map<std::string, PhaseWaits> waits;
  std::map<std::string, std::map<int, double>> blame;
  std::map<std::string, double> max_blocked;
  for (int r = 0; r < nranks; ++r) {
    const RankDelta& d = deltas[static_cast<std::size_t>(r)];
    for (const auto& [name, c] : d.waits) {
      PhaseWaits& w = waits[name];
      w.phase = name;
      w.w = combine(w.w, c.w, std::plus<>{});
      const double blocked =
          c.w.late_sender_s + c.w.transfer_s + c.w.collective_s;
      max_blocked[name] = std::max(max_blocked[name], blocked);
      for (const auto& [src, sec] : c.late_by_rank) blame[name][src] += sec;
    }
  }
  // Wall seconds in a second pass: the waits map must already hold every
  // phase any rank waited in, else early ranks' wall time is dropped.
  for (int r = 0; r < nranks; ++r)
    for (const auto& [name, h] : deltas[static_cast<std::size_t>(r)].hists)
      if (phase_window_s(h) > 0 && waits.count(name))
        waits[name].wall_s += h.sum();
  for (auto& [name, w] : waits) {
    w.max_blocked_s = max_blocked[name];
    const double cov = w.w.overlap_covered_s + w.w.overlap_waited_s;
    if (w.w.halo_ops > 0 && cov > 0) w.overlap = w.w.overlap_covered_s / cov;
    else if (w.w.halo_ops > 0) w.overlap = 1.0;  // finished with zero wait
    for (const auto& [src, sec] : blame[name])
      if (sec > w.blamed_s) {
        w.blamed_s = sec;
        w.blamed_rank = src;
      }
    rec.waits.push_back(w);
  }
  std::sort(rec.waits.begin(), rec.waits.end(),
            [](const PhaseWaits& a, const PhaseWaits& b) {
              const double ba = a.w.late_sender_s + a.w.transfer_s +
                                a.w.collective_s;
              const double bb = b.w.late_sender_s + b.w.transfer_s +
                                b.w.collective_s;
              return ba > bb;
            });

  // Latency: exact elementwise merge of every rank's step-window
  // histogram, and rank-summed cumulative counters.
  std::map<std::string, Histogram> lat;
  std::map<std::string, std::uint64_t> counters;
  for (int r = 0; r < nranks; ++r) {
    const RankDelta& d = deltas[static_cast<std::size_t>(r)];
    for (const auto& [name, h] : d.hists) lat[name].merge(h);
    for (const auto& [name, v] : d.counters) counters[name] += v;
  }
  for (auto& [name, h] : lat)
    rec.latency.push_back(PhaseLatency{name, std::move(h)});
  rec.counters.assign(counters.begin(), counters.end());
}

/// The scope-name prefix before the first '.' — the subsystem key.
std::string subsystem_of(const std::string& scope) {
  const std::size_t dot = scope.find('.');
  return dot == std::string::npos ? scope : scope.substr(0, dot);
}

MemRecord stitch_memory(const std::vector<RankDelta>& deltas) {
  MemRecord rec;
  rec.enabled = true;
  rec.ranks = static_cast<int>(deltas.size());
  // Accounted stats.
  std::vector<std::uint64_t> acc;
  for (const RankDelta& d : deltas) acc.push_back(d.mem.accounted);
  rec.acc_by_rank = acc;
  std::vector<std::uint64_t> sorted = acc;
  std::sort(sorted.begin(), sorted.end());
  rec.acc_min = sorted.front();
  rec.acc_max = sorted.back();
  const std::size_t n = sorted.size();
  rec.acc_median =
      (n % 2 == 1) ? static_cast<double>(sorted[n / 2])
                   : 0.5 * (static_cast<double>(sorted[n / 2 - 1]) +
                            static_cast<double>(sorted[n / 2]));
  for (std::uint64_t v : acc) rec.acc_total += v;
  rec.acc_mean = static_cast<double>(rec.acc_total) / static_cast<double>(n);
  rec.acc_imbalance =
      rec.acc_mean > 0 ? static_cast<double>(rec.acc_max) / rec.acc_mean : 1.0;
  for (int r = 0; r < rec.ranks; ++r)
    if (acc[static_cast<std::size_t>(r)] == rec.acc_max) {
      rec.acc_argmax = r;
      break;
    }
  for (int r = 0; r < rec.ranks; ++r) {
    const MemDelta& d = deltas[static_cast<std::size_t>(r)].mem;
    if (d.acc_hwm >= rec.acc_hwm_max) {
      rec.acc_hwm_max = d.acc_hwm;
      rec.acc_hwm_phase = d.acc_hwm_phase;
    }
  }

  // RSS stats — only when every rank had a live sample (a mixed world
  // would make the min/mean meaningless).
  rec.rss_available = true;
  for (const RankDelta& d : deltas) rec.rss_available &= d.mem.rss_available;
  if (rec.rss_available) {
    std::uint64_t total = 0;
    rec.rss_min = deltas.front().mem.rss;
    for (int r = 0; r < rec.ranks; ++r) {
      const MemDelta& d = deltas[static_cast<std::size_t>(r)].mem;
      total += d.rss;
      rec.rss_min = std::min(rec.rss_min, d.rss);
      if (d.rss > rec.rss_max) {
        rec.rss_max = d.rss;
        rec.rss_argmax = r;
      }
      if (d.rss_hwm >= rec.rss_hwm_max) {
        rec.rss_hwm_max = d.rss_hwm;
        rec.rss_hwm_phase = d.rss_peak_phase;
      }
    }
    rec.rss_mean = static_cast<double>(total) / static_cast<double>(rec.ranks);
    rec.rss_imbalance =
        rec.rss_mean > 0 ? static_cast<double>(rec.rss_max) / rec.rss_mean
                         : 1.0;
  }

  // Scope and subsystem reductions.
  std::map<std::string, MemScopeStat> scopes, subs;
  std::map<std::string, std::map<int, std::uint64_t>> sub_by_rank;
  for (int r = 0; r < rec.ranks; ++r) {
    const MemDelta& d = deltas[static_cast<std::size_t>(r)].mem;
    for (const auto& [name, bytes] : d.scopes) {
      MemScopeStat& s = scopes[name];
      s.scope = name;
      s.total += bytes;
      if (bytes > s.max) {
        s.max = bytes;
        s.argmax = r;
      }
      sub_by_rank[subsystem_of(name)][r] += bytes;
    }
  }
  for (const auto& [name, by_rank] : sub_by_rank) {
    MemScopeStat& s = subs[name];
    s.scope = name;
    for (const auto& [r, bytes] : by_rank) {
      s.total += bytes;
      if (bytes > s.max) {
        s.max = bytes;
        s.argmax = r;
      }
    }
  }
  for (auto& [name, s] : scopes) rec.scopes.push_back(std::move(s));
  for (auto& [name, s] : subs) rec.subsystems.push_back(std::move(s));
  return rec;
}

/// Fold one slot array over ranks in rank order, starting from rank 0's
/// value: the association order of par::Comm::allreduce.
template <typename Op>
std::vector<double> fold(const std::vector<RankDelta>& deltas,
                         std::vector<double> RankDelta::*slots, Op op) {
  std::vector<double> acc = deltas.front().*slots;
  for (std::size_t r = 1; r < deltas.size(); ++r)
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] = op(acc[i], (deltas[r].*slots)[i]);
  return acc;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

void append_critical(std::ostringstream& os, double length_s, double mean_s,
                     const std::vector<PhaseCritical>& phases) {
  os << "{\"length_s\":" << fmt(length_s) << ",\"mean_s\":" << fmt(mean_s)
     << ",\"imbalance\":" << fmt(mean_s > 0 ? length_s / mean_s : 1.0)
     << ",\"phases\":[";
  std::size_t limit = std::min<std::size_t>(phases.size(), 12);
  for (std::size_t i = 0; i < limit; ++i) {
    const PhaseCritical& c = phases[i];
    if (i) os << ",";
    os << "{\"phase\":\"" << c.phase << "\",\"cp_s\":" << fmt(c.cp_s)
       << ",\"mean_s\":" << fmt(c.mean_s) << ",\"rank\":" << c.rank
       << ",\"imbalance\":" << fmt(c.imbalance) << "}";
  }
  os << "]}";
}

void append_waits(std::ostringstream& os,
                  const std::vector<PhaseWaits>& phases) {
  os << "{\"phases\":[";
  std::size_t limit = std::min<std::size_t>(phases.size(), 12);
  for (std::size_t i = 0; i < limit; ++i) {
    const PhaseWaits& w = phases[i];
    if (i) os << ",";
    os << "{\"phase\":\"" << w.phase << "\",\"wall_s\":" << fmt(w.wall_s)
       << ",\"late_sender_s\":" << fmt(w.w.late_sender_s)
       << ",\"transfer_s\":" << fmt(w.w.transfer_s)
       << ",\"late_receiver_s\":" << fmt(w.w.late_receiver_s)
       << ",\"collective_s\":" << fmt(w.w.collective_s)
       << ",\"max_blocked_s\":" << fmt(w.max_blocked_s)
       << ",\"recvs\":" << w.w.recvs << ",\"waited_recvs\":" << w.w.waited_recvs
       << ",\"collectives\":" << w.w.collectives
       << ",\"halo_ops\":" << w.w.halo_ops;
    if (w.overlap >= 0) os << ",\"overlap\":" << fmt(w.overlap);
    if (w.blamed_rank >= 0)
      os << ",\"blamed_rank\":" << w.blamed_rank
         << ",\"blamed_s\":" << fmt(w.blamed_s);
    os << "}";
  }
  os << "]}";
}

}  // namespace

StepRecord analyze_step(par::Comm& comm, int step, const StepInput& in) {
  RankDelta mine;
  mine.flags = (in.timing && analysis_enabled() ? kTimed : 0) |
               (mem_enabled() ? kMemory : 0);
  mine.sum = in.sum;
  mine.max = in.max;

  // The analyzer's own collective must not land in the buckets.
  wait_suppress(true);
  if (mine.flags & kTimed) add_timing(mine, comm.rank(), comm.size());
  if (mine.flags & kMemory) mine.mem = local_memory(comm.rank());
  const std::vector<std::byte> all = comm.allgatherv(encode(mine));
  wait_suppress(false);

  const std::vector<RankDelta> deltas = decode_all(all, comm.size());
  StepRecord rec;
  rec.step = step;
  rec.timed = (mine.flags & kTimed) != 0;
  if (rec.timed) stitch_timing(deltas, rec);
  if (mine.flags & kMemory) rec.mem = stitch_memory(deltas);
  rec.sum = fold(deltas, &RankDelta::sum,
                 [](double a, double b) { return a + b; });
  rec.max = fold(deltas, &RankDelta::max,
                 [](double a, double b) { return a > b ? a : b; });

  if (rec.timed && comm.rank() == 0) {
    AnalysisState& s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    for (const PhaseLatency& l : rec.latency) s.cum_hists[l.phase].merge(l.hist);
    s.records.push_back(rec);
  }
  return rec;
}

void begin_window(par::Comm& comm) {
  RankDelta discarded;
  add_timing(discarded, comm.rank(), comm.size());
}

std::vector<std::pair<std::string, Histogram>> merged_histograms() {
  AnalysisState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  return {s.cum_hists.begin(), s.cum_hists.end()};
}

const std::vector<StepRecord>& step_records() { return state().records; }

void reset_records() {
  AnalysisState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.records.clear();
}

RunSummary summarize(const std::vector<StepRecord>& recs) {
  RunSummary sum;
  sum.steps = static_cast<int>(recs.size());
  std::map<std::string, PhaseCritical> crit;
  std::map<std::string, PhaseWaits> waits;
  for (const StepRecord& rec : recs) {
    sum.cp_length_s += rec.cp_length_s;
    sum.mean_length_s += rec.mean_length_s;
    for (const PhaseCritical& c : rec.critical) {
      PhaseCritical& a = crit[c.phase];
      a.phase = c.phase;
      a.cp_s += c.cp_s;
      a.mean_s += c.mean_s;
      if (c.cp_s > 0) a.rank = c.rank;  // last step's slowest rank
    }
    for (const PhaseWaits& w : rec.waits) {
      PhaseWaits& a = waits[w.phase];
      a.phase = w.phase;
      a.wall_s += w.wall_s;
      a.w = combine(a.w, w.w, std::plus<>{});
      a.max_blocked_s = std::max(a.max_blocked_s, w.max_blocked_s);
      if (w.blamed_s > a.blamed_s) {
        a.blamed_s = w.blamed_s;
        a.blamed_rank = w.blamed_rank;
      }
    }
  }
  for (auto& [name, c] : crit) {
    c.imbalance = c.mean_s > 0 ? c.cp_s / c.mean_s : 1.0;
    sum.critical.push_back(c);
  }
  std::sort(sum.critical.begin(), sum.critical.end(),
            [](const PhaseCritical& a, const PhaseCritical& b) {
              return a.cp_s > b.cp_s;
            });
  for (auto& [name, w] : waits) {
    const double cov = w.w.overlap_covered_s + w.w.overlap_waited_s;
    if (w.w.halo_ops > 0 && cov > 0) w.overlap = w.w.overlap_covered_s / cov;
    else if (w.w.halo_ops > 0) w.overlap = 1.0;
    sum.waits.push_back(w);
  }
  std::sort(sum.waits.begin(), sum.waits.end(),
            [](const PhaseWaits& a, const PhaseWaits& b) {
              const double ba =
                  a.w.late_sender_s + a.w.transfer_s + a.w.collective_s;
              const double bb =
                  b.w.late_sender_s + b.w.transfer_s + b.w.collective_s;
              return ba > bb;
            });
  return sum;
}

std::string critical_path_json(const StepRecord& rec) {
  std::ostringstream os;
  append_critical(os, rec.cp_length_s, rec.mean_length_s, rec.critical);
  return os.str();
}

std::string wait_states_json(const StepRecord& rec) {
  std::ostringstream os;
  append_waits(os, rec.waits);
  return os.str();
}

std::string critical_path_json(const RunSummary& sum) {
  std::ostringstream os;
  append_critical(os, sum.cp_length_s, sum.mean_length_s, sum.critical);
  return os.str();
}

std::string wait_states_json(const RunSummary& sum) {
  std::ostringstream os;
  append_waits(os, sum.waits);
  return os.str();
}

std::string latency_json(const StepRecord& rec) {
  std::ostringstream os;
  os << "{\"phases\":[";
  bool first = true;
  for (const PhaseLatency& l : rec.latency) {
    if (l.hist.empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"phase\":\"" << l.phase << "\",\"count\":" << l.hist.count()
       << ",\"sum_s\":" << fmt(l.hist.sum())
       << ",\"p50_s\":" << fmt(l.hist.quantile(0.50))
       << ",\"p95_s\":" << fmt(l.hist.quantile(0.95))
       << ",\"p99_s\":" << fmt(l.hist.quantile(0.99))
       << ",\"max_s\":" << fmt(l.hist.max()) << "}";
  }
  os << "]}";
  return os.str();
}

std::string memory_json(const MemRecord& rec, std::int64_t dofs,
                        const std::string& drift_json) {
  std::ostringstream os;
  if (!rec.enabled) {
    os << "{\"available\":false}";
    return os.str();
  }
  os << "{\"available\":true,\"ranks\":" << rec.ranks;
  os << ",\"accounted\":{\"min_bytes\":" << rec.acc_min
     << ",\"median_bytes\":" << fmt(rec.acc_median)
     << ",\"max_bytes\":" << rec.acc_max
     << ",\"mean_bytes\":" << fmt(rec.acc_mean)
     << ",\"total_bytes\":" << rec.acc_total
     << ",\"imbalance\":" << fmt(rec.acc_imbalance)
     << ",\"argmax_rank\":" << rec.acc_argmax
     << ",\"hwm_bytes\":" << rec.acc_hwm_max << ",\"hwm_phase\":\""
     << rec.acc_hwm_phase << "\"}";
  if (rec.rss_available) {
    os << ",\"rss\":{\"available\":true,\"min_bytes\":" << rec.rss_min
       << ",\"max_bytes\":" << rec.rss_max
       << ",\"mean_bytes\":" << fmt(rec.rss_mean)
       << ",\"imbalance\":" << fmt(rec.rss_imbalance)
       << ",\"argmax_rank\":" << rec.rss_argmax
       << ",\"hwm_bytes\":" << rec.rss_hwm_max
       << ",\"hwm_phase\":\"" << rec.rss_hwm_phase << "\"}";
  } else {
    // Exactly this shape: check_telemetry.py fails records that mix
    // available:false with numeric RSS fields.
    os << ",\"rss\":{\"available\":false}";
  }
  os << ",\"subsystems\":[";
  for (std::size_t i = 0; i < rec.subsystems.size(); ++i) {
    const MemScopeStat& s = rec.subsystems[i];
    if (i) os << ",";
    os << "{\"name\":\"" << s.scope << "\",\"bytes\":" << s.total
       << ",\"max_bytes\":" << s.max
       << ",\"argmax_rank\":" << s.argmax;
    if (dofs > 0)
      os << ",\"bytes_per_dof\":"
         << fmt(static_cast<double>(s.total) / static_cast<double>(dofs));
    os << "}";
  }
  os << "],\"scopes\":[";
  for (std::size_t i = 0; i < rec.scopes.size(); ++i) {
    const MemScopeStat& s = rec.scopes[i];
    if (i) os << ",";
    os << "{\"name\":\"" << s.scope << "\",\"bytes\":" << s.total
       << "}";
  }
  os << "]";
  if (dofs > 0)
    os << ",\"bytes_per_dof\":"
       << fmt(static_cast<double>(rec.acc_total) / static_cast<double>(dofs));
  if (!drift_json.empty()) os << ",\"drift\":" << drift_json;
  os << "}";
  return os.str();
}

}  // namespace alps::obs::analysis
