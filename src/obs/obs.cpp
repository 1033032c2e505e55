#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/histogram.hpp"
#include "obs/mem.hpp"

namespace alps::obs {

namespace detail {
std::atomic<int> g_mask{-1};  // -1 = not yet initialized from ALPS_TRACE

int init_mask() {
  int m = 0;
  if (const char* env = std::getenv("ALPS_TRACE")) {
    const std::string v(env);
    if (v == "comm" || v == "all" || v == "2")
      m = 3;
    else if (!v.empty() && v != "0")
      m = 1;
  }
  // Another thread may race the first lookup; both compute the same
  // value, so a plain store is fine.
  g_mask.store(m, std::memory_order_relaxed);
  return m;
}
}  // namespace detail

void set_enabled(bool on) {
  int m = detail::mask();
  m = on ? (m | 1) : 0;  // disabling also turns comm spans off
  detail::g_mask.store(m, std::memory_order_relaxed);
}

void set_comm_tracing(bool on) {
  int m = detail::mask();
  m = on ? (m | 3) : (m & ~2);
  detail::g_mask.store(m, std::memory_order_relaxed);
}

namespace {

using Clock = std::chrono::steady_clock;

// Per-phase wait buckets plus the per-source late-sender attribution.
struct PhaseWaitSlot {
  WaitBuckets w;
  std::map<int, double> late_sender_by_rank;
};

// One slot per rank. The owning rank thread is the only writer; the main
// thread reads only after par::run joins the workers (the join provides
// the happens-before edge, so no per-event synchronization is needed).
struct RankSlot {
  int rank = -1;
  std::vector<SpanEvent> ring;
  std::size_t count = 0;  // events stored (<= ring.size())
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> counters;
  // Duration histograms, phase time included (keyed like `waits` by the
  // name literal's address; readers re-merge by content).
  std::unordered_map<const char*, Histogram> hists;
  // Wait-state accounting (keyed by the phase-name literal's address —
  // phase names are string literals, so the pointer is a stable key; the
  // aggregation layer re-merges by content).
  std::unordered_map<const char*, PhaseWaitSlot> waits;
  double recv_blocked_s = 0;  // running total, snapshotted by halo marks
  struct OverlapFrame {
    std::uint64_t start_ns = 0;
    double covered_s = 0;
    double blocked0_s = 0;
    const char* phase = nullptr;
  };
  std::array<OverlapFrame, 4> overlap_stack{};
  int overlap_depth = 0;
  // Cross-rank flow events (bounded by the ring capacity).
  std::vector<FlowEvent> flows;
  std::uint64_t flow_dropped = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_seq;
};

struct State {
  std::vector<std::unique_ptr<RankSlot>> slots;
  Clock::time_point epoch = Clock::now();
  std::size_t ring_capacity = init_ring_capacity();
  // Counter name registry (interned once, shared by all ranks).
  std::mutex reg_mtx;
  std::vector<std::string> counter_names;
  std::unordered_map<std::string, CounterId> counter_ids;

  static std::size_t init_ring_capacity() {
    if (const char* env = std::getenv("ALPS_TRACE_BUF")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return 1u << 16;
  }
};

State& state() {
  static State s;
  return s;
}

thread_local RankSlot* tl_slot = nullptr;

// Innermost-first stack of open phase-span names on this thread.
constexpr int kPhaseStackDepth = 16;
thread_local const char* tl_phase_stack[kPhaseStackDepth];
thread_local int tl_phase_depth = 0;
thread_local bool tl_wait_suppressed = false;

std::atomic<std::uint64_t> g_generation{0};

// -1 = not yet initialized from ALPS_ANALYSIS (default: on).
std::atomic<int> g_analysis{-1};

int analysis_init() {
  int on = 1;
  if (const char* env = std::getenv("ALPS_ANALYSIS")) {
    const std::string v(env);
    if (v == "0" || v.empty()) on = 0;
  }
  g_analysis.store(on, std::memory_order_relaxed);
  return on;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           state().epoch)
          .count());
}

RankSlot& checked_slot(int rank) {
  State& s = state();
  if (rank < 0 || static_cast<std::size_t>(rank) >= s.slots.size())
    throw std::out_of_range("obs: rank out of range");
  return *s.slots[static_cast<std::size_t>(rank)];
}

// Phase and latency spans time themselves into a histogram, traced or not.
bool records_hist(Cat c) { return c == Cat::kPhase || c == Cat::kLatency; }

void record_phase(RankSlot& slot, const char* name, double seconds) {
  Histogram& h = slot.hists[name];
  h.record(seconds);
  h.mark_phase();
}

}  // namespace

void world_begin(int nranks) {
  State& s = state();
  s.slots.clear();
  for (int r = 0; r < nranks; ++r) {
    auto slot = std::make_unique<RankSlot>();
    slot->rank = r;
    slot->ring.resize(s.ring_capacity);
    s.slots.push_back(std::move(slot));
  }
  s.epoch = Clock::now();
  g_generation.fetch_add(1, std::memory_order_relaxed);
  memdetail::world_begin(nranks);
}

void rank_bind(int rank) {
  tl_slot = &checked_slot(rank);
  tl_phase_depth = 0;
  tl_wait_suppressed = false;
  memdetail::rank_bind(rank);
}

void rank_unbind() {
  tl_slot = nullptr;
  memdetail::rank_unbind();
}

int world_size() { return static_cast<int>(state().slots.size()); }

std::uint64_t world_generation() {
  return g_generation.load(std::memory_order_relaxed);
}

std::uint64_t trace_now_ns() { return now_ns(); }

std::size_t set_ring_capacity(std::size_t events_per_rank) {
  State& s = state();
  const std::size_t old = s.ring_capacity;
  if (events_per_rank > 0) s.ring_capacity = events_per_rank;
  return old;
}

// ---- spans ------------------------------------------------------------

Span::Span(const char* name, Cat cat) : name_(name), cat_(cat) {
  if (tl_slot == nullptr) return;
  record_ = category_enabled(cat);
  if (cat == Cat::kPhase && tl_phase_depth < kPhaseStackDepth)
    tl_phase_stack[tl_phase_depth++] = name;
  if (record_ || records_hist(cat)) t0_ = now_ns();
}

Span::~Span() {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || !(record_ || records_hist(cat_))) return;
  const bool phase = cat_ == Cat::kPhase;
  if (phase && tl_phase_depth > 0) --tl_phase_depth;
  // RSS only moves when something allocated, and allocations live inside
  // phases — so phase closes are the natural (cheap, cadenced) sampling
  // points for the memory peak tracker.
  if (phase) memdetail::phase_close_tick(name_);
  const std::uint64_t t1 = now_ns();
  if (records_hist(cat_)) {
    Histogram& h = slot->hists[name_];
    h.record(static_cast<double>(t1 - t0_) * 1e-9);
    if (phase) h.mark_phase();
  }
  if (record_) {
    if (slot->count < slot->ring.size())
      slot->ring[slot->count++] = SpanEvent{name_, t0_, t1 - t0_, cat_};
    else
      slot->dropped++;
  }
}

std::vector<SpanEvent> events(int rank) {
  const RankSlot& slot = checked_slot(rank);
  return {slot.ring.begin(),
          slot.ring.begin() + static_cast<std::ptrdiff_t>(slot.count)};
}

std::uint64_t dropped(int rank) { return checked_slot(rank).dropped; }

// ---- counters ---------------------------------------------------------

CounterId counter(const char* name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.reg_mtx);
  const auto it = s.counter_ids.find(name);
  if (it != s.counter_ids.end()) return it->second;
  const CounterId id = static_cast<CounterId>(s.counter_names.size());
  s.counter_names.emplace_back(name);
  s.counter_ids.emplace(name, id);
  return id;
}

void counter_add(CounterId id, std::uint64_t delta) {
  RankSlot* slot = tl_slot;
  if (slot == nullptr) return;
  if (slot->counters.size() <= id) slot->counters.resize(id + 1, 0);
  slot->counters[id] += delta;
}

std::uint64_t counter_value(int rank, CounterId id) {
  const RankSlot& slot = checked_slot(rank);
  return id < slot.counters.size() ? slot.counters[id] : 0;
}

namespace wellknown {
CounterId ghost_exchange_bytes() {
  static const CounterId id = counter("ghost.exchange_bytes");
  return id;
}
CounterId minres_iterations() {
  static const CounterId id = counter("minres.iterations");
  return id;
}
CounterId cg_iterations() {
  static const CounterId id = counter("cg.iterations");
  return id;
}
CounterId amg_vcycles() {
  static const CounterId id = counter("amg.vcycles");
  return id;
}
CounterId amg_setup_full() {
  static const CounterId id = counter("amg.setup.full");
  return id;
}
CounterId amg_setup_numeric() {
  static const CounterId id = counter("amg.setup.numeric");
  return id;
}
CounterId amg_setup_skipped() {
  static const CounterId id = counter("amg.setup.skipped");
  return id;
}
CounterId minres_syncs() {
  static const CounterId id = counter("comm.sync.minres");
  return id;
}
CounterId cg_syncs() {
  static const CounterId id = counter("comm.sync.cg");
  return id;
}
}  // namespace wellknown

std::vector<std::pair<std::string, std::uint64_t>> aggregate_counters() {
  State& s = state();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(s.reg_mtx);
    names = s.counter_names;
  }
  for (std::size_t id = 0; id < names.size(); ++id) {
    std::uint64_t sum = 0;
    for (const auto& slot : s.slots)
      if (id < slot->counters.size()) sum += slot->counters[id];
    if (sum > 0) out.emplace_back(names[id], sum);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() {
  const RankSlot* slot = tl_slot;
  if (slot == nullptr) return {};
  State& s = state();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(s.reg_mtx);
    names = s.counter_names;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const std::size_t n = std::min(names.size(), slot->counters.size());
  for (std::size_t id = 0; id < n; ++id)
    if (slot->counters[id] > 0) out.emplace_back(names[id], slot->counters[id]);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- histograms --------------------------------------------------------

void hist_record(const char* name, double seconds) {
  RankSlot* slot = tl_slot;
  if (slot == nullptr) return;
  slot->hists[name].record(seconds);
}

namespace {

// Merge one slot's pointer-keyed histograms by string content (identical
// literals in different translation units may have different addresses).
std::map<std::string, Histogram> merged_hists(const RankSlot& slot) {
  std::map<std::string, Histogram> merged;
  for (const auto& [name, h] : slot.hists) merged[name].merge(h);
  return merged;
}

// One slot's seconds in `name`: the sums of its phase histograms of that
// content, merged like merged_hists.
double phase_sum(const RankSlot& slot, const char* name) {
  double secs = 0.0;
  for (const auto& [key, h] : slot.hists)
    if (h.is_phase() && std::strcmp(key, name) == 0) secs += h.sum();
  return secs;
}

}  // namespace

std::vector<std::pair<std::string, Histogram>> hist_samples(int rank) {
  const auto merged = merged_hists(checked_slot(rank));
  return {merged.begin(), merged.end()};
}

std::vector<std::pair<std::string, Histogram>> hist_samples() {
  RankSlot* slot = tl_slot;
  return slot != nullptr
             ? hist_samples(slot->rank)
             : std::vector<std::pair<std::string, Histogram>>{};
}

std::vector<std::pair<std::string, Histogram>> aggregate_hists() {
  State& s = state();
  std::map<std::string, Histogram> merged;
  for (const auto& slot : s.slots)
    for (const auto& [name, h] : merged_hists(*slot)) merged[name].merge(h);
  return {merged.begin(), merged.end()};
}

// ---- phases -----------------------------------------------------------

void phase_add(const char* name, double seconds) {
  RankSlot* slot = tl_slot;
  if (slot != nullptr) record_phase(*slot, name, seconds);
}

double phase_seconds(const char* name) {
  const RankSlot* slot = tl_slot;
  return slot != nullptr ? phase_sum(*slot, name) : 0.0;
}

double phase_seconds(int rank, const char* name) {
  return phase_sum(checked_slot(rank), name);
}

std::vector<PhaseBreakdown> aggregate_phases() {
  State& s = state();
  const std::size_t p = s.slots.size();
  // Every phase name, reduced over every rank (absent = 0).
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t r = 0; r < p; ++r)
    for (const auto& [name, h] : merged_hists(*s.slots[r]))
      if (h.is_phase()) {
        auto& v = by_name[name];
        v.resize(p, 0.0);
        v[r] = h.sum();
      }
  std::vector<PhaseBreakdown> out;
  out.reserve(by_name.size());
  for (auto& [name, v] : by_name) {
    PhaseBreakdown b;
    b.name = name;
    b.ranks = static_cast<int>(p);
    std::sort(v.begin(), v.end());
    b.min_s = v.front();
    b.max_s = v.back();
    const std::size_t n = v.size();
    b.median_s = (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    for (double x : v) b.total_s += x;
    b.mean_s = b.total_s / static_cast<double>(n);
    b.imbalance = b.mean_s > 0.0 ? b.max_s / b.mean_s : 1.0;
    out.push_back(std::move(b));
  }
  return out;
}

const char* current_phase() {
  return tl_phase_depth > 0 ? tl_phase_stack[tl_phase_depth - 1] : nullptr;
}

std::uint64_t self_memory_bytes() {
  const RankSlot* slot = tl_slot;
  if (slot == nullptr) return 0;
  std::uint64_t b = slot->ring.capacity() * sizeof(SpanEvent);
  b += slot->flows.capacity() * sizeof(FlowEvent);
  b += slot->counters.capacity() * sizeof(std::uint64_t);
  // Hash-map footprints are estimates: bucket array + one node per entry.
  b += slot->waits.size() * (sizeof(PhaseWaitSlot) + 2 * sizeof(void*));
  b += slot->hists.size() *
       (sizeof(Histogram) + Histogram::kBucketCount * sizeof(std::uint64_t) +
        2 * sizeof(void*));
  b += slot->flow_seq.size() *
       (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 2 * sizeof(void*));
  return b;
}

// ---- wait-state accounting --------------------------------------------

bool analysis_enabled() {
  const int v = g_analysis.load(std::memory_order_relaxed);
  return (v >= 0 ? v : analysis_init()) != 0;
}

void set_analysis_enabled(bool on) {
  g_analysis.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t wait_now() {
  if (tl_slot == nullptr || tl_wait_suppressed || !analysis_enabled())
    return 0;
  return now_ns();
}

void wait_suppress(bool on) { tl_wait_suppressed = on; }

namespace {

// The phase-pointer key of the bucket that waits outside any OBS_PHASE_SPAN
// land in; excluded from per-phase invariants but kept for the totals.
constexpr const char* kUnphased = "(unphased)";

PhaseWaitSlot& wait_slot(RankSlot& slot) {
  const char* phase = current_phase();
  return slot.waits[phase != nullptr ? phase : kUnphased];
}

}  // namespace

void wait_record_recv(int src, std::uint64_t enter_ns, std::uint64_t sent_ns,
                      std::uint64_t got_ns) {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || enter_ns == 0 || tl_wait_suppressed) return;
  PhaseWaitSlot& w = wait_slot(*slot);
  w.w.recvs++;
  // sent_ns == 0 means the sender recorded no post time (unbound thread
  // or suppressed): no late-sender blame, no late-receiver credit — all
  // blocked time counts as transfer.
  const bool sender_known = sent_ns != 0;
  // Blocked interval [enter, got): the part before the sender posted the
  // message is the sender's fault, the rest is delivery.
  const std::uint64_t send_visible =
      sender_known ? std::min(std::max(sent_ns, enter_ns), got_ns) : enter_ns;
  const double late_s = static_cast<double>(send_visible - enter_ns) * 1e-9;
  const double transfer_s = static_cast<double>(got_ns - send_visible) * 1e-9;
  if (got_ns > enter_ns) {
    w.w.waited_recvs++;
    slot->recv_blocked_s += static_cast<double>(got_ns - enter_ns) * 1e-9;
  }
  w.w.late_sender_s += late_s;
  w.w.transfer_s += transfer_s;
  if (late_s > 0) w.late_sender_by_rank[src] += late_s;
  // Queued time: the message waited for *us* — communication this rank
  // already hid behind local work.
  if (sender_known && enter_ns > sent_ns)
    w.w.late_receiver_s += static_cast<double>(enter_ns - sent_ns) * 1e-9;
}

void wait_record_collective(std::uint64_t enter_ns, std::uint64_t resume_ns,
                            bool count_call) {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || enter_ns == 0 || tl_wait_suppressed) return;
  PhaseWaitSlot& w = wait_slot(*slot);
  if (count_call) w.w.collectives++;
  if (resume_ns > enter_ns)
    w.w.collective_s += static_cast<double>(resume_ns - enter_ns) * 1e-9;
}

void overlap_mark_start() {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || !analysis_enabled()) return;
  if (slot->overlap_depth >=
      static_cast<int>(slot->overlap_stack.size()))
    return;  // nested deeper than tracked: drop the frame, keep counting
  auto& f = slot->overlap_stack[static_cast<std::size_t>(slot->overlap_depth++)];
  f.start_ns = now_ns();
  f.blocked0_s = slot->recv_blocked_s;
  f.phase = current_phase();
}

void overlap_mark_finish_begin() {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || !analysis_enabled() || slot->overlap_depth <= 0)
    return;
  auto& f = slot->overlap_stack[static_cast<std::size_t>(slot->overlap_depth - 1)];
  f.covered_s = static_cast<double>(now_ns() - f.start_ns) * 1e-9;
  f.blocked0_s = slot->recv_blocked_s;
}

void overlap_mark_finish_end() {
  RankSlot* slot = tl_slot;
  if (slot == nullptr || !analysis_enabled() || slot->overlap_depth <= 0)
    return;
  auto& f = slot->overlap_stack[static_cast<std::size_t>(--slot->overlap_depth)];
  const char* phase = f.phase != nullptr ? f.phase : kUnphased;
  PhaseWaitSlot& w = slot->waits[phase];
  w.w.halo_ops++;
  w.w.overlap_covered_s += f.covered_s;
  w.w.overlap_waited_s += slot->recv_blocked_s - f.blocked0_s;
}

std::vector<PhaseWaitSample> wait_samples(int rank) {
  const RankSlot& slot = checked_slot(rank);
  // Merge by phase *content*: identical literals in different translation
  // units may have different addresses.
  std::map<std::string, PhaseWaitSlot> merged;
  for (const auto& [phase, pw] : slot.waits) {
    PhaseWaitSlot& m = merged[phase];
    m.w.late_sender_s += pw.w.late_sender_s;
    m.w.transfer_s += pw.w.transfer_s;
    m.w.late_receiver_s += pw.w.late_receiver_s;
    m.w.collective_s += pw.w.collective_s;
    m.w.overlap_covered_s += pw.w.overlap_covered_s;
    m.w.overlap_waited_s += pw.w.overlap_waited_s;
    m.w.recvs += pw.w.recvs;
    m.w.waited_recvs += pw.w.waited_recvs;
    m.w.collectives += pw.w.collectives;
    m.w.halo_ops += pw.w.halo_ops;
    for (const auto& [src, secs] : pw.late_sender_by_rank)
      m.late_sender_by_rank[src] += secs;
  }
  std::vector<PhaseWaitSample> out;
  out.reserve(merged.size());
  for (auto& [phase, pw] : merged) {
    PhaseWaitSample s;
    s.phase = phase;
    s.w = pw.w;
    s.late_sender_by_rank.assign(pw.late_sender_by_rank.begin(),
                                 pw.late_sender_by_rank.end());
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<PhaseWaitSample> wait_samples() {
  RankSlot* slot = tl_slot;
  return slot != nullptr ? wait_samples(slot->rank)
                         : std::vector<PhaseWaitSample>{};
}

// ---- flow events ------------------------------------------------------

void flow_emit(int peer, int channel, bool outgoing) {
  RankSlot* slot = tl_slot;
  if (slot == nullptr) return;
  // Both endpoints must advance the same per-(channel, src, dst) sequence
  // regardless of tracing state, or ids desynchronize when tracing is
  // toggled mid-run.
  const int src = outgoing ? slot->rank : peer;
  const int dst = outgoing ? peer : slot->rank;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(channel) * 4096 +
       static_cast<std::uint64_t>(src)) *
          4096 +
      static_cast<std::uint64_t>(dst);
  const std::uint32_t seq = slot->flow_seq[key]++;
  if ((detail::mask() & 1) == 0) return;
  if (slot->flows.size() >= state().ring_capacity) {
    slot->flow_dropped++;
    return;
  }
  slot->flows.push_back(
      FlowEvent{(key << 24) | (seq & 0xffffffu), now_ns(), outgoing});
}

std::vector<FlowEvent> flows(int rank) { return checked_slot(rank).flows; }

std::uint64_t flow_dropped(int rank) { return checked_slot(rank).flow_dropped; }

// ---- trace export -----------------------------------------------------

namespace {

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kPhase: return "phase";
    case Cat::kComm: return "comm";
    case Cat::kLatency: return "latency";
    case Cat::kSolver: break;
  }
  return "solver";
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

std::string chrome_trace_json() {
  State& s = state();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n";
  };
  for (std::size_t r = 0; r < s.slots.size(); ++r) {
    comma();
    out += "{\"ph\": \"M\", \"pid\": 0, \"tid\": " + std::to_string(r) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"rank " +
           std::to_string(r) + "\"}}";
  }
  for (std::size_t r = 0; r < s.slots.size(); ++r) {
    const RankSlot& slot = *s.slots[r];
    for (std::size_t i = 0; i < slot.count; ++i) {
      const SpanEvent& e = slot.ring[i];
      comma();
      out += "{\"ph\": \"X\", \"pid\": 0, \"tid\": " + std::to_string(r) +
             ", \"name\": \"" + e.name + "\", \"cat\": \"" +
             cat_name(e.cat) + "\", \"ts\": ";
      append_double(out, static_cast<double>(e.start_ns) / 1000.0);
      out += ", \"dur\": ";
      append_double(out, static_cast<double>(e.dur_ns) / 1000.0);
      out += "}";
    }
  }
  // Perfetto flow arrows: "s" on the sending rank's *_begin, "f"
  // (binding to the enclosing slice) on the receiving rank's *_finish
  // span. Matching requires identical name/cat plus the shared id.
  for (std::size_t r = 0; r < s.slots.size(); ++r) {
    for (const FlowEvent& f : s.slots[r]->flows) {
      comma();
      out += "{\"ph\": \"";
      out += f.start ? 's' : 'f';
      out += "\", \"pid\": 0, \"tid\": " + std::to_string(r) +
             ", \"name\": \"halo\", \"cat\": \"flow\", \"id\": " +
             std::to_string(f.id) + ", \"ts\": ";
      append_double(out, static_cast<double>(f.ns) / 1000.0);
      if (!f.start) out += ", \"bp\": \"e\"";
      out += "}";
    }
  }
  // Per-rank dropped-event counts so trace validators can reject
  // truncated recordings instead of silently passing them.
  out += "\n], \"displayTimeUnit\": \"ms\", \"alpsDropped\": [";
  for (std::size_t r = 0; r < s.slots.size(); ++r) {
    if (r > 0) out += ", ";
    out += std::to_string(s.slots[r]->dropped);
  }
  out += "], \"alpsFlowDropped\": [";
  for (std::size_t r = 0; r < s.slots.size(); ++r) {
    if (r > 0) out += ", ";
    out += std::to_string(s.slots[r]->flow_dropped);
  }
  out += "]}";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("obs: cannot open trace output " + path);
  f << chrome_trace_json() << '\n';
}

std::string maybe_write_trace(const std::string& default_path) {
  if (!enabled()) return {};
  std::string path = default_path;
  if (const char* env = std::getenv("ALPS_TRACE_OUT"))
    if (*env != '\0') path = env;
  write_chrome_trace(path);
  return path;
}

}  // namespace alps::obs
