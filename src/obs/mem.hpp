#pragma once
// alps::obs memory observability — per-subsystem byte accounting and
// process-level RSS sampling (DESIGN.md §12).
//
// The paper's scalability claim is that AMR + AMG keep memory per core
// bounded as the mesh adapts; this module makes that claim measurable.
// Two complementary views, deliberately kept apart:
//
//  1. *Accounted* bytes: the big owners (mesh/forest, la::DistCsr,
//     amg::DistAmg, par mailboxes, obs itself) report what they hold into
//     a registry of named scopes ("amg.operators", "mesh.halo", ...)
//     mirroring the counter registry — interned name -> small id, one
//     value slot per rank, lock-free on the owning rank thread. Scope
//     names use a "subsystem.detail" convention; aggregation by the
//     prefix before the first '.' yields the per-subsystem breakdown and
//     the bytes/dof figures gated by bench_memory.
//  2. *RSS*: what the OS actually charges the process, sampled from
//     /proc/self/statm + /proc/self/status (VmHWM). Off-Linux or when
//     /proc is unreadable the sample degrades to available:false rather
//     than fabricating zeros.
//
// High-water marks are attributed to the innermost OBS_PHASE_SPAN open
// when the peak was set, so a spike names the phase that caused it. The
// accounted HWM updates on every mem_set/mem_add; the RSS peak is
// sampled on every ALPS_MEM_SAMPLE-th phase-span close (default 16 —
// RSS only moves when allocations happen, and those sit inside phases).
//
// Enablement: ALPS_MEM (default ON — accounting is a handful of adds per
// timestep, never per-element) or set_mem_enabled(). -DALPS_OBS_DISABLE
// compiles the OBS_MEM_SCOPE macro out and pins mem_enabled() to false.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace alps::obs {

// ---- enablement -------------------------------------------------------

/// True unless ALPS_MEM is "0" or set_mem_enabled(false) was called.
/// Process-global, so collective code may branch on it symmetrically.
bool mem_enabled();
void set_mem_enabled(bool on);  // overrides ALPS_MEM

// ---- scope registry ---------------------------------------------------

using MemScopeId = std::uint32_t;

/// Heap bytes a vector holds — capacity-based, i.e. what the allocator
/// actually charges, not just what is in use. The owners' memory_bytes()
/// accessors are built from this.
template <typename T>
std::uint64_t vec_bytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
}

/// Intern `name` ("subsystem.detail") into the registry (thread-safe;
/// cache the id in a function-local static at reporting sites).
MemScopeId mem_scope(const char* name);

/// Set this rank's byte count for `id` to the absolute value `bytes`
/// (owners recompute their footprint and report the total). No-op on
/// unbound threads or when disabled.
void mem_set(MemScopeId id, std::uint64_t bytes);
/// Adjust this rank's byte count for `id` by `delta`, clamped at zero.
void mem_add(MemScopeId id, std::int64_t delta);

/// Current bytes of `id` on `rank` / summed accounted bytes of `rank`.
/// Safe from the owning rank thread or after par::run has joined.
std::uint64_t mem_bytes(int rank, MemScopeId id);
std::uint64_t mem_accounted(int rank);
/// Accounted bytes of the calling thread's bound rank (0 unbound).
std::uint64_t mem_accounted();

/// Accounted high-water mark of one rank with the innermost phase that
/// was open when it was last raised (nullptr = outside any phase).
struct MemHwm {
  std::uint64_t bytes = 0;
  const char* phase = nullptr;
};
MemHwm mem_hwm(int rank);

/// Per-scope bytes summed over all rank slots; sorted by name, zero
/// scopes omitted. Call after par::run has joined.
std::vector<std::pair<std::string, std::uint64_t>> aggregate_mem();
/// All non-zero scopes of the calling thread's rank, sorted by name
/// (the memory section of obs::analysis::analyze_step's per-rank blob).
std::vector<std::pair<std::string, std::uint64_t>> mem_snapshot();

// ---- RAII tag for transients ------------------------------------------

/// Tags a transient allocation (e.g. the AMR interpolation workspace):
/// adds `bytes` to `id` for the scope's lifetime. For long-lived owners
/// prefer recomputing and mem_set-ing the absolute footprint.
class MemScope {
 public:
  MemScope(MemScopeId id, std::uint64_t bytes);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;
  /// Re-tag to a new size (the workspace grew or shrank).
  void resize(std::uint64_t bytes);

 private:
  MemScopeId id_;
  std::uint64_t bytes_;
};

#ifndef ALPS_OBS_DISABLE
#ifndef ALPS_OBS_CONCAT
#define ALPS_OBS_CONCAT2(a, b) a##b
#define ALPS_OBS_CONCAT(a, b) ALPS_OBS_CONCAT2(a, b)
#endif
/// Scoped transient-allocation tag: OBS_MEM_SCOPE("amr.workspace", n).
#define OBS_MEM_SCOPE(name, bytes)                                        \
  static const ::alps::obs::MemScopeId ALPS_OBS_CONCAT(                   \
      obs_mem_id_, __LINE__) = ::alps::obs::mem_scope(name);              \
  ::alps::obs::MemScope ALPS_OBS_CONCAT(obs_mem_scope_, __LINE__)(        \
      ALPS_OBS_CONCAT(obs_mem_id_, __LINE__),                             \
      static_cast<std::uint64_t>(bytes))
#else
#define OBS_MEM_SCOPE(name, bytes) ((void)0)
#endif

// ---- process RSS ------------------------------------------------------

/// One /proc sample. available is false off-Linux, when /proc is
/// unreadable, or under set_rss_unavailable_for_testing — consumers must
/// then omit the numeric fields entirely (checked by check_telemetry.py).
struct RssSample {
  bool available = false;
  std::uint64_t rss_bytes = 0;  // VmRSS right now
  std::uint64_t hwm_bytes = 0;  // VmHWM: kernel-tracked lifetime peak
};
RssSample sample_rss();
/// Force the unavailable path regardless of /proc (tests).
void set_rss_unavailable_for_testing(bool forced);

/// Highest RSS seen by the cadence sampler since world_begin, with the
/// innermost phase open on the sampling thread when it was set. The
/// process address space is shared by every in-process rank, so this is
/// per-world, not per-rank.
struct RssPeak {
  std::uint64_t bytes = 0;
  const char* phase = nullptr;
};
RssPeak rss_peak();

namespace memdetail {
// Called by the obs world/rank lifecycle (obs.cpp).
void world_begin(int nranks);
void rank_bind(int rank);
void rank_unbind();
/// Called on every phase-span close; samples RSS every ALPS_MEM_SAMPLE-th
/// call (default 16) and folds the result into rss_peak().
void phase_close_tick(const char* phase);
}  // namespace memdetail

}  // namespace alps::obs
