#pragma once
// Shared helpers for the paper-reproduction benches: fixed-width table
// printing and common workload builders. Each bench binary regenerates
// one table or figure of the paper (see DESIGN.md experiment index) and
// prints the paper's reported values alongside for comparison.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "mesh/mesh.hpp"
#include "obs/analysis.hpp"
#include "obs/histogram.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "par/runtime.hpp"

namespace bench {

/// Minimal streaming JSON writer for the machine-readable BENCH_*.json
/// result files. Callers are responsible for balanced open/close calls.
class JsonWriter {
 public:
  JsonWriter& obj_open(const char* key = nullptr) { return open(key, '{'); }
  JsonWriter& obj_close() { return close('}'); }
  JsonWriter& arr_open(const char* key = nullptr) { return open(key, '['); }
  JsonWriter& arr_close() { return close(']'); }

  JsonWriter& field(const char* key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return raw(key, buf);
  }
  JsonWriter& field(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& field(const char* key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& field(const char* key, int v) { return raw(key, std::to_string(v)); }
  JsonWriter& field(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& field(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonWriter& field(const char* key, const std::string& v) {
    return raw(key, '"' + v + '"');  // bench strings need no escaping
  }
  /// Pre-serialized JSON value emitted verbatim (analysis blocks).
  JsonWriter& field_raw(const char* key, const std::string& v) {
    return raw(key, v);
  }

  const std::string& str() const { return out_; }

  void save(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("JsonWriter: cannot open " + path);
    f << out_ << '\n';
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  JsonWriter& open(const char* key, char c) {
    comma();
    if (key) out_ += '"' + std::string(key) + "\": ";
    out_ += c;
    fresh_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  JsonWriter& raw(const char* key, const std::string& v) {
    comma();
    out_ += '"' + std::string(key) + "\": " + v;
    return *this;
  }
  void comma() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

/// Append the communication counters as a nested object.
inline void json_comm_stats(JsonWriter& j, const alps::par::CommStats& s) {
  j.obj_open("comm")
      .field("p2p_messages", s.p2p_messages)
      .field("p2p_bytes", s.p2p_bytes)
      .field("allreduce_calls", s.allreduce_calls)
      .field("allreduce_bytes", s.allreduce_bytes)
      .field("allgather_calls", s.allgather_calls)
      .field("allgather_bytes", s.allgather_bytes)
      .field("alltoall_calls", s.alltoall_calls)
      .field("alltoall_bytes", s.alltoall_bytes)
      .field("barrier_calls", s.barrier_calls)
      .obj_close();
}

/// Every bench emits its BENCH_*.json through one Reporter so all result
/// files share a schema: the bench's own fields, plus an "obs" array of
/// labeled snapshots (cross-rank phase breakdowns + merged counters) taken
/// after each par::run of interest. Open the top-level object in the
/// constructor, write bench fields through json(), snapshot after runs,
/// and save() once at the end — save closes the object.
class Reporter {
 public:
  /// Opens the top-level object and embeds a "meta" block (git SHA and
  /// build type captured at configure time, wall-clock date — overridable
  /// via ALPS_BENCH_DATE for reproducible CI artifacts — plus ranks /
  /// problem_size when the bench passes them) so every BENCH_*.json is
  /// attributable to the build that produced it.
  explicit Reporter(const std::string& bench_name, int ranks = 0,
                    std::int64_t problem_size = 0);

  JsonWriter& json() { return j_; }

  /// Capture the obs aggregates of the most recent par::run under `label`:
  /// phase breakdowns, merged counters, the wait-state / critical-path
  /// roll-up of every analyze_step the run performed, cross-rank latency
  /// histograms (per-phase count / sum / p50 / p95 / p99 / max rows). The
  /// analysis step records are consumed (reset) so the next snapshot only
  /// sees its own run.
  void snapshot_obs(const std::string& label);

  /// Close the top-level object (appending the obs snapshots) and write.
  void save(const std::string& path);

 private:
  struct Snapshot {
    std::string label;
    std::vector<alps::obs::PhaseBreakdown> phases;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    alps::obs::analysis::RunSummary analysis;
    // Cross-rank merged duration histograms (obs/histogram.hpp): one
    // percentile row per recorded phase in the JSON output.
    std::vector<std::pair<std::string, alps::obs::Histogram>> latency;
    // Memory accounting of the run (obs/mem.hpp): per-scope bytes summed
    // over ranks, plus the process RSS sample and cadence-sampled peak.
    bool mem_enabled = false;
    std::vector<std::pair<std::string, std::uint64_t>> mem_scopes;
    alps::obs::RssSample rss;
    alps::obs::RssPeak rss_peak;
  };
  JsonWriter j_;
  std::vector<Snapshot> snaps_;
};

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("NOTE: %s\n", text.c_str()); }

/// Refine toward a Gaussian front to produce a realistically adapted mesh.
inline void adapt_toward_point(alps::par::Comm& comm, alps::forest::Forest& f,
                               const std::array<double, 3>& center, int rounds,
                               int max_level) {
  using alps::octree::octant_len;
  for (int round = 0; round < rounds; ++round) {
    const auto& conn = f.connectivity();
    std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
    for (std::size_t e = 0; e < flags.size(); ++e) {
      const auto& o = f.tree().leaves()[e];
      const auto h = octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      const double d2 = (p[0] - center[0]) * (p[0] - center[0]) +
                        (p[1] - center[1]) * (p[1] - center[1]) +
                        (p[2] - center[2]) * (p[2] - center[2]);
      if (d2 < 0.15 && o.level < max_level) flags[e] = 1;
    }
    f.tree().adapt(flags, 0, max_level);
    f.tree().update_ranges(comm);
  }
  f.balance(comm);
  f.partition(comm);
}

/// Measured per-element host rates of the advection-AMR pipeline phases,
/// obtained from a real single-rank calibration run. These feed the
/// performance model (src/perf) that synthesizes the paper's large-P
/// curves; see DESIGN.md (substitutions).
struct AmrRates {
  double time_integration = 0;  // s / element / time step
  double mark = 0;              // s / element / adaptation
  double coarsen_refine = 0;
  double balance = 0;
  double interpolate = 0;
  double partition = 0;
  double extract = 0;
  long long elements = 0;
  int steps = 0;
  int adapts = 0;
};

AmrRates calibrate_advection_rates(int init_level = 4, int steps = 24,
                                   int adapt_every = 8);

}  // namespace bench
