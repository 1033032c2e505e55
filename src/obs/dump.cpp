#include "obs/dump.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

namespace alps::obs {

namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "obs::panic_dump: cannot write %s\n",
                 path.string().c_str());
    return;
  }
  f << body;
  if (!body.empty() && body.back() != '\n') f << '\n';
}

void append_double(std::string& out, double v) {
  // null for non-finite: residual histories of a diverged solve routinely
  // hold NaN/Inf, and the bundle must stay valid JSON.
  char buf[40] = "null";
  if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.12g", v);
  out += buf;
}

std::string counters_json() {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : aggregate_counters()) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + name + "\": " + std::to_string(value);
  }
  out += "\n}";
  return out;
}

std::string residuals_json() {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, hists] : histories()) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + name + "\": [";
    for (std::size_t h = 0; h < hists.size(); ++h) {
      if (h > 0) out += ", ";
      out += "[";
      for (std::size_t i = 0; i < hists[h].size(); ++i) {
        if (i > 0) out += ", ";
        append_double(out, hists[h][i]);
      }
      out += "]";
    }
    out += "]";
  }
  out += "\n}";
  return out;
}

std::string memory_json() {
  if (!mem_enabled()) return "{\"available\": false}";
  std::string out = "{\"available\": true,\n  \"accounted\": {";
  std::uint64_t total = 0, hwm_max = 0;
  const char* hwm_phase = nullptr;
  out += "\"by_rank\": [";
  const int p = world_size();
  for (int r = 0; r < p; ++r) {
    if (r > 0) out += ", ";
    const std::uint64_t acc = mem_accounted(r);
    total += acc;
    out += std::to_string(acc);
    const MemHwm h = mem_hwm(r);
    if (h.bytes >= hwm_max) {
      hwm_max = h.bytes;
      hwm_phase = h.phase;
    }
  }
  out += "], \"total_bytes\": " + std::to_string(total);
  out += ", \"hwm_bytes\": " + std::to_string(hwm_max);
  out += ", \"hwm_phase\": \"" +
         std::string(hwm_phase != nullptr ? hwm_phase : "") + "\"},";
  const RssSample rss = sample_rss();
  if (rss.available) {
    const RssPeak peak = rss_peak();
    out += "\n  \"rss\": {\"available\": true, \"rss_bytes\": " +
           std::to_string(rss.rss_bytes) +
           ", \"hwm_bytes\": " +
           std::to_string(std::max(rss.hwm_bytes, peak.bytes)) +
           ", \"peak_phase\": \"" +
           std::string(peak.phase != nullptr ? peak.phase : "") + "\"},";
  } else {
    out += "\n  \"rss\": {\"available\": false},";
  }
  out += "\n  \"scopes\": {";
  bool first = true;
  for (const auto& [name, bytes] : aggregate_mem()) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + name + "\": " + std::to_string(bytes);
  }
  out += "\n  }\n}";
  return out;
}

}  // namespace

std::string phases_json(const std::vector<PhaseBreakdown>& phases) {
  std::string out = "[";
  bool first = true;
  for (const PhaseBreakdown& p : phases) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": \"" + p.name + "\", \"min_s\": ";
    append_double(out, p.min_s);
    out += ", \"median_s\": ";
    append_double(out, p.median_s);
    out += ", \"max_s\": ";
    append_double(out, p.max_s);
    out += ", \"mean_s\": ";
    append_double(out, p.mean_s);
    out += ", \"total_s\": ";
    append_double(out, p.total_s);
    out += ", \"imbalance\": ";
    append_double(out, p.imbalance);
    out += ", \"ranks\": " + std::to_string(p.ranks) + "}";
  }
  out += "\n]";
  return out;
}

std::string dump_dir() {
  if (const char* env = std::getenv("ALPS_DUMP_DIR"))
    if (*env != '\0') return env;
  return "alps_dump";
}

std::string panic_dump(const std::string& reason) noexcept {
  try {
    const std::filesystem::path dir = dump_dir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "obs::panic_dump: cannot create %s: %s\n",
                   dir.string().c_str(), ec.message().c_str());
      return {};
    }
    write_file(dir / "reason.txt", reason);
    write_file(dir / "trace.json", chrome_trace_json());
    write_file(dir / "counters.json", counters_json());
    write_file(dir / "phases.json", phases_json(aggregate_phases()));
    write_file(dir / "residuals.json", residuals_json());
    write_file(dir / "memory.json", memory_json());
    std::string tail;
    for (const std::string& line : telemetry_tail()) tail += line + "\n";
    write_file(dir / "telemetry_tail.jsonl", tail);
    std::fprintf(stderr, "obs::panic_dump: flight-recorder bundle in %s (%s)\n",
                 dir.string().c_str(), reason.c_str());
    return dir.string();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs::panic_dump: failed: %s\n", e.what());
    return {};
  }
}

}  // namespace alps::obs
