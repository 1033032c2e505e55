// rhea_main: config-file-driven mantle convection driver, the production
// entry point a released RHEA would ship. Reads a simple key = value
// config, runs the simulation, reports diagnostics, and optionally dumps
// VTK snapshots for visualization.
//
// Usage:
//   ./rhea_main path/to/config.cfg
//   ./rhea_main --print-default-config > convection.cfg
//
// Config keys (defaults in parentheses):
//   ranks (2)               simulated MPI ranks
//   steps (6)               time steps to run
//   bricks_x/y/z (8/4/1)    domain decomposition in trees
//   init_level (1)          initial uniform refinement
//   min_level/max_level (1/4)
//   target_elements (5000)  MARKELEMENTS target
//   adapt_every (2)
//   rayleigh (1e5)
//   sigma_y (1.0)           yield stress (<= 0 disables yielding: Arrhenius)
//   strain_weight (0.5)     yielding-zone term in the indicator
//   picard_iterations (2)
//   minres_rtol (1e-5)
//   minres_maxit (1000)
//   vtk_prefix ()           when set, write <prefix>_<n>.vtk per adaptation
//   sentinels (1)           NaN/Inf field checks after every step
//   nan_inject_step (-1)    test hook: poison the temperature at this step
//   slow_rank (-1)          test hook: artificially delay this rank every
//   slow_rank_us (0)        step by slow_rank_us microseconds, so the
//                           wait-state analyzer must blame it (late sender)
//   mem_drift_window (8)    sliding window (steps) of the memory-drift fit
//   mem_drift_warn_bytes_per_step (1048576)   warn threshold
//   mem_drift_panic_bytes_per_step (0)        flight-recorder threshold
//   mem_drift_inject_rank (-1)  test hook: synthetic linear leak on this
//   mem_drift_inject_bytes (0)  rank, growing by this many bytes per step
//   signal_self_step (-1)   test hook: raise SIGTERM after this step, to
//                           exercise the graceful-shutdown path
//
// Observability: ALPS_TELEMETRY=1 streams one JSONL record per time step
// to ALPS_TELEMETRY_OUT (default alps_telemetry.jsonl). If the sentinels
// trip (or nan_inject_step fires), a flight-recorder bundle is written to
// ALPS_DUMP_DIR and the driver exits with code 3 (after lingering
// ALPS_METRICS_LINGER seconds when the metrics endpoint is up, so an
// external prober can observe the 503). ALPS_METRICS_PORT starts the
// rank-0 live endpoint (obs::serve); the bound port is printed as
// "metrics: serving on port N".
//
// SIGTERM/SIGINT request a graceful shutdown: every rank finishes the
// current step, breaks out of the loop together, the trace ring and
// telemetry tail are flushed, and the driver exits with code 130. A
// second signal hard-exits immediately.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "io/vtk.hpp"
#include "mesh/fields.hpp"
#include "obs/dump.hpp"
#include "obs/obs.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

namespace {

/// Signals received so far. The handler only bumps the counter (async-
/// signal-safe); the step loop polls it at a collective point so every
/// rank breaks together. A second signal hard-exits: the user asked twice.
std::atomic<int> g_signals{0};

void on_signal(int) {
  if (g_signals.fetch_add(1, std::memory_order_relaxed) >= 1) _exit(130);
}

struct Config {
  std::map<std::string, std::string> kv;

  double num(const std::string& key, double def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : std::stod(it->second);
  }
  int integer(const std::string& key, int def) const {
    return static_cast<int>(num(key, def));
  }
  std::string str(const std::string& key, const std::string& def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }

  static Config parse(std::istream& in) {
    Config c;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        if (line.find_first_not_of(" \t\r") != std::string::npos)
          throw std::runtime_error("config line " + std::to_string(lineno) +
                                   ": expected key = value");
        continue;
      }
      const auto trim = [](std::string s) {
        const auto b = s.find_first_not_of(" \t\r");
        const auto e = s.find_last_not_of(" \t\r");
        return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
      };
      const std::string key = trim(line.substr(0, eq));
      const std::string val = trim(line.substr(eq + 1));
      if (key.empty() || val.empty())
        throw std::runtime_error("config line " + std::to_string(lineno) +
                                 ": empty key or value");
      c.kv[key] = val;
    }
    return c;
  }
};

constexpr const char* kDefaultConfig = R"(# RHEA mantle convection configuration
ranks = 2
steps = 6
bricks_x = 8
bricks_y = 4
bricks_z = 1
init_level = 1
min_level = 1
max_level = 4
target_elements = 5000
adapt_every = 2
rayleigh = 1e5
sigma_y = 1.0
strain_weight = 0.5
picard_iterations = 2
minres_rtol = 1e-5
minres_maxit = 1000
sentinels = 1
# nan_inject_step = -1
# vtk_prefix = rhea_out
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--print-default-config") {
    std::fputs(kDefaultConfig, stdout);
    return 0;
  }
  Config cfg;
  if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "error: cannot open config '%s'\n", argv[1]);
      return 1;
    }
    try {
      cfg = Config::parse(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else if (argc > 2) {
    std::fprintf(stderr, "usage: %s [config.cfg | --print-default-config]\n",
                 argv[0]);
    return 1;
  }

  const int ranks = std::max(1, cfg.integer("ranks", 2));
  const int steps = std::max(1, cfg.integer("steps", 6));
  // Line-buffer stdout even when piped: the metrics scraper and the signal
  // tests read our progress lines from a pipe mid-run.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("RHEA driver: %d ranks, %d steps\n", ranks, steps);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const int metrics_port = obs::serve_maybe_start();
  if (metrics_port >= 0)
    std::printf("metrics: serving on port %d\n", metrics_port);
  obs::metrics_set_target_steps(steps);

  try {
  alps::par::run(ranks, [&cfg, steps](par::Comm& comm) {
    rhea::SimConfig sim_cfg;
    sim_cfg.conn = forest::Connectivity::brick(cfg.integer("bricks_x", 8),
                                               cfg.integer("bricks_y", 4),
                                               cfg.integer("bricks_z", 1));
    sim_cfg.init_level = cfg.integer("init_level", 1);
    sim_cfg.min_level = cfg.integer("min_level", 1);
    sim_cfg.max_level = cfg.integer("max_level", 4);
    sim_cfg.initial_adapt_rounds = 2;
    sim_cfg.adapt_every = cfg.integer("adapt_every", 2);
    sim_cfg.target_elements = cfg.integer("target_elements", 5000);
    sim_cfg.strain_weight = cfg.num("strain_weight", 0.5);
    sim_cfg.picard.rayleigh = cfg.num("rayleigh", 1e5);
    sim_cfg.picard.max_iterations = cfg.integer("picard_iterations", 2);
    sim_cfg.picard.stokes.krylov.rtol = cfg.num("minres_rtol", 1e-5);
    sim_cfg.picard.stokes.krylov.max_iterations =
        cfg.integer("minres_maxit", 1000);
    sim_cfg.sentinels = cfg.integer("sentinels", 1) != 0;
    sim_cfg.nan_inject_step = cfg.integer("nan_inject_step", -1);
    sim_cfg.slow_rank = cfg.integer("slow_rank", -1);
    sim_cfg.slow_rank_us = cfg.integer("slow_rank_us", 0);
    sim_cfg.mem_drift_window = cfg.integer("mem_drift_window", 8);
    sim_cfg.mem_drift_warn_bytes_per_step =
        cfg.num("mem_drift_warn_bytes_per_step", 1 << 20);
    sim_cfg.mem_drift_panic_bytes_per_step =
        cfg.num("mem_drift_panic_bytes_per_step", 0.0);
    sim_cfg.mem_drift_inject_rank = cfg.integer("mem_drift_inject_rank", -1);
    sim_cfg.mem_drift_inject_bytes = static_cast<std::int64_t>(
        cfg.num("mem_drift_inject_bytes", 0));
    const double sigma_y = cfg.num("sigma_y", 1.0);
    if (sigma_y > 0) {
      rhea::YieldingLawOptions yopt;
      yopt.sigma_y = sigma_y;
      sim_cfg.law = rhea::three_layer_yielding(yopt);
    } else {
      sim_cfg.law = rhea::arrhenius(1.0, 6.9);
    }

    rhea::Simulation sim(comm, sim_cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      const double conductive = 1.0 - p[2];
      const double pert = 0.08 * std::cos(M_PI * p[0] / 4.0) *
                          std::cos(M_PI * p[1] / 2.0) * std::sin(M_PI * p[2]);
      return std::clamp(conductive + pert, 0.0, 1.0);
    });

    const std::string vtk_prefix = cfg.str("vtk_prefix", "");
    const int signal_self_step = cfg.integer("signal_self_step", -1);
    int snapshot = 0;
    if (comm.rank() == 0)
      std::printf("\n%6s %10s %10s %12s\n", "step", "time", "elements",
                  "v_rms");
    for (int s = 0; s < steps; ++s) {
      // Graceful shutdown: the handler set a process-global flag; the
      // allreduce makes the break collective so no rank is left waiting
      // inside a later collective.
      if (comm.allreduce_or(g_signals.load(std::memory_order_relaxed) > 0))
        break;
      const std::size_t adapts_before = sim.adapt_history().size();
      sim.run(1);
      if (s + 1 == signal_self_step && comm.rank() == 0)
        std::raise(SIGTERM);
      double v2 = 0, n = 0;
      for (std::int64_t d = 0; d < sim.mesh().n_owned; ++d) {
        for (int c = 0; c < 3; ++c) {
          const double v = sim.solution()[static_cast<std::size_t>(d * 4 + c)];
          v2 += v * v;
        }
        n += 1;
      }
      v2 = comm.allreduce_sum(v2);
      n = comm.allreduce_sum(n);
      const std::int64_t ne = sim.global_elements();
      if (comm.rank() == 0)
        std::printf("%6d %10.2e %10lld %12.3e\n", s + 1, sim.time(),
                    static_cast<long long>(ne), std::sqrt(v2 / n));
      if (!vtk_prefix.empty() &&
          sim.adapt_history().size() > adapts_before) {
        io::VtkField field{
            "T", mesh::to_element_values(sim.mesh(), sim.temperature())};
        const std::string path =
            vtk_prefix + "_" + std::to_string(snapshot++) + ".vtk";
        io::write_vtk(comm, sim.forest().connectivity(), sim.mesh(), path,
                      {field});
        if (comm.rank() == 0) std::printf("  wrote %s\n", path.c_str());
      }
    }
    // amg.apply runs inside stokes.minres.
    const double solve = obs::phase_seconds("stokes.minres") +
                         obs::phase_seconds("amg.setup") +
                         obs::phase_seconds("stokes.assemble") +
                         obs::phase_seconds("energy.time_integration");
    const double amr = rhea::amr_seconds();
    if (comm.rank() == 0)
      std::printf("\ntimers: solve %.2fs, AMR %.3fs (%.2f%% of solve)\n",
                  solve, amr, 100.0 * amr / solve);
  });
  } catch (const rhea::SentinelError& e) {
    // The flight-recorder bundle was written before the throw; report the
    // structured failure and exit distinctly so CI can assert on it. The
    // simulation marked the endpoint unhealthy before throwing — keep
    // serving the 503 briefly so an external prober can observe it.
    std::fprintf(stderr, "rhea: SENTINEL TRIP: %s\n", e.what());
    std::fprintf(stderr, "rhea: flight-recorder bundle in %s\n",
                 obs::dump_dir().c_str());
    obs::metrics_linger_if_unhealthy();
    obs::serve_stop();
    return 3;
  }

  // With ALPS_TRACE set, dump the per-rank span timeline of the run.
  const std::string trace = obs::maybe_write_trace("rhea_trace.json");
  if (!trace.empty())
    std::printf("trace written to %s (open in https://ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace.c_str());
  if (obs::telemetry_enabled())
    std::printf("telemetry: %llu records in %s\n",
                static_cast<unsigned long long>(obs::telemetry_records()),
                obs::telemetry_path().c_str());
  obs::serve_stop();
  if (g_signals.load(std::memory_order_relaxed) > 0) {
    // The trace and telemetry flushes above already ran — the JSONL file
    // holds every completed step and the trace (when ALPS_TRACE is set)
    // covers the truncated run. 130 = terminated by signal, softly.
    std::fprintf(stderr, "rhea: interrupted, shut down cleanly\n");
    return 130;
  }
  return 0;
}
