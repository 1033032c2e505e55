// bench_step: one process of the timestep benchmark. It runs one workload
// through rhea::Simulation's public API and writes the raw measurements as
// JSON; benchmark/run.py builds this binary, runs it, checks the outputs
// and prints the metrics.
//
//   bench_step --workload NAME [--seed N] [--episodes E] [--trace]
//              [--quick] [--stream-mib M] [--out result.json]
//              [--trace-out trace.json] [--telemetry-out telemetry.jsonl]
//
// Every process first runs an untimed warm-up at 1/8 of the target size,
// then runs E timed episodes, each a fresh Simulation set up and advanced
// step by step, with a barrier closing every step so rank 0's clock is
// the slowest rank's. When E < 5, setup-only repetitions bring the
// setup_s samples to five. Output checks run between steps, outside the
// clock.
//
// With --trace the process instead measures the host's stream bandwidth
// and runs one traced episode: the driver issues Simulation::run's
// schedule itself (adapt_once, update_velocity, run(1)) inside
// barrier-closed spans, layer probes run between steps on copies of the
// live state, and an untraced twin runs interleaved with it. Spans are
// recorded by this file only, kept in memory, and written as Chrome-trace
// JSON at exit. Probes call production entry points only.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mesh/ghost.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "octree/mark.hpp"
#include "octree/partition.hpp"
#include "par/runtime.hpp"
#include "rhea/diagnostics.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---- workloads --------------------------------------------------------

struct Workload {
  std::string name;
  int ranks = 4;
  int steps = 8;
  bool convection = true;
  bool telemetry = false;
  int adapt_every = 4;
  int stokes_every = 1;
  std::int64_t target = 5000;
  rhea::SimConfig cfg;
  std::function<double(const std::array<double, 3>&)> t0;
};

/// splitmix64: the seed's only use is to derive the initial field.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
double unit(std::uint64_t seed, int k) {
  return static_cast<double>(mix(seed * 8 + static_cast<std::uint64_t>(k)) >>
                             11) *
         0x1.0p-53;
}

/// Convection (rhea_main's production configuration with a converging
/// MINRES budget) or the Sec. V rotating-front transport problem.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  if (name == "convection" || name == "convection_p1") {
    w.ranks = name == "convection" ? 4 : 1;
    w.steps = 8;
    w.adapt_every = 4;
    w.stokes_every = 1;
    w.target = 5000;
    rhea::SimConfig& c = w.cfg;
    c.conn = forest::Connectivity::brick(8, 4, 1);
    c.init_level = 1;
    c.min_level = 1;
    c.max_level = 4;
    c.initial_adapt_rounds = 2;
    c.strain_weight = 0.5;
    c.picard.rayleigh = 1e5;
    c.picard.max_iterations = 2;
    c.picard.stokes.krylov.rtol = 1e-5;
    c.picard.stokes.krylov.max_iterations = 1000;
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 1.0;
    c.law = rhea::three_layer_yielding(yopt);
    // rhea_main's initial field plus a seeded-phase mode of amplitude
    // 1e-5. MINRES iteration counts react to the initial field: seeded
    // phases of the main mode, or a 1e-3 secondary mode, spread them by
    // 10-20% across seeds and some phases need more than 1000 iterations;
    // at 1e-5 the mesh is the same for every seed and the counts stay
    // within ~2%.
    const double px = kTwoPi * unit(seed, 0), py = kTwoPi * unit(seed, 1);
    w.t0 = [px, py](const std::array<double, 3>& p) {
      constexpr double pi = std::numbers::pi;
      const double conductive = 1.0 - p[2];
      const double pert =
          (0.08 * std::cos(pi * p[0] / 4.0) * std::cos(pi * p[1] / 2.0) +
           1e-5 * std::cos(pi * p[0] / 2.0 + px) * std::cos(pi * p[1] + py)) *
          std::sin(pi * p[2]);
      return std::clamp(conductive + pert, 0.0, 1.0);
    };
  } else if (name == "amr_churn" || name == "advection_monitored") {
    const bool churn = name == "amr_churn";
    w.ranks = 4;
    w.convection = false;
    w.telemetry = !churn;
    w.steps = churn ? 100 : 160;
    w.adapt_every = churn ? 2 : 16;
    w.target = 100000;
    rhea::SimConfig& c = w.cfg;
    c.conn = forest::Connectivity::unit_cube();
    c.init_level = 4;
    c.min_level = 2;
    c.max_level = 7;
    c.initial_adapt_rounds = 3;
    c.partition_threshold = churn ? 0.0 : 1.3;
    c.energy.kappa = 1e-6;
    c.energy.dirichlet_faces = 0b111111;
    c.prescribed_velocity = [](const std::array<double, 3>& p, double) {
      return std::array<double, 3>{-(p[1] - 0.5), p[0] - 0.5, 0.0};
    };
    const double a = kTwoPi * unit(seed, 0);
    const double cx = 0.5 + 0.25 * std::cos(a), cy = 0.5 + 0.25 * std::sin(a);
    w.t0 = [cx, cy](const std::array<double, 3>& p) {
      const double dx = p[0] - cx, dy = p[1] - cy, dz = p[2] - 0.5;
      return std::exp(-100.0 * (dx * dx + dy * dy + dz * dz));
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Scale a workload to `target` elements; the Simulation itself never
/// adapts or solves on its own schedule when `driven` (traced runs).
rhea::SimConfig sim_config(const Workload& w, std::int64_t target,
                           bool driven) {
  rhea::SimConfig c = w.cfg;
  c.target_elements = target;
  c.adapt_every = driven ? 0 : w.adapt_every;
  c.stokes_every = driven ? 0 : w.stokes_every;
  return c;
}

/// What Simulation::run does at the step that starts with `s` steps
/// taken: adapt (then update the velocity), or only update the velocity.
struct StepKind {
  bool adapt = false;
  bool velocity = false;
};
StepKind step_kind(const Workload& w, int s) {
  StepKind k;
  k.adapt = s > 0 && w.adapt_every > 0 && s % w.adapt_every == 0;
  k.velocity =
      k.adapt || (w.convection && w.stokes_every > 0 && s > 0 &&
                  s % w.stokes_every == 0);
  return k;
}

// ---- output checks ------------------------------------------------------

/// Operations attempted and failed (one timestep or one final check each)
/// with the first few failure messages. Written by rank 0 only.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

struct SolveTally {
  std::int64_t solves = 0, converged = 0, iterations = 0;
};

/// Post-step checks, outside the step clock: every Krylov solve of the
/// step converged, the forest is 2:1 balanced after an adaptation, and
/// the transported temperature stays in [-0.05, 1.05]. Collective;
/// returns the failure text ("" when the step passed).
std::string check_step(par::Comm& comm, rhea::Simulation& sim,
                       const Workload& w, StepKind kind, SolveTally& tally) {
  std::string why;
  if (kind.velocity && w.convection) {
    const double rtol = w.cfg.picard.stokes.krylov.rtol;
    for (const la::SolveResult& r : sim.last_stokes().solves) {
      const bool ok = r.status == la::SolveStatus::kConverged &&
                      r.relative_residual <= rtol;
      ++tally.solves;
      tally.converged += ok ? 1 : 0;
      tally.iterations += r.iterations;
      if (!ok && why.empty())
        why = "MINRES " + std::string(la::to_string(r.status)) + " after " +
              std::to_string(r.iterations) + " iterations, relres " +
              std::to_string(r.relative_residual);
    }
  }
  if (kind.adapt && !sim.forest().is_balanced(comm) && why.empty())
    why = "forest not 2:1 balanced after adaptation";
  if (!w.convection) {
    double lo = 0.0, hi = 0.0;
    if (sim.mesh().n_owned > 0) {
      const auto t = std::span<const double>(sim.temperature())
                         .first(static_cast<std::size_t>(sim.mesh().n_owned));
      const auto [mn, mx] = std::minmax_element(t.begin(), t.end());
      lo = *mn;
      hi = *mx;
    }
    lo = comm.allreduce_min(lo);
    hi = comm.allreduce_max(hi);
    if ((lo < -0.05 || hi > 1.05) && why.empty())
      why = "temperature left [-0.05, 1.05]: [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]";
  }
  return why;
}

struct FinalState {
  std::int64_t elements = 0;
  rhea::PhysicsDiagnostics diag;
};

FinalState final_state(par::Comm& comm, rhea::Simulation& sim,
                       const Workload& w) {
  FinalState f;
  f.elements = sim.global_elements();
  f.diag = rhea::compute_physics_diagnostics(
      comm, sim.mesh(), sim.forest().connectivity(), sim.temperature(),
      sim.solution(), w.cfg.energy.kappa);
  return f;
}

void record_final(Checks& checks, const FinalState& f, std::int64_t target) {
  const double dev = std::abs(static_cast<double>(f.elements - target)) /
                     static_cast<double>(target);
  checks.record(dev <= 0.2, "final element count " +
                                std::to_string(f.elements) +
                                " is not within 20% of target " +
                                std::to_string(target));
}

// ---- timed (untraced) episodes ---------------------------------------------

struct Episode {
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::vector<double> step_s;
  FinalState final;
  SolveTally solves;
  std::int64_t adaptations = 0;
};

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// An untraced Simulation whose setup (constructor + initialize) and steps
/// (sim.run(1), the schedule run(steps) follows) are each timed between
/// barriers; rank 0 records into `ep` and `checks`. Collective.
class TimedSim {
 public:
  TimedSim(par::Comm& comm, const Workload& w, std::int64_t target,
           Episode& ep, Checks& checks)
      : comm_(comm), w_(w), target_(target), ep_(ep), checks_(checks) {
    comm.barrier();
    const double t0 = now_s();
    sim_ = std::make_unique<rhea::Simulation>(comm, sim_config(w, target, false));
    sim_->initialize(w.t0);
    comm.barrier();
    if (root()) ep.setup_s = now_s() - t0;
  }

  /// Step `s` and its checks; false once a step failed. Failures are
  /// collective, so every rank stops at the same step.
  bool step(int s) {
    if (failed_) return false;
    std::string why;
    comm_.barrier();
    const double t0 = now_s();
    try {
      sim_->run(1);
    } catch (const rhea::SentinelError& e) {
      why = std::string("SentinelError: ") + e.what();
    }
    comm_.barrier();
    const double dt = now_s() - t0;
    if (why.empty()) why = check_step(comm_, *sim_, w_, step_kind(w_, s), tally_);
    if (root()) {
      ep_.step_s.push_back(dt);
      ep_.loop_s += dt;
      checks_.record(why.empty(), "step " + std::to_string(s) + ": " + why);
    }
    failed_ = !why.empty();
    return !failed_;
  }

  /// Final state and the final element-count check.
  void finish() {
    const FinalState fin = final_state(comm_, *sim_, w_);
    if (!root()) return;
    ep_.final = fin;
    ep_.solves = tally_;
    ep_.adaptations = static_cast<std::int64_t>(sim_->adapt_history().size());
    record_final(checks_, fin, target_);
  }

 private:
  bool root() const { return comm_.rank() == 0; }

  par::Comm& comm_;
  const Workload& w_;
  std::int64_t target_;
  Episode& ep_;
  Checks& checks_;
  std::unique_ptr<rhea::Simulation> sim_;
  SolveTally tally_;
  bool failed_ = false;
};

/// One timed episode on `ranks` threads: setup, then `steps` steps.
/// Failures are counted, never thrown.
Episode run_episode(const Workload& w, std::int64_t target, int steps,
                    bool setup_only, Checks& checks) {
  Episode ep;
  par::run(w.ranks, [&](par::Comm& comm) {
    TimedSim sim(comm, w, target, ep, checks);
    if (setup_only) return;
    for (int s = 0; s < steps && sim.step(s); ++s) {
    }
    sim.finish();
  });
  return ep;
}

// ---- traced episode ---------------------------------------------------------

/// One bench span: name, [start, end] with the closing barrier included,
/// the rank's own end of work before that barrier, parent span, step id
/// and rank. The par counters are read between barriers at both ends, so
/// the deltas are exactly the span's own traffic.
struct SpanRec {
  const char* name = "";
  int id = 0, parent = -1, step = -1, rank = 0;
  double start = 0.0, work_end = 0.0, end = 0.0;
  par::CommStats comm0, comm1;
};

class Tracer {
 public:
  Tracer(par::Comm& comm, std::vector<SpanRec>& out)
      : comm_(comm), out_(out) {}

  int step = -1;

  template <typename F>
  void span(const char* name, F&& f) {
    SpanRec r;
    r.name = name;
    r.id = next_id_++;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.step = step;
    r.rank = comm_.rank();
    comm_.barrier();
    r.comm0 = par::snapshot(comm_.stats());
    comm_.barrier();
    r.start = now_s();
    stack_.push_back(r.id);
    // A collective failure (SentinelError) unwinds every rank through
    // the same spans; keep the parent stack right for later spans.
    struct Pop {
      std::vector<int>& s;
      ~Pop() { s.pop_back(); }
    } pop{stack_};
    f();
    r.work_end = now_s();
    comm_.barrier();
    r.end = now_s();
    r.comm1 = par::snapshot(comm_.stats());
    comm_.barrier();
    out_.push_back(r);
  }

 private:
  par::Comm& comm_;
  std::vector<SpanRec>& out_;
  std::vector<int> stack_;
  int next_id_ = 0;
};

/// Per-rank values the probes read locally; summed over ranks afterwards.
struct RankTally {
  double ghost_octants = 0, local_octants = 0;
  double apply_bytes = 0;  // computed bytes per apply (matrix + 2 vectors)
};

/// The calling rank's AMG counters; `measure` adds what `f` moved them by,
/// so probe solves between real ones are never counted.
struct CounterSet {
  std::uint64_t vcycles = 0, full = 0, numeric = 0, skipped = 0;
  static CounterSet read(int rank) {
    namespace wk = obs::wellknown;
    return {obs::counter_value(rank, wk::amg_vcycles()),
            obs::counter_value(rank, wk::amg_setup_full()),
            obs::counter_value(rank, wk::amg_setup_numeric()),
            obs::counter_value(rank, wk::amg_setup_skipped())};
  }
  template <typename F>
  void measure(int rank, F&& f) {
    const CounterSet a = read(rank);
    f();
    const CounterSet b = read(rank);
    vcycles += b.vcycles - a.vcycles;
    full += b.full - a.full;
    numeric += b.numeric - a.numeric;
    skipped += b.skipped - a.skipped;
  }
};

/// Rank-0 results of the traced episode that do not come from spans.
struct TracedOut {
  SolveTally solves;  // the real solves (probe solves excluded)
  CounterSet amg;     // AMG counters moved by the real solves
  std::vector<double> operator_complexity;
  std::vector<double> probe_iterations;
  double touched = 0, touched_base = 0, balance_added = 0, adapt_elements = 0;
  double allreduce_us = 0;
  std::uint64_t telemetry_bytes = 0;
  bool reference_solver = false;  // Stokes layers measured on a reference problem
};

constexpr int kProbeReps = 20;   // saddle applies and V-cycles per probe
constexpr int kEnergyReps = 5;   // energy steps per probe
// Setups per untraced run: single setups vary by ~20% within one run on
// a shared host, so setup_s is a median.
constexpr int kSetupSamples = 5;

/// AMR probe on a copy of the live forest: indicator -> mark -> adapt ->
/// balance -> partition (8 doubles per leaf) -> ghost -> full extract.
void amr_probe(par::Comm& comm, Tracer& tr, const rhea::Simulation& sim,
               const rhea::SimConfig& cfg, RankTally& tally) {
  tr.span("probe.amr", [&] {
    forest::Forest f = sim.forest();
    std::vector<std::int8_t> flags;
    tr.span("octree.mark", [&] {
      const std::vector<double> eta =
          cfg.strain_weight > 0.0
              ? rhea::yielding_indicator(sim.mesh(), f.connectivity(),
                                         sim.temperature(), sim.solution(),
                                         cfg.strain_weight)
              : rhea::gradient_indicator(sim.mesh(), f.connectivity(),
                                         sim.temperature());
      octree::MarkOptions mopt;
      mopt.target_elements = cfg.target_elements;
      mopt.tolerance = cfg.mark_tolerance;
      mopt.coarsen_ratio = cfg.coarsen_ratio;
      mopt.min_level = cfg.min_level;
      mopt.max_level = cfg.max_level;
      flags = octree::mark_elements(comm, f.tree(), eta, mopt);
    });
    tr.span("octree.adapt",
            [&] { f.tree().adapt(flags, cfg.min_level, cfg.max_level); });
    tr.span("forest.balance", [&] { f.balance(comm); });
    tr.span("forest.partition", [&] {
      octree::LeafPayload payload{
          8, std::vector<double>(
                 static_cast<std::size_t>(f.tree().num_local()) * 8, 1.0)};
      octree::LeafPayload* ps[] = {&payload};
      f.partition(comm, ps);
    });
    std::vector<octree::Octant> ghosts;
    tr.span("mesh.ghost", [&] {
      ghosts = mesh::ghost_layer(comm, f.tree(), f.connectivity());
    });
    tally.ghost_octants += static_cast<double>(ghosts.size());
    tally.local_octants += static_cast<double>(f.tree().num_local());
    tr.span("mesh.extract", [&] {
      const mesh::Mesh m = mesh::extract_mesh(comm, f, std::move(ghosts));
    });
  });
}

/// Energy and diagnostics probe on the live mesh and velocity.
void energy_probe(par::Comm& comm, Tracer& tr, const rhea::Simulation& sim,
                  const rhea::SimConfig& cfg) {
  tr.span("probe.energy", [&] {
    std::unique_ptr<energy::EnergySolver> es;
    tr.span("energy.assemble", [&] {
      es = std::make_unique<energy::EnergySolver>(
          comm, sim.mesh(), sim.forest().connectivity(), sim.solution(),
          cfg.energy);
    });
    // The first step builds the operator's batched apply plan; time the
    // steady state after it.
    std::vector<double> t = sim.temperature();
    es->step(comm, t, es->stable_dt(comm));
    tr.span("energy.step", [&] {
      for (int i = 0; i < kEnergyReps; ++i) es->step(comm, t, es->stable_dt(comm));
    });
    tr.span("obs.diagnostics", [&] {
      rhea::compute_physics_diagnostics(comm, sim.mesh(),
                                        sim.forest().connectivity(),
                                        sim.temperature(), sim.solution(),
                                        cfg.energy.kappa);
    });
  });
}

/// Solver probe on the live state, as the next Picard iteration would
/// see it: viscosity, StokesSolver on an empty and on a warm cache, one
/// solve, then kProbeReps saddle applies and velocity V-cycles.
void solver_probe(par::Comm& comm, Tracer& tr, const rhea::Simulation& sim,
                  const rhea::SimConfig& cfg, RankTally& tally,
                  TracedOut& out) {
  const mesh::Mesh& m = sim.mesh();
  const forest::Connectivity& conn = sim.forest().connectivity();
  const stokes::StokesOptions& sopt = cfg.picard.stokes;
  tr.span("probe.solver", [&] {
    std::vector<double> eta;
    tr.span("stokes.viscosity", [&] {
      eta = stokes::evaluate_viscosity(m, conn, cfg.law, sim.temperature(),
                                       sim.solution());
    });
    amg::HierarchyCache cache;
    std::unique_ptr<stokes::StokesSolver> full, warm;
    tr.span("stokes.setup_full", [&] {
      full = std::make_unique<stokes::StokesSolver>(comm, m, conn, eta, sopt,
                                                    &cache);
    });
    tr.span("stokes.setup_refresh", [&] {
      warm = std::make_unique<stokes::StokesSolver>(comm, m, conn, eta, sopt,
                                                    &cache);
    });
    full.reset();
    const std::vector<double> rhs = stokes::StokesSolver::buoyancy_rhs(
        comm, m, conn, sim.temperature(), cfg.picard.rayleigh,
        cfg.picard.buoyancy_dir, sopt);
    std::vector<double> x = sim.solution();
    la::SolveResult r;
    tr.span("stokes.solve", [&] { r = warm->solve(comm, rhs, x); });
    std::vector<double> y(x.size());
    tr.span("fem.apply", [&] {
      for (int i = 0; i < kProbeReps; ++i) warm->op().apply(comm, x, y);
    });
    tally.apply_bytes +=
        8.0 * (static_cast<double>(warm->op().plan_matrix_doubles()) +
               2.0 * static_cast<double>(x.size()));
    const amg::DistAmg& amg0 = warm->velocity_amg(0);
    const std::size_t no =
        static_cast<std::size_t>(amg0.finest().owned_rows());
    std::vector<double> b(no), xc(no);
    for (std::size_t i = 0; i < no; ++i) b[i] = rhs[4 * i + 2];
    tr.span("amg.vcycle", [&] {
      for (int i = 0; i < kProbeReps; ++i) {
        std::fill(xc.begin(), xc.end(), 0.0);
        amg0.vcycle(comm, b, xc);
      }
    });
    if (comm.rank() == 0) {
      out.operator_complexity.push_back(amg0.operator_complexity());
      out.probe_iterations.push_back(r.iterations);
    }
  });
}

/// Evenly spaced subset (at most `n`) of the steps that satisfy `pred`.
std::vector<int> pick_steps(int steps, int n,
                            const std::function<bool(int)>& pred) {
  std::vector<int> all;
  for (int s = 0; s < steps; ++s)
    if (pred(s)) all.push_back(s);
  if (static_cast<int>(all.size()) <= n) return all;
  std::vector<int> out;
  for (int i = 0; i < n; ++i)
    out.push_back(all[static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) * (static_cast<std::int64_t>(all.size()) - 1)) /
        (n - 1))]);
  return out;
}

/// The traced episode: same workload and seed, the schedule issued here.
/// An untraced twin of the same workload runs interleaved with it, step
/// by step and alternating which goes first, into `twin`: a host that
/// drifts by tens of percent over minutes then still gives a tracing
/// overhead from pairs measured seconds apart.
void run_traced(const Workload& w, std::int64_t target, int steps,
                Checks& checks, Episode& twin,
                std::vector<std::vector<SpanRec>>& spans,
                std::vector<RankTally>& tallies, TracedOut& out,
                const std::string& telemetry_path) {
  spans.assign(static_cast<std::size_t>(w.ranks), {});
  tallies.assign(static_cast<std::size_t>(w.ranks), {});
  const rhea::SimConfig cfg = sim_config(w, target, true);
  const std::vector<int> amr_points = pick_steps(
      steps, 10, [&](int s) { return step_kind(w, s).adapt; });
  // Solver probes: first solve, first solve after each adaptation, last
  // step (convection only; transport measures a reference problem below).
  std::vector<int> solver_points;
  if (w.convection) {
    for (int s = 0; s < steps; ++s) {
      const StepKind k = step_kind(w, s);
      if (k.velocity && (solver_points.empty() || k.adapt))
        solver_points.push_back(s);
    }
    if (solver_points.empty() || solver_points.back() != steps - 1)
      solver_points.push_back(steps - 1);
  }
  std::vector<int> energy_points = amr_points;
  energy_points.push_back(steps - 1);
  const auto has = [](const std::vector<int>& v, int s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };

  par::run(w.ranks, [&](par::Comm& comm) {
    const int rank = comm.rank();
    const bool root = rank == 0;
    Tracer tr(comm, spans[static_cast<std::size_t>(rank)]);
    RankTally& tally = tallies[static_cast<std::size_t>(rank)];
    auto twin_sim = std::make_unique<TimedSim>(comm, w, target, twin, checks);
    std::unique_ptr<rhea::Simulation> sim;
    tr.span("rhea.setup", [&] {
      sim = std::make_unique<rhea::Simulation>(comm, cfg);
      sim->initialize(w.t0);
    });
    // Both simulations append to the telemetry file; count only what the
    // traced one's run(1) writes (rank 0 emits inside it).
    std::uint64_t telemetry_bytes = 0;
    CounterSet real;
    SolveTally tally_solves;
    for (int s = 0; s < steps; ++s) {
      const StepKind kind = step_kind(w, s);
      tr.step = s;
      std::string why;
      if (s % 2 == 0) twin_sim->step(s);
      if (kind.adapt && has(amr_points, s)) amr_probe(comm, tr, *sim, cfg, tally);
      tr.span("step", [&] {
        try {
          if (kind.adapt) tr.span("rhea.adapt", [&] { sim->adapt_once(); });
          if (kind.velocity && has(solver_points, s))
            solver_probe(comm, tr, *sim, cfg, tally, out);
          if (kind.velocity)
            tr.span("rhea.velocity", [&] {
              real.measure(rank, [&] { sim->update_velocity(); });
            });
          tr.span("rhea.advance", [&] {
            const std::uint64_t b0 = file_bytes(telemetry_path);
            sim->run(1);
            telemetry_bytes += file_bytes(telemetry_path) - b0;
          });
        } catch (const rhea::SentinelError& e) {
          why = std::string("SentinelError: ") + e.what();
        }
      });
      if (why.empty()) why = check_step(comm, *sim, w, kind, tally_solves);
      if (root)
        checks.record(why.empty(), "traced step " + std::to_string(s) + ": " + why);
      if (!why.empty()) break;
      if (has(energy_points, s)) energy_probe(comm, tr, *sim, cfg);
      if (kind.adapt && root) {
        const rhea::AdaptationStats& a = sim->adapt_history().back();
        out.touched += static_cast<double>(a.refined + a.coarsened);
        out.touched_base +=
            static_cast<double>(a.refined + a.coarsened + a.unchanged);
        out.balance_added += static_cast<double>(a.balance_added);
        out.adapt_elements += static_cast<double>(a.total_elements);
      }
      if (s % 2 == 1) twin_sim->step(s);
    }
    twin_sim->finish();
    twin_sim.reset();
    const FinalState fin = final_state(comm, *sim, w);
    sim.reset();

    if (!w.convection) {
      // Transport steps never touch the Stokes layers. Measure them on a
      // reference problem instead: the convection workload at 1/8 target
      // on the same rank count; step 0 has no solve, steps 1 and 2 do.
      const Workload ref = make_workload("convection", 1);
      const rhea::SimConfig rcfg = sim_config(ref, ref.target / 8, false);
      rhea::Simulation rs(comm, rcfg);
      rs.initialize(ref.t0);
      rs.run(1);
      for (int s = 1; s <= 2; ++s) {
        real.measure(rank, [&] { rs.run(1); });
        check_step(comm, rs, ref, step_kind(ref, s), tally_solves);
      }
      tr.step = steps;
      solver_probe(comm, tr, rs, rcfg, tally, out);
      if (root) out.reference_solver = true;
    }
    if (root) {
      record_final(checks, fin, target);
      out.telemetry_bytes = telemetry_bytes;
      out.solves = tally_solves;
      out.amg = real;
    }

    // Latency of one scalar allreduce, amortized over 1000 calls.
    comm.barrier();
    const double t0 = now_s();
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += comm.allreduce_sum(1.0);
    comm.barrier();
    if (root) out.allreduce_us = (now_s() - t0) / 1000.0 * 1e6;
    if (acc != 1000.0 * comm.size())
      throw std::runtime_error("allreduce probe: wrong sum");
  });
}

// ---- host ceiling -------------------------------------------------------------

/// STREAM triad a = b + s*c on `threads` threads over `mib`-MiB arrays
/// (first-touched by the same threads); best of 5, 3 arrays counted.
double stream_triad_gbs(int threads, std::size_t mib) {
  const std::size_t n = mib * (std::size_t{1} << 20) / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto parallel = [&](const std::function<void(std::size_t, std::size_t)>& f) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      pool.emplace_back(f, lo, hi);
    }
    for (std::thread& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / dt / 1e9);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("stream triad: wrong result");
  return best;
}

// ---- JSON output ---------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return o + '"';
}

std::string array(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + num(v[i]);
  return o + "]";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer metrics of the traced episode (see benchmark/README.md).
std::map<std::string, double> layer_metrics(
    const Workload& w, int steps, const std::vector<std::vector<SpanRec>>& spans,
    const std::vector<RankTally>& tallies, const TracedOut& out,
    const std::vector<double>& untraced_steps, double stream_gbs) {
  const std::vector<SpanRec>& r0 = spans.front();
  const double P = static_cast<double>(w.ranks);
  const auto sum_dur = [&](const char* name) {
    double s = 0.0;
    for (const SpanRec& r : r0)
      if (std::strcmp(r.name, name) == 0) s += r.end - r.start;
    return s;
  };
  const auto mean_dur = [&](const char* name, double per = 1.0) {
    double s = 0.0;
    int n = 0;
    for (const SpanRec& r : r0)
      if (std::strcmp(r.name, name) == 0) {
        s += r.end - r.start;
        ++n;
      }
    return n > 0 ? s / n / per : 0.0;
  };
  const auto is_rhea = [](const SpanRec& r) {
    return std::strncmp(r.name, "rhea.", 5) == 0 &&
           std::strcmp(r.name, "rhea.setup") != 0;
  };
  // Rhea-span traffic per rank per step, and time waited at the closing
  // barriers (latest rank's release minus own end of work).
  par::CommStats c{};
  for (const SpanRec& r : r0) {
    if (!is_rhea(r)) continue;
    c.allreduce_calls += r.comm1.allreduce_calls - r.comm0.allreduce_calls;
    c.allgather_calls += r.comm1.allgather_calls - r.comm0.allgather_calls;
    c.alltoall_calls += r.comm1.alltoall_calls - r.comm0.alltoall_calls;
    c.p2p_messages += r.comm1.p2p_messages - r.comm0.p2p_messages;
    c.p2p_bytes += r.comm1.p2p_bytes - r.comm0.p2p_bytes;
  }
  double wait = 0.0;
  for (const std::vector<SpanRec>& rs : spans)
    for (const SpanRec& r : rs)
      if (is_rhea(r)) wait += r.end - r.work_end;
  // Tracing overhead: traced step wall without the probes nested in the
  // step span over the untraced wall of the same step, median over steps
  // (pairing by step cancels the schedule's mix of step kinds; the median
  // rejects interference bursts on a shared host).
  std::vector<double> overhead;
  for (const SpanRec& r : r0) {
    if (std::strcmp(r.name, "step") != 0 ||
        r.step >= static_cast<int>(untraced_steps.size()))
      continue;
    double wall = r.end - r.start;
    for (const SpanRec& ch : r0)
      if (ch.parent == r.id && std::strncmp(ch.name, "probe.", 6) == 0)
        wall -= ch.end - ch.start;
    overhead.push_back(wall / untraced_steps[static_cast<std::size_t>(r.step)] - 1.0);
  }
  double ghosts = 0, locals = 0, apply_bytes = 0;
  for (const RankTally& t : tallies) {
    ghosts += t.ghost_octants;
    locals += t.local_octants;
    apply_bytes += t.apply_bytes;
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double n = static_cast<double>(steps);
  const double solves = static_cast<double>(std::max<std::int64_t>(out.solves.solves, 1));
  const double setups =
      static_cast<double>(out.amg.full + out.amg.numeric + out.amg.skipped);
  const double apply_s = mean_dur("fem.apply", kProbeReps);
  const std::size_t n_solver_probes = out.probe_iterations.size();
  std::map<std::string, double> m;
  m["rhea.adapt_s"] = sum_dur("rhea.adapt") / n;
  m["rhea.velocity_s"] = sum_dur("rhea.velocity") / n;
  m["rhea.advance_s"] = sum_dur("rhea.advance") / n;
  m["par.wait_s"] = wait / P / n;
  m["par.allreduce_per_step"] = static_cast<double>(c.allreduce_calls) / P / n;
  m["par.allgather_per_step"] = static_cast<double>(c.allgather_calls) / P / n;
  m["par.alltoall_per_step"] = static_cast<double>(c.alltoall_calls) / P / n;
  m["par.p2p_msgs_per_step"] = static_cast<double>(c.p2p_messages) / P / n;
  m["par.p2p_mib_per_step"] =
      static_cast<double>(c.p2p_bytes) / (1 << 20) / P / n;
  m["par.allreduce_us"] = out.allreduce_us;
  m["octree.mark_s"] = mean_dur("octree.mark");
  m["octree.adapt_s"] = mean_dur("octree.adapt");
  m["octree.touched_frac"] =
      out.touched_base > 0 ? out.touched / out.touched_base : 0.0;
  m["forest.balance_s"] = mean_dur("forest.balance");
  m["forest.partition_s"] = mean_dur("forest.partition");
  m["forest.balance_added_frac"] =
      out.adapt_elements > 0 ? out.balance_added / out.adapt_elements : 0.0;
  m["mesh.ghost_s"] = mean_dur("mesh.ghost");
  m["mesh.extract_s"] = mean_dur("mesh.extract");
  m["mesh.ghost_frac"] = locals > 0 ? ghosts / locals : 0.0;
  m["energy.assemble_s"] = mean_dur("energy.assemble");
  m["energy.step_s"] = mean_dur("energy.step", kEnergyReps);
  m["stokes.viscosity_s"] = mean_dur("stokes.viscosity");
  m["stokes.setup_full_s"] = mean_dur("stokes.setup_full");
  m["stokes.setup_refresh_s"] = mean_dur("stokes.setup_refresh");
  m["stokes.solve_s"] = mean_dur("stokes.solve");
  m["la.minres_iters"] = static_cast<double>(out.solves.iterations) / solves;
  m["la.minres_iter_s"] =
      mean(out.probe_iterations) > 0 ? mean_dur("stokes.solve") / mean(out.probe_iterations)
                                     : 0.0;
  m["la.converged_frac"] = static_cast<double>(out.solves.converged) / solves;
  m["fem.apply_s"] = apply_s;
  m["fem.apply_gbs"] =
      apply_s > 0 && n_solver_probes > 0
          ? apply_bytes / static_cast<double>(n_solver_probes) / apply_s / 1e9
          : 0.0;
  m["amg.vcycle_s"] = mean_dur("amg.vcycle", kProbeReps);
  m["amg.vcycles_per_solve"] = static_cast<double>(out.amg.vcycles) / solves;
  m["amg.operator_complexity"] = mean(out.operator_complexity);
  m["amg.setup_reuse_frac"] =
      setups > 0
          ? static_cast<double>(out.amg.numeric + out.amg.skipped) / setups
          : 0.0;
  m["obs.diagnostics_s"] = mean_dur("obs.diagnostics");
  m["obs.telemetry_kib_per_step"] =
      static_cast<double>(out.telemetry_bytes) / 1024.0 / n;
  m["host.stream_gbs"] = stream_gbs;
  m["trace.overhead_frac"] = median(overhead);
  return m;
}

/// Chrome trace-event JSON of every rank's spans; args carry the step,
/// the parent span and the rank's self time.
void write_trace(const std::string& path,
                 const std::vector<std::vector<SpanRec>>& spans) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"traceEvents\": [";
  bool first = true;
  for (const std::vector<SpanRec>& rs : spans) {
    for (const SpanRec& r : rs) {
      double child = 0.0;
      for (const SpanRec& ch : rs)
        if (ch.parent == r.id) child += ch.end - ch.start;
      f << (first ? "\n" : ",\n") << "{\"name\": " << quote(r.name)
        << ", \"ph\": \"X\", \"pid\": 0, \"tid\": " << r.rank
        << ", \"ts\": " << num(r.start * 1e6)
        << ", \"dur\": " << num((r.end - r.start) * 1e6)
        << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"step\": " << r.step
        << ", \"work_end_us\": " << num(r.work_end * 1e6)
        << ", \"self_us\": " << num((r.end - r.start - child) * 1e6) << "}}";
      first = false;
    }
  }
  f << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int episodes = 1;
  bool trace = false;
  bool quick = false;
  std::size_t stream_mib = 1280;
  std::string out = "bench_step.json";
  std::string trace_out = "bench_step_trace.json";
  std::string telemetry_out = "bench_step_telemetry.jsonl";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--episodes") a.episodes = std::max(1, std::stoi(val()));
    else if (k == "--trace") a.trace = true;
    else if (k == "--quick") a.quick = true;
    else if (k == "--stream-mib") a.stream_mib = std::stoull(val());
    else if (k == "--out") a.out = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--telemetry-out") a.telemetry_out = val();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  Workload w = make_workload(args.workload, args.seed);
  std::int64_t target = w.target;
  int steps = w.steps;
  if (args.quick) {
    target /= 8;
    steps = 4;
    w.adapt_every = std::min(w.adapt_every, 2);
  }
  if (w.telemetry) {
    obs::set_telemetry_path(args.telemetry_out);
    obs::set_telemetry(true);
  }

  Checks checks;
  // Untimed warm-up at 1/8 of the target: page in the code paths, fill
  // the allocator pools. Its checks are not counted.
  const double tw = now_s();
  {
    Checks ignored;
    run_episode(w, std::max<std::int64_t>(target / 8, 64), w.adapt_every + 1,
                false, ignored);
  }
  const double warmup_s = now_s() - tw;

  // Untraced: setup samples and timed episodes. Traced: the interleaved
  // twin is the only untraced episode.
  std::vector<double> setups;
  std::vector<Episode> eps;
  std::map<std::string, double> layers;
  bool reference_solver = false;
  if (!args.trace) {
    for (int i = args.episodes; i < kSetupSamples; ++i) {
      Checks ignored;
      setups.push_back(run_episode(w, target, 0, true, ignored).setup_s);
    }
    for (int e = 0; e < args.episodes; ++e) {
      eps.push_back(run_episode(w, target, steps, false, checks));
      setups.push_back(eps.back().setup_s);
    }
  } else {
    const double stream = stream_triad_gbs(w.ranks, args.stream_mib);
    std::vector<std::vector<SpanRec>> spans;
    std::vector<RankTally> tallies;
    TracedOut tout;
    eps.emplace_back();
    run_traced(w, target, steps, checks, eps.back(), spans, tallies, tout,
               args.telemetry_out);
    setups.push_back(eps.back().setup_s);
    layers = layer_metrics(w, steps, spans, tallies, tout, eps.back().step_s,
                           stream);
    write_trace(args.trace_out, spans);
    reference_solver = tout.reference_solver;
  }

  const obs::RssSample rss = obs::sample_rss();
  std::ofstream f(args.out);
  if (!f) throw std::runtime_error("cannot write " + args.out);
  f << "{\"workload\": " << quote(w.name) << ", \"seed\": " << args.seed
    << ", \"ranks\": " << w.ranks << ", \"steps\": " << steps
    << ", \"target_elements\": " << target
    << ", \"quick\": " << (args.quick ? "true" : "false")
    << ", \"warmup_s\": " << num(warmup_s) << ", \"setup_s\": " << array(setups)
    << ", \"peak_rss_mib\": "
    << num(rss.available ? static_cast<double>(rss.hwm_bytes) / (1 << 20) : 0.0)
    << ", \"stream_mib\": " << args.stream_mib
    << ", \"reference_solver\": " << (reference_solver ? "true" : "false")
    << ",\n \"episodes\": [";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const Episode& e = eps[i];
    f << (i ? ",\n  " : "\n  ") << "{\"loop_s\": " << num(e.loop_s)
      << ", \"step_s\": " << array(e.step_s)
      << ", \"elements\": " << e.final.elements
      << ", \"adaptations\": " << e.adaptations
      << ", \"solves\": " << e.solves.solves
      << ", \"minres_iterations\": " << e.solves.iterations
      << ", \"v_rms\": " << num(e.final.diag.v_rms)
      << ", \"nusselt\": " << num(e.final.diag.nusselt)
      << ", \"t_mean\": " << num(e.final.diag.t_mean)
      << ", \"t_min\": " << num(e.final.diag.t_min)
      << ", \"t_max\": " << num(e.final.diag.t_max) << "}";
  }
  f << "],\n \"attempted\": " << checks.attempted
    << ", \"failed\": " << checks.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    f << (i ? ", " : "") << quote(checks.failures[i]);
  f << "],\n \"layers\": {";
  bool first = true;
  for (const auto& [k, v] : layers) {
    f << (first ? "" : ", ") << quote(k) << ": " << num(v);
    first = false;
  }
  f << "}}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_step: %s\n", e.what());
    return 2;
  }
}
