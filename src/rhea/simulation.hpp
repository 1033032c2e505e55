#pragma once
// RHEA end-to-end simulation driver: couples the SUPG energy equation,
// the nonlinear Stokes solve, and the full AMR cycle of Fig. 4 (mark ->
// coarsen/refine -> balance -> interpolate -> partition -> transfer ->
// extract). Every phase is timed under the paper's function names so the
// benches can print the Fig. 7 / Fig. 8 / Fig. 10 breakdowns, and every
// adaptation step records the Fig. 5 statistics.

#include <functional>
#include <stdexcept>

#include "energy/energy.hpp"
#include "obs/analysis.hpp"
#include "rhea/indicator.hpp"
#include "rhea/viscosity.hpp"
#include "stokes/picard.hpp"

namespace alps::rhea {

using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;

/// Seconds the calling rank has spent in the adaptation cycle of Fig. 4
/// (mark through extract; the initial amr.new_tree excluded): the sum of
/// those phases' obs::phase_seconds. Call inside the par::run rank body.
double amr_seconds();

/// Per-adaptation-step statistics (Fig. 5).
struct AdaptationStats {
  std::int64_t refined = 0;         // old elements split
  std::int64_t coarsened = 0;       // old elements absorbed into parents
  std::int64_t unchanged = 0;       // old elements kept
  std::int64_t balance_added = 0;   // extra elements from BalanceTree
  std::int64_t total_elements = 0;  // after the full cycle
  std::array<std::int64_t, 20> per_level{};
};

struct SimConfig {
  Connectivity conn = Connectivity::unit_cube();
  int init_level = 3;
  int min_level = 2;
  int max_level = 7;
  int initial_adapt_rounds = 2;
  std::int64_t target_elements = 0;  // 0 = hold the current count
  double mark_tolerance = 0.08;
  double coarsen_ratio = 0.05;
  int adapt_every = 16;

  /// Element-imbalance ratio (max_rank_elements * P / total) at or below
  /// which an adaptation skips PARTITIONTREE/TRANSFERFIELDS. 0 repartitions
  /// on every adaptation.
  double partition_threshold = 0.0;

  /// When set, velocity is prescribed analytically (transport-only runs,
  /// paper Sec. V); otherwise the nonlinear Stokes system is solved.
  std::function<std::array<double, 3>(const std::array<double, 3>&, double)>
      prescribed_velocity;
  /// Set when prescribed_velocity actually depends on time; a static field
  /// is sampled once per mesh rebuild instead of every step.
  bool time_dependent_velocity = false;

  energy::EnergyOptions energy{};
  stokes::PicardOptions picard{};
  stokes::ViscosityLaw law;  // required in convection mode

  /// When set, MARKELEMENTS is driven by the goal-oriented adjoint
  /// indicator instead of the plain gradient indicator: refinement
  /// concentrates where errors can still influence J(T) = int_goal T.
  std::function<double(const std::array<double, 3>&)> goal_region;
  int adjoint_pseudo_steps = 10;
  double strain_weight = 0.0;  // yielding-zone term in the indicator
  int stokes_every = 1;        // velocity update cadence (convection mode)

  /// Scan temperature and solution for NaN/Inf after every step (one local
  /// sweep). The flag rides the per-step exchange, which therefore runs
  /// while this is on even with every obs pillar off or compiled out. A
  /// trip writes the flight-recorder bundle (obs::panic_dump + a VTK field
  /// snapshot under ALPS_DUMP_DIR) on every rank's behalf and throws
  /// SentinelError.
  bool sentinels = true;
  /// Test hook: poison temperature_[0] on rank 0 at this step number to
  /// exercise the sentinel / flight-recorder path (-1 = never).
  int nan_inject_step = -1;
  /// Test hook: delay this rank by slow_rank_us microseconds inside every
  /// energy step, right before its halo sends are posted (-1 = never).
  /// The wait-state analyzer must then attribute the other ranks'
  /// late-sender time to this rank (obs::analysis acceptance check).
  int slow_rank = -1;
  int slow_rank_us = 0;

  /// Memory-drift detector (obs::mem): per-rank accounted bytes are
  /// linear-fitted over a sliding window of this many consecutive
  /// non-adapting steps (the window resets on every adaptation, where
  /// footprint changes are expected). Minimum 3.
  int mem_drift_window = 8;
  /// Fitted growth rate (bytes/step) above which a drift warning is
  /// embedded in the telemetry memory block's "drift" member.
  double mem_drift_warn_bytes_per_step = 1 << 20;
  /// Growth rate above which the flight recorder trips: the telemetry
  /// record is still emitted, then every rank writes/throws like the NaN
  /// sentinels (obs::panic_dump names the leaking rank, SentinelError
  /// propagates, exit code 3 through rhea_main). 0 = never panic.
  double mem_drift_panic_bytes_per_step = 0.0;
  /// Test hook: report steps_ * mem_drift_inject_bytes into the
  /// "test.drift_inject" scope on this rank (-1 = never), a synthetic
  /// linear leak that provably trips the detector.
  int mem_drift_inject_rank = -1;
  std::int64_t mem_drift_inject_bytes = 0;
};

/// Thrown (on every rank) when the NaN/Inf sentinels trip; the
/// flight-recorder bundle has already been written when this propagates.
class SentinelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulation {
 public:
  Simulation(par::Comm& comm, SimConfig cfg);

  /// Build the initial adapted mesh resolving T0 and set initial fields.
  void initialize(
      const std::function<double(const std::array<double, 3>&)>& t0);

  /// Advance `steps` time steps, adapting every cfg.adapt_every steps.
  void run(int steps);

  /// One adaptation cycle (public so benches can drive it directly).
  void adapt_once();

  const Mesh& mesh() const { return mesh_; }
  const Forest& forest() const { return forest_; }
  const std::vector<double>& temperature() const { return temperature_; }
  const std::vector<double>& solution() const { return solution_; }
  double time() const { return time_; }
  int steps_taken() const { return steps_; }
  const std::vector<AdaptationStats>& adapt_history() const {
    return adapt_history_;
  }
  std::int64_t global_elements() const;
  par::Comm& comm() { return *comm_; }

  /// Recompute the velocity (Stokes solve or prescription at `time_`).
  void update_velocity();

  /// Picard/MINRES statistics of the most recent Stokes solve; iterations
  /// is 0 until convection mode has solved at least once.
  const stokes::PicardResult& last_stokes() const { return last_stokes_; }

 private:
  void extract_and_rebuild(std::span<const double> element_temps);
  /// Build this rank's driver slots, run the step exchange when any
  /// consumer is on (sentinels, obs::mem, telemetry, serve), and hand the
  /// record to every sink. Collective; the sinks below issue none.
  void report_step(double dt, bool adapted, bool stokes_solved,
                   std::uint64_t step_vcycles);
  /// Rank 0 only: render the record as one telemetry JSONL line.
  void emit_step_telemetry(double dt, bool adapted,
                           const obs::analysis::StepRecord& arec,
                           const std::string& drift_json);
  /// Rank 0 only: fill a MetricsSnapshot from the record and hand it to
  /// the obs::serve double buffer.
  void publish_metrics(double dt, bool stokes_solved,
                       const obs::analysis::StepRecord& arec);
  /// NaN/Inf anywhere in the owned temperature or solution.
  bool has_non_finite() const;
  /// Collective panic path for a tripped NaN sentinel: VTK snapshot,
  /// barrier, rank-0 panic_dump, barrier, throw SentinelError.
  [[noreturn]] void sentinel_trip();

  /// Pull-model byte accounting: push every subsystem's current
  /// memory_bytes() into its obs::mem scope (once per step, cold path).
  void account_memory();
  /// Slide the drift window, fit per-rank growth, and return the drift
  /// JSON for the telemetry memory block ("" until the window is full).
  /// Sets mem_drift_trip_/mem_drift_reason_ when the panic threshold is
  /// exceeded; the throw happens later (after telemetry) in run().
  std::string update_mem_drift(const obs::analysis::MemRecord& mrec,
                               bool adapted);
  /// Collective panic path for a tripped drift detector (mirrors
  /// sentinel_trip: barrier, rank-0 panic_dump, barrier, throw).
  [[noreturn]] void mem_drift_panic();

  par::Comm* comm_;
  SimConfig cfg_;
  Forest forest_;
  Mesh mesh_;
  std::vector<double> temperature_;  // nodal, n_local
  std::vector<double> solution_;     // 4-comp velocity+pressure
  double time_ = 0.0;
  int steps_ = 0;
  stokes::PicardResult last_stokes_;  // convection mode only
  std::vector<AdaptationStats> adapt_history_;
  // Cached SUPG operator and per-element quadrature weights (read by the
  // telemetry diagnostics); invalidated when the mesh or velocity changes.
  std::unique_ptr<energy::EnergySolver> energy_;
  // The Stokes solver on mesh_ (convection mode): built by the first
  // solve on a mesh and released before the mesh changes, so its AMG
  // hierarchies serve every Picard iteration and timestep in between.
  std::unique_ptr<stokes::StokesSolver> stokes_;
  // Drift-detector window: one row per non-adapting step, per-rank
  // accounted bytes (identical on every rank — the step exchange carries
  // them — so the trip decision below is collective-safe without another
  // reduction). Cleared on every adaptation.
  std::vector<std::vector<std::uint64_t>> mem_window_;
  std::vector<std::uint64_t> mem_window_rss_;  // max-rank RSS per row
  bool mem_drift_trip_ = false;
  std::string mem_drift_reason_;
};

}  // namespace alps::rhea
