#include "rhea/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "io/vtk.hpp"
#include "mesh/fields.hpp"
#include "obs/dump.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "octree/mark.hpp"
#include "octree/partition.hpp"
#include "rhea/diagnostics.hpp"

namespace alps::rhea {

double amr_seconds() {
  double secs = 0.0;
  for (const char* phase :
       {"amr.coarsen_refine", "amr.balance", "amr.partition",
        "amr.extract_mesh", "amr.interpolate_fields", "amr.transfer_fields",
        "amr.mark_elements"})
    secs += obs::phase_seconds(phase);
  return secs;
}

namespace {

/// Element-wise sum over all ranks of a fixed-size counter array, in one
/// allreduce.
template <std::size_t N>
std::array<std::int64_t, N> allreduce_sum_array(
    par::Comm& comm, const std::array<std::int64_t, N>& local) {
  return comm.allreduce(local, [](const std::array<std::int64_t, N>& a,
                                  const std::array<std::int64_t, N>& b) {
    std::array<std::int64_t, N> r;
    for (std::size_t i = 0; i < N; ++i) r[i] = a[i] + b[i];
    return r;
  });
}

/// This rank's element count per refinement level.
std::array<std::int64_t, 20> local_level_histogram(
    const octree::LinearOctree& tree) {
  std::array<std::int64_t, 20> hist{};
  for (const auto& o : tree.leaves())
    hist[static_cast<std::size_t>(o.level)]++;
  return hist;
}

/// Global element count per refinement level (one allreduce).
std::array<std::int64_t, 20> level_histogram(
    par::Comm& comm, const octree::LinearOctree& tree) {
  return allreduce_sum_array(comm, local_level_histogram(tree));
}

// Driver slots of the per-step exchange (obs::analysis::StepInput).
// Summed over ranks: the level histogram, the step's V-cycles, the owned
// element count and the four diagnostic integrals. Maxed: the owned
// element count, -t_min and t_max, and the non-finite flag.
constexpr std::size_t kLevels = 20;
constexpr std::size_t kVcycles = kLevels, kElements = kLevels + 1,
                      kDiagSum = kLevels + 2, kSumSlots = kDiagSum + 4;
constexpr std::size_t kMaxElements = 0, kDiagMax = 1, kNonFinite = 3,
                      kMaxSlots = 4;

}  // namespace

Simulation::Simulation(par::Comm& comm, SimConfig cfg)
    : comm_(&comm), cfg_(std::move(cfg)),
      forest_(Forest::new_uniform(comm, cfg_.conn, 0)) {
  OBS_PHASE_SPAN("amr.new_tree");
  forest_ = Forest::new_uniform(comm, cfg_.conn, cfg_.init_level);
}

std::int64_t Simulation::global_elements() const {
  return comm_->allreduce_sum(forest_.tree().num_local());
}

void Simulation::initialize(
    const std::function<double(const std::array<double, 3>&)>& t0) {
  stokes_.reset();  // it points at the mesh about to be replaced
  mesh_ = mesh::extract_mesh(*comm_, forest_);
  temperature_ = fem::interpolate(mesh_, t0);

  // Resolve the initial condition: a few mark/adapt/extract rounds where
  // the temperature is re-sampled analytically on the new mesh.
  for (int round = 0; round < cfg_.initial_adapt_rounds; ++round) {
    const std::vector<double> eta =
        gradient_indicator(mesh_, forest_.connectivity(), temperature_);
    octree::MarkOptions mopt;
    mopt.target_elements =
        cfg_.target_elements > 0 ? cfg_.target_elements : global_elements();
    mopt.tolerance = cfg_.mark_tolerance;
    mopt.coarsen_ratio = cfg_.coarsen_ratio;
    mopt.min_level = cfg_.min_level;
    mopt.max_level = cfg_.max_level;
    const std::vector<std::int8_t> flags =
        octree::mark_elements(*comm_, forest_.tree(), eta, mopt);
    forest_.tree().adapt(flags, cfg_.min_level, cfg_.max_level);
    forest_.balance(*comm_);
    forest_.partition(*comm_);
    mesh_ = mesh::extract_mesh(*comm_, forest_);
    temperature_ = fem::interpolate(mesh_, t0);
  }
  solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
  update_velocity();
  obs::analysis::begin_window(*comm_);  // setup stays out of step 1
}

void Simulation::update_velocity() {
  if (cfg_.prescribed_velocity) {
    energy_.reset();
    for (std::int64_t d = 0; d < mesh_.n_local; ++d) {
      const auto v = cfg_.prescribed_velocity(
          mesh_.dof_coords[static_cast<std::size_t>(d)], time_);
      for (int c = 0; c < 3; ++c)
        solution_[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(c)] =
            v[static_cast<std::size_t>(c)];
      solution_[static_cast<std::size_t>(d) * 4 + 3] = 0.0;
    }
    return;
  }
  energy_.reset();  // velocity changes invalidate the SUPG operator
  // StokesSolver accumulates the stokes.assemble / amg.setup / amg.apply /
  // stokes.minres obs phases itself.
  if (!stokes_)
    stokes_ = std::make_unique<stokes::StokesSolver>(
        mesh_, forest_.connectivity(), cfg_.picard.stokes);
  last_stokes_ = stokes::solve_nonlinear_stokes(
      *comm_, *stokes_, cfg_.law, temperature_, solution_, cfg_.picard);
}

void Simulation::extract_and_rebuild(std::span<const double> element_temps) {
  {
    OBS_PHASE_SPAN("amr.extract_mesh");
    // One ghost layer per adaptation, shared with the extractor.
    std::vector<octree::Octant> ghosts =
        mesh::ghost_layer(*comm_, forest_.tree(), forest_.connectivity());
    mesh_ = mesh::extract_mesh(*comm_, forest_, std::move(ghosts));
  }
  temperature_ = mesh::from_element_values(*comm_, mesh_, element_temps);
  solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
  energy_.reset();
}

void Simulation::adapt_once() {
  // The Stokes solver belongs to the mesh this cycle replaces; the AMR
  // phases run without it.
  stokes_.reset();
  AdaptationStats stats;
  octree::LinearOctree& tree = forest_.tree();

  // MARKELEMENTS.
  std::vector<std::int8_t> flags;
  {
    OBS_PHASE_SPAN("amr.mark_elements");
    std::vector<double> eta;
    if (cfg_.goal_region) {
      eta = adjoint_indicator(*comm_, mesh_, forest_.connectivity(),
                              temperature_, solution_, cfg_.goal_region,
                              cfg_.energy.kappa, cfg_.adjoint_pseudo_steps);
    } else if (cfg_.strain_weight > 0.0) {
      eta = yielding_indicator(mesh_, forest_.connectivity(), temperature_,
                               solution_, cfg_.strain_weight);
    } else {
      eta = gradient_indicator(mesh_, forest_.connectivity(), temperature_);
    }
    octree::MarkOptions mopt;
    mopt.target_elements =
        cfg_.target_elements > 0 ? cfg_.target_elements : global_elements();
    mopt.tolerance = cfg_.mark_tolerance;
    mopt.coarsen_ratio = cfg_.coarsen_ratio;
    mopt.min_level = cfg_.min_level;
    mopt.max_level = cfg_.max_level;
    flags = octree::mark_elements(*comm_, tree, eta, mopt);
  }

  // Snapshot old state and element-value field.
  std::vector<double> ev = mesh::to_element_values(mesh_, temperature_);
  const std::vector<octree::Octant> old_leaves = tree.leaves();

  // COARSENTREE + REFINETREE.
  {
    OBS_PHASE_SPAN("amr.coarsen_refine");
    tree.adapt(flags, cfg_.min_level, cfg_.max_level);
  }

  // Fig. 5 statistics: what marking alone did (balance additions are
  // counted separately, matching the paper's categories).
  std::int64_t n_after_adapt = 0;
  {
    const octree::Correspondence corr_adapt =
        octree::compute_correspondence(old_leaves, tree.leaves());
    std::int64_t refined = 0, coarsened = 0, unchanged = 0;
    std::int64_t last_refined_old = -1;
    for (const auto& en : corr_adapt.entries) {
      switch (en.kind) {
        case octree::Correspondence::Kind::kSame:
          unchanged++;
          break;
        case octree::Correspondence::Kind::kRefined:
          if (en.old_begin != last_refined_old) {
            refined++;
            last_refined_old = en.old_begin;
          }
          break;
        case octree::Correspondence::Kind::kCoarsened:
          coarsened += en.old_end - en.old_begin;
          break;
      }
    }
    const std::array<std::int64_t, 4> global = allreduce_sum_array<4>(
        *comm_, {refined, coarsened, unchanged, tree.num_local()});
    stats.refined = global[0];
    stats.coarsened = global[1];
    stats.unchanged = global[2];
    n_after_adapt = global[3];
  }

  // BALANCETREE.
  {
    OBS_PHASE_SPAN("amr.balance");
    forest_.balance(*comm_);
  }
  // The global level histogram is final from here on (partition only
  // moves elements between ranks), so it also yields the totals.
  stats.per_level = level_histogram(*comm_, tree);
  for (const std::int64_t n : stats.per_level) stats.total_elements += n;
  stats.balance_added = stats.total_elements - n_after_adapt;

  // INTERPOLATEFIELDS.
  {
    OBS_PHASE_SPAN("amr.interpolate_fields");
    const octree::Correspondence corr =
        octree::compute_correspondence(old_leaves, tree.leaves());
    // Transient workspace: the old-leaf snapshot, the correspondence, and
    // the element-value field live only for this interpolation.
    OBS_MEM_SCOPE("amr.workspace", obs::vec_bytes(old_leaves) +
                                       obs::vec_bytes(corr.entries) +
                                       obs::vec_bytes(ev));
    ev = mesh::interpolate_element_values(old_leaves, tree.leaves(), corr, ev);
  }

  // PARTITIONTREE + TRANSFERFIELDS. octree::partition accumulates the two
  // stages into the amr.partition / amr.transfer_fields phases itself.
  // With a partition_threshold set, adaptations that keep the element
  // distribution balanced enough skip both stages.
  bool repartition = true;
  if (cfg_.partition_threshold > 0.0) {
    const std::int64_t total = stats.total_elements;
    const std::int64_t mx = comm_->allreduce_max(tree.num_local());
    const double imbalance =
        total > 0 ? static_cast<double>(mx) * comm_->size() /
                        static_cast<double>(total)
                  : 1.0;
    repartition = imbalance > cfg_.partition_threshold;
  }
  if (repartition) {
    octree::LeafPayload payload{8, std::move(ev)};
    octree::LeafPayload* ps[] = {&payload};
    forest_.partition(*comm_, ps);
    ev = std::move(payload.data);
  }

  // EXTRACTMESH + nodal rebuild.
  extract_and_rebuild(ev);
  adapt_history_.push_back(stats);
}

void Simulation::run(int steps) {
  const obs::CounterId vcycles_id = obs::wellknown::amg_vcycles();
  for (int s = 0; s < steps; ++s) {
    const std::uint64_t vc0 = obs::counter_value(comm_->rank(), vcycles_id);
    bool adapted = false;
    // True only when a Stokes solve ran THIS step: last_stokes_ persists
    // across steps, and the endpoint's stagnation tracker must not recount
    // a stale result on energy-only steps.
    bool stokes_solved = false;
    if (steps_ > 0 && cfg_.adapt_every > 0 && steps_ % cfg_.adapt_every == 0) {
      adapt_once();
      update_velocity();
      adapted = true;
      stokes_solved = !cfg_.prescribed_velocity;
    } else if (!cfg_.prescribed_velocity && cfg_.stokes_every > 0 &&
               steps_ % cfg_.stokes_every == 0 && steps_ > 0) {
      update_velocity();
      stokes_solved = true;
    } else if (cfg_.prescribed_velocity && cfg_.time_dependent_velocity) {
      update_velocity();  // analytic refresh for time-dependent fields
    }

    double dt = 0.0;
    {
      OBS_PHASE_SPAN("energy.time_integration");
      if (!energy_)
        energy_ = std::make_unique<energy::EnergySolver>(
            *comm_, mesh_, forest_.connectivity(), solution_, cfg_.energy);
      dt = energy_->stable_dt(*comm_);
      // Slow-rank test hook: stable_dt's allreduce just synchronized all
      // ranks, so sleeping here delays this rank's halo sends inside the
      // energy step — the other ranks' blocked receives must show up as
      // late-sender time attributed to cfg_.slow_rank.
      if (comm_->rank() == cfg_.slow_rank && cfg_.slow_rank_us > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.slow_rank_us));
      energy_->step(*comm_, temperature_, dt);
      time_ += dt;
      steps_++;
    }

    if (steps_ == cfg_.nan_inject_step && comm_->rank() == 0 &&
        !temperature_.empty())
      temperature_[0] = std::numeric_limits<double>::quiet_NaN();

    report_step(dt, adapted, stokes_solved,
                obs::counter_value(comm_->rank(), vcycles_id) - vc0);
  }
}

void Simulation::report_step(double dt, bool adapted, bool stokes_solved,
                             std::uint64_t step_vcycles) {
  // One collective carries everything this step reports, and it runs iff
  // some consumer needs it. Every gate is process-global, so all ranks
  // branch the same way.
  const bool telemetry = obs::telemetry_enabled();
  const bool serving = obs::serve_active();
  const bool mem_on = obs::mem_enabled();
  if (!(cfg_.sentinels || mem_on || telemetry || serving)) return;

  obs::analysis::StepInput in;
  in.timing = telemetry || serving;
  in.sum.assign(kSumSlots, 0.0);
  in.max.assign(kMaxSlots, 0.0);
  in.sum[kElements] = in.max[kMaxElements] =
      static_cast<double>(forest_.tree().num_local());
  if (telemetry) {
    const std::array<std::int64_t, kLevels> hist =
        local_level_histogram(forest_.tree());
    std::copy(hist.begin(), hist.end(), in.sum.begin());
    in.sum[kVcycles] = static_cast<double>(step_vcycles);
    // energy_ was (re)built on the current mesh earlier in this step.
    const DiagnosticSums d = diagnostic_partials(
        mesh_, energy_->element_jxw(), temperature_, solution_);
    std::copy(d.sum.begin(), d.sum.end(), in.sum.begin() + kDiagSum);
    std::copy(d.max.begin(), d.max.end(), in.max.begin() + kDiagMax);
  }
  if (cfg_.sentinels) in.max[kNonFinite] = has_non_finite() ? 1.0 : 0.0;
  if (mem_on) account_memory();
  const obs::analysis::StepRecord rec =
      obs::analysis::analyze_step(*comm_, steps_, in);

  // The sinks below read `rec` only and issue no collective; only the
  // trip paths at the end synchronize.
  std::string drift_json;
  if (rec.mem.enabled) drift_json = update_mem_drift(rec.mem, adapted);
  if (telemetry && comm_->rank() == 0)
    emit_step_telemetry(dt, adapted, rec, drift_json);
  if (serving && rec.timed && comm_->rank() == 0)
    publish_metrics(dt, stokes_solved, rec);
  // The drift record is in the telemetry tail by now, so the flight
  // recorder captures it. Both trips are read from the exchanged record,
  // so every rank reaches them together.
  if (mem_drift_trip_) mem_drift_panic();
  if (rec.max[kNonFinite] > 0.0) sentinel_trip();
}

void Simulation::account_memory() {
  using obs::mem_scope;
  using obs::mem_set;
  static const obs::MemScopeId kForest = mem_scope("forest.octants");
  static const obs::MemScopeId kMeshTopo = mem_scope("mesh.topology");
  static const obs::MemScopeId kMeshDofs = mem_scope("mesh.dofs");
  static const obs::MemScopeId kMeshHalo = mem_scope("mesh.halo");
  static const obs::MemScopeId kFemPlan = mem_scope("fem.plan");
  static const obs::MemScopeId kEnergy = mem_scope("energy.fields");
  static const obs::MemScopeId kFields = mem_scope("rhea.fields");
  static const obs::MemScopeId kAmgOps = mem_scope("amg.operators");
  static const obs::MemScopeId kAmgInterp = mem_scope("amg.interpolation");
  static const obs::MemScopeId kAmgRap = mem_scope("amg.rap_plan");
  static const obs::MemScopeId kAmgCoarse = mem_scope("amg.coarse");
  static const obs::MemScopeId kAmgCache = mem_scope("amg.cache");
  static const obs::MemScopeId kMailbox = mem_scope("par.mailbox");
  static const obs::MemScopeId kObsSelf = mem_scope("obs.self");
  static const obs::MemScopeId kObsTel = mem_scope("obs.telemetry");
  static const obs::MemScopeId kInject = mem_scope("test.drift_inject");

  mem_set(kForest, forest_.memory_bytes());
  const mesh::Mesh::MemoryBytes mb = mesh_.memory_bytes();
  mem_set(kMeshTopo, mb.topology);
  mem_set(kMeshDofs, mb.dofs);
  mem_set(kMeshHalo, mb.halo);
  mem_set(kFemPlan, (energy_ ? energy_->op().memory_bytes() : 0) +
                        (stokes_ ? stokes_->memory_bytes() : 0));
  mem_set(kEnergy, energy_ ? energy_->memory_bytes() : 0);
  mem_set(kFields,
          obs::vec_bytes(temperature_) + obs::vec_bytes(solution_));

  amg::DistAmg::MemoryBytes ab;
  const amg::HierarchyCache none;
  for (const auto& a : (stokes_ ? stokes_->hierarchies() : none).amg) {
    if (!a) continue;
    const amg::DistAmg::MemoryBytes m = a->memory_bytes();
    ab.operators += m.operators;
    ab.interpolation += m.interpolation;
    ab.rap += m.rap;
    ab.coarse += m.coarse;
    ab.scratch += m.scratch;
  }
  mem_set(kAmgOps, ab.operators);
  mem_set(kAmgInterp, ab.interpolation);
  mem_set(kAmgRap, ab.rap);
  mem_set(kAmgCoarse, ab.coarse);
  // The cache scope holds what reuse keeps alive beyond the operators
  // themselves: the cycle workspaces.
  mem_set(kAmgCache, ab.scratch);

  mem_set(kMailbox, comm_->pending_recv_bytes());
  mem_set(kObsSelf, obs::self_memory_bytes());
  mem_set(kObsTel, obs::telemetry_tail_bytes());
  // Synthetic linear leak for the drift-detector acceptance test.
  const std::uint64_t inject =
      (comm_->rank() == cfg_.mem_drift_inject_rank &&
       cfg_.mem_drift_inject_bytes > 0)
          ? static_cast<std::uint64_t>(steps_) *
                static_cast<std::uint64_t>(cfg_.mem_drift_inject_bytes)
          : 0;
  mem_set(kInject, inject);
}

std::string Simulation::update_mem_drift(const obs::analysis::MemRecord& mrec,
                                         bool adapted) {
  if (adapted) {
    // Footprint discontinuities across an adaptation are expected; start
    // a fresh window on the new mesh.
    mem_window_.clear();
    mem_window_rss_.clear();
  }
  mem_window_.push_back(mrec.acc_by_rank);
  mem_window_rss_.push_back(mrec.rss_available ? mrec.rss_max : 0);
  const std::size_t w =
      static_cast<std::size_t>(std::max(3, cfg_.mem_drift_window));
  while (mem_window_.size() > w) {
    mem_window_.erase(mem_window_.begin());
    mem_window_rss_.erase(mem_window_rss_.begin());
  }
  if (mem_window_.size() < w) return {};

  // Least-squares slope of y over sample index 0..n-1.
  const std::size_t n = mem_window_.size();
  const auto slope_of = [n](const std::function<double(std::size_t)>& y) {
    const double xbar = static_cast<double>(n - 1) / 2.0;
    double ybar = 0.0;
    for (std::size_t i = 0; i < n; ++i) ybar += y(i);
    ybar /= static_cast<double>(n);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - xbar;
      num += dx * (y(i) - ybar);
      den += dx * dx;
    }
    return num / den;
  };

  const std::size_t ranks = mem_window_.front().size();
  double max_slope = 0.0;
  int arg = -1;
  for (std::size_t r = 0; r < ranks; ++r) {
    const double s = slope_of([this, r](std::size_t i) {
      return static_cast<double>(mem_window_[i][r]);
    });
    if (arg < 0 || s > max_slope) {
      max_slope = s;
      arg = static_cast<int>(r);
    }
  }
  const double rss_slope = slope_of([this](std::size_t i) {
    return static_cast<double>(mem_window_rss_[i]);
  });

  const bool warn = max_slope > cfg_.mem_drift_warn_bytes_per_step;
  const bool panic = cfg_.mem_drift_panic_bytes_per_step > 0.0 &&
                     max_slope > cfg_.mem_drift_panic_bytes_per_step;
  if (panic && !mem_drift_trip_) {
    mem_drift_trip_ = true;
    std::ostringstream os;
    os << "memory drift: rank " << arg << " accounted bytes growing ~"
       << static_cast<long long>(max_slope) << " bytes/step over last " << n
       << " steps";
    mem_drift_reason_ = os.str();
  }

  std::ostringstream os;
  os.precision(9);
  os << "{\"window\":" << w << ",\"samples\":" << n
     << ",\"slope_bytes_per_step\":" << max_slope << ",\"rank\":" << arg
     << ",\"rss_slope_bytes_per_step\":" << rss_slope
     << ",\"warn\":" << (warn ? "true" : "false")
     << ",\"panic\":" << (panic ? "true" : "false") << "}";
  return os.str();
}

void Simulation::mem_drift_panic() {
  // Mirrors sentinel_trip: the trip was derived from allgathered data,
  // so every rank arrives here together and the barriers keep the other
  // rank threads quiescent while rank 0 reads their obs slots.
  comm_->barrier();
  if (comm_->rank() == 0) {
    obs::metrics_mark_unhealthy(mem_drift_reason_);
    obs::panic_dump(mem_drift_reason_);
  }
  comm_->barrier();
  throw SentinelError(mem_drift_reason_);
}

void Simulation::emit_step_telemetry(double dt, bool adapted,
                                     const obs::analysis::StepRecord& arec,
                                     const std::string& drift_json) {
  const std::int64_t total_elements =
      static_cast<std::int64_t>(arec.sum[kElements]);
  const double imbalance =
      total_elements > 0
          ? arec.max[kMaxElements] * comm_->size() / arec.sum[kElements]
          : 1.0;
  std::array<std::int64_t, kLevels> per_level{};
  std::size_t n_levels = 1;
  for (std::size_t l = 0; l < kLevels; ++l) {
    per_level[l] = static_cast<std::int64_t>(arec.sum[l]);
    if (per_level[l] > 0) n_levels = l + 1;
  }
  DiagnosticSums global;
  std::copy_n(arec.sum.begin() + kDiagSum, global.sum.size(),
              global.sum.begin());
  std::copy_n(arec.max.begin() + kDiagMax, global.max.size(),
              global.max.begin());
  const PhysicsDiagnostics phys = finish_diagnostics(global, cfg_.energy.kappa);

  obs::TelemetryRecord rec;
  rec.field("step", static_cast<std::int64_t>(steps_))
      .field("time", time_)
      .field("dt", dt)
      .field("ranks", comm_->size())
      .field("elements", total_elements)
      .field("dofs", mesh_.n_global)
      .field("partition_imbalance", imbalance)
      .field("per_level",
             std::span<const std::int64_t>(per_level.data(), n_levels))
      .field("picard_iterations",
             static_cast<std::int64_t>(last_stokes_.iterations))
      .field("amg_vcycles", static_cast<std::uint64_t>(arec.sum[kVcycles]))
      .field_json("adapted", adapted ? "true" : "false");
  if (!last_stokes_.solves.empty()) {
    const la::SolveResult& kr = last_stokes_.solves.back();
    rec.field("minres_iterations", static_cast<std::int64_t>(kr.iterations))
        .field("minres_relres", kr.relative_residual)
        .field("minres_status", la::to_string(kr.status));
  }
  rec.field("nusselt", phys.nusselt)
      .field("v_rms", phys.v_rms)
      .field("t_min", phys.t_min)
      .field("t_max", phys.t_max)
      .field("t_mean", phys.t_mean);
  if (arec.timed) {
    rec.field_json("critical_path", obs::analysis::critical_path_json(arec))
        .field_json("wait_states", obs::analysis::wait_states_json(arec))
        .field_json("latency", obs::analysis::latency_json(arec));
  }
  if (arec.mem.enabled)
    rec.field_json("memory", obs::analysis::memory_json(
                                 arec.mem, mesh_.n_global, drift_json));
  obs::telemetry_emit(rec);
}

void Simulation::publish_metrics(double dt, bool stokes_solved,
                                 const obs::analysis::StepRecord& arec) {
  obs::MetricsSnapshot snap;
  snap.step = steps_;
  snap.sim_time = time_;
  snap.dt = dt;
  snap.dofs = mesh_.n_global;
  snap.ranks = comm_->size();
  const double elements = arec.sum[kElements];
  snap.elements = static_cast<std::int64_t>(elements);
  snap.partition_imbalance =
      elements > 0 ? arec.max[kMaxElements] * comm_->size() / elements : 1.0;
  snap.cp_imbalance = arec.cp_imbalance;
  snap.solver_ran = stokes_solved;
  if (stokes_solved && !last_stokes_.solves.empty()) {
    const la::SolveResult& kr = last_stokes_.solves.back();
    snap.solver_status = la::to_string(kr.status);
    snap.solver_iterations = kr.iterations;
    snap.solver_relres = kr.relative_residual;
    snap.picard_iterations = last_stokes_.iterations;
  }
  snap.counters = arec.counters;
  snap.hists = obs::analysis::merged_histograms();
  for (const obs::analysis::PhaseWaits& w : arec.waits)
    snap.wait_blocked_s +=
        w.w.late_sender_s + w.w.transfer_s + w.w.collective_s;
  if (arec.mem.enabled) {
    snap.mem_available = true;
    snap.mem_accounted_total = arec.mem.acc_total;
    snap.mem_rss_max = arec.mem.rss_available ? arec.mem.rss_max : 0;
  }
  obs::metrics_publish(snap);
}

bool Simulation::has_non_finite() const {
  for (std::int64_t i = 0; i < mesh_.n_owned; ++i)
    if (!std::isfinite(temperature_[static_cast<std::size_t>(i)])) return true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(mesh_.n_owned) * 4; ++i)
    if (!std::isfinite(solution_[i])) return true;
  return false;
}

void Simulation::sentinel_trip() {
  // Every rank reaches this point together (the flag was folded in the
  // step exchange), so the collective snapshot and the barriers below are
  // safe.
  const std::string reason =
      "sentinel: non-finite temperature/solution after step " +
      std::to_string(steps_) + " (t = " + std::to_string(time_) + ")";
  const std::string dir = obs::dump_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) {
    // Field snapshot: temperature plus the three velocity components.
    // NaNs are written as-is; ParaView renders them as holes.
    std::vector<io::VtkField> fields;
    fields.push_back(
        {"temperature", mesh::to_element_values(mesh_, temperature_)});
    std::vector<double> comp(static_cast<std::size_t>(mesh_.n_local));
    const char* names[3] = {"vx", "vy", "vz"};
    for (int c = 0; c < 3; ++c) {
      for (std::int64_t i = 0; i < mesh_.n_local; ++i)
        comp[static_cast<std::size_t>(i)] =
            solution_[static_cast<std::size_t>(i) * 4 +
                      static_cast<std::size_t>(c)];
      fields.push_back({names[c], mesh::to_element_values(mesh_, comp)});
    }
    io::write_vtk(*comm_, forest_.connectivity(), mesh_, dir + "/snapshot.vtk",
                  fields);
  }
  // Rank 0 reads every rank's obs slot in panic_dump; the surrounding
  // barriers keep the other rank threads quiescent (and provide the
  // happens-before edges) while it does.
  comm_->barrier();
  if (comm_->rank() == 0) {
    obs::metrics_mark_unhealthy(reason);
    obs::panic_dump(reason);
  }
  comm_->barrier();
  throw SentinelError(reason);
}

}  // namespace alps::rhea
