// AMR pipeline overhead: hashed vs per-corner reference mesh extraction
// across refinement levels at a fixed rank count, and the AMR share of
// the full step time in a short transport run. The paper's claim is that
// the AMR machinery stays a small fraction of solve time (Fig. 5 /
// Fig. 10); the hashed extraction is the enabling optimization, so
// scripts/check_bench.py gates CI on the hashed-vs-reference speedup at
// the largest level. Results go to BENCH_amr.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "bench_common.hpp"
#include "mesh/ghost.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cross-rank time of one collective region: everyone enters together
/// (barrier), the slowest rank defines the cost.
template <class Fn>
double timed(par::Comm& c, Fn&& fn) {
  c.barrier();
  const double t0 = now_s();
  fn();
  return c.allreduce_max(now_s() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_level = argc > 1 ? std::atoi(argv[1]) : 5;
  const int p = 4;
  const int reps = 3;
  bench::header(
      "Mesh extraction cost: hashed node table vs per-corner reference",
      "AMR overhead (Fig. 5 / Fig. 10: AMR a small fraction of solve)");
  std::printf("%-8s %6s %10s %12s %12s %9s\n", "level", "ranks", "#elem",
              "reference", "hashed", "speedup");

  bench::Reporter report("amr", p);
  bench::JsonWriter& json = report.json();
  json.arr_open("cases");

  for (int level = 3; level <= max_level; ++level) {
    double ref_s = 0, hashed_s = 0;
    std::int64_t n_elements = 0;
    alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);

      // The ghost layer is an input both paths share (hoisted out of
      // extraction since this PR), so it is computed outside the timers.
      const std::vector<octree::Octant> ghosts =
          mesh::ghost_layer(c, f.tree(), f.connectivity());

      double best_ref = 1e30, best_hashed = 1e30;
      for (int r = 0; r < reps; ++r) {
        best_ref = std::min(
            best_ref, timed(c, [&] {
              mesh::Mesh m = mesh::extract_mesh_reference(c, f, ghosts);
            }));
        best_hashed = std::min(best_hashed, timed(c, [&] {
                                 mesh::Mesh m = mesh::extract_mesh(c, f, ghosts);
                               }));
      }

      const std::int64_t ne = c.allreduce_sum(f.tree().num_local());
      if (c.rank() == 0) {
        ref_s = best_ref;
        hashed_s = best_hashed;
        n_elements = ne;
      }
    });

    const double speedup = ref_s / std::max(1e-12, hashed_s);
    std::printf("L%-7d %6d %10lld %10.1fms %10.1fms %8.2fx\n", level, p,
                static_cast<long long>(n_elements), ref_s * 1e3,
                hashed_s * 1e3, speedup);

    json.obj_open()
        .field("level", level)
        .field("ranks", p)
        .field("elements", n_elements)
        .field("reference_s", ref_s)
        .field("hashed_s", hashed_s)
        .field("extract_speedup", speedup)
        .obj_close();
    report.snapshot_obs("amr_level" + std::to_string(level));
  }
  json.arr_close();

  // AMR share of the full step time: a short transport-only run with a
  // partition threshold, so balanced adaptations skip PARTITIONTREE.
  {
    double amr_s = 0, step_s = 0;
    alps::par::run(p, [&](par::Comm& c) {
      rhea::SimConfig cfg;
      cfg.init_level = 3;
      cfg.min_level = 2;
      cfg.max_level = 5;
      cfg.initial_adapt_rounds = 1;
      cfg.adapt_every = 2;
      cfg.partition_threshold = 1.5;
      cfg.prescribed_velocity = [](const std::array<double, 3>& x, double) {
        return std::array<double, 3>{0.5 - x[1], x[0] - 0.5, 0.05};
      };
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& x) {
        const double dx = x[0] - 0.3, dy = x[1] - 0.5, dz = x[2] - 0.5;
        return std::exp(-40.0 * (dx * dx + dy * dy + dz * dz));
      });
      sim.run(8);
      if (c.rank() == 0) {
        // A prescribed velocity: no Stokes phases.
        amr_s = rhea::amr_seconds();
        step_s = obs::phase_seconds("amr.new_tree") + amr_s +
                 obs::phase_seconds("energy.time_integration");
      }
    });
    const double share = step_s > 0 ? amr_s / step_s : 0.0;
    std::printf("\nAMR share of step time (transport run, threshold-gated "
                "partition): %.3fs of %.3fs = %.1f%%\n",
                amr_s, step_s, share * 1e2);
    json.obj_open("amr_share")
        .field("amr_s", amr_s)
        .field("step_s", step_s)
        .field("share", share)
        .obj_close();
  }

  report.save("BENCH_amr.json");
  std::printf(
      "\nShape check: hashed extraction beats the per-corner reference "
      "(>= 2x at\nthe largest level). scripts/check_bench.py enforces it "
      "in CI.\n");
  return 0;
}
