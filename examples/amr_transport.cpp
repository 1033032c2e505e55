// Dynamic AMR tracking a transported front (the paper's Sec. V test
// problem): high-Peclet advection-diffusion with SUPG, adaptation every
// few steps, the element count held near a target by MARKELEMENTS, and
// the refined region following the front through the domain.
//
// Run:  ./amr_transport [steps] [ranks]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/obs.hpp"
#include "octree/balance.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 24;
  const int ranks = argc > 2 ? std::max(1, std::atoi(argv[2])) : 2;
  std::printf("AMR transport test (%d steps, %d ranks): rotating thermal "
              "front, adaptation every 4 steps\n",
              steps, ranks);

  alps::par::run(ranks, [steps](par::Comm& comm) {
    rhea::SimConfig cfg;
    cfg.init_level = 4;
    cfg.min_level = 2;
    cfg.max_level = 6;
    cfg.initial_adapt_rounds = 2;
    cfg.adapt_every = 4;
    cfg.target_elements = 6000;
    cfg.energy.kappa = 1e-6;  // high Peclet number, as in the paper
    cfg.energy.dirichlet_faces = 0b111111;
    cfg.prescribed_velocity = [](const std::array<double, 3>& p, double) {
      return std::array<double, 3>{-(p[1] - 0.5), (p[0] - 0.5), 0.0};
    };
    rhea::Simulation sim(comm, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      const double dx = p[0] - 0.75, dy = p[1] - 0.5, dz = p[2] - 0.5;
      return std::exp(-100.0 * (dx * dx + dy * dy + dz * dz));
    });

    if (comm.rank() == 0)
      std::printf("\n%6s %10s %10s %8s %10s %10s\n", "step", "time",
                  "elements", "levels", "T_max", "front(x,y)");
    for (int s = 0; s < steps; ++s) {
      sim.run(1);
      int lmin = 99, lmax = 0;
      for (const auto& o : sim.forest().tree().leaves()) {
        lmin = std::min(lmin, static_cast<int>(o.level));
        lmax = std::max(lmax, static_cast<int>(o.level));
      }
      lmin = comm.allreduce_min(lmin);
      lmax = comm.allreduce_max(lmax);
      // Track the front: temperature-weighted center of mass.
      double cx = 0, cy = 0, mass = 0, tmax = 0;
      for (std::int64_t d = 0; d < sim.mesh().n_owned; ++d) {
        const double tv = sim.temperature()[static_cast<std::size_t>(d)];
        const auto& p = sim.mesh().dof_coords[static_cast<std::size_t>(d)];
        cx += tv * p[0];
        cy += tv * p[1];
        mass += tv;
        tmax = std::max(tmax, tv);
      }
      cx = comm.allreduce_sum(cx);
      cy = comm.allreduce_sum(cy);
      mass = comm.allreduce_sum(mass);
      tmax = comm.allreduce_max(tmax);
      const std::int64_t ne = sim.global_elements();
      if (comm.rank() == 0 && (s % 4 == 3 || s == 0))
        std::printf("%6d %10.3f %10lld %5d-%-2d %10.3f (%.2f,%.2f)\n", s + 1,
                    sim.time(), static_cast<long long>(ne), lmin, lmax, tmax,
                    cx / mass, cy / mass);
    }
    const bool balanced = sim.forest().is_balanced(comm);
    if (comm.rank() == 0) {
      std::printf("\nadaptation steps: %zu, mesh balanced: %s\n",
                  sim.adapt_history().size(), balanced ? "yes" : "NO");
      const double integration =
          obs::phase_seconds("energy.time_integration");
      const double amr = rhea::amr_seconds();
      const double denom = integration + amr;
      std::printf("time split: integration %.2fs, AMR total %.2fs (%.1f%%)\n",
                  integration, amr, denom > 0 ? 100.0 * amr / denom : 0.0);
    }
  });
  return 0;
}
