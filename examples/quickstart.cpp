// Quickstart: a tour of the ALPS public API in ~100 lines.
//
//   1. build a forest-of-octrees mesh and adapt it,
//   2. enforce 2:1 balance and repartition along the space-filling curve,
//   3. extract a finite element mesh with hanging-node constraints,
//   4. solve a variable-coefficient Poisson problem with CG + AMG,
//   5. print a summary.
//
// Run:  ./quickstart [ranks]
// Set ALPS_TRACE=1 to also write a Chrome/Perfetto trace of the run
// (quickstart_trace.json, one timeline track per rank).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "amg/dist_amg.hpp"
#include "fem/operators.hpp"
#include "mesh/mesh.hpp"
#include "obs/obs.hpp"
#include "par/runtime.hpp"

using namespace alps;

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::max(1, std::atoi(argv[1])) : 2;
  std::printf("ALPS quickstart on %d simulated ranks\n", ranks);

  alps::par::run(ranks, [](par::Comm& comm) {
    // 1. A uniform level-3 octree on the unit cube (one tree; try
    //    Connectivity::brick or cubed_sphere_shell for forests).
    forest::Forest forest = forest::Forest::new_uniform(
        comm, forest::Connectivity::unit_cube(), 3);

    // Refine every element whose center lies inside a ball: this creates
    // hanging nodes on the ball's surface.
    std::vector<std::int8_t> flags(forest.tree().leaves().size(), 0);
    for (std::size_t e = 0; e < flags.size(); ++e) {
      const auto& o = forest.tree().leaves()[e];
      const auto h = octree::octant_len(o.level);
      const auto p = forest.connectivity().map_point(o.tree, o.x + h / 2,
                                                     o.y + h / 2, o.z + h / 2);
      const double r2 = (p[0] - 0.5) * (p[0] - 0.5) +
                        (p[1] - 0.5) * (p[1] - 0.5) +
                        (p[2] - 0.5) * (p[2] - 0.5);
      if (r2 < 0.09) flags[e] = 1;
    }
    forest.tree().adapt(flags, 0, 6);
    forest.tree().update_ranges(comm);

    // 2. 2:1 balance + SFC repartition.
    forest.balance(comm);
    forest.partition(comm);

    // 3. Extract the FEM mesh: global numbering, constraints, ghosts.
    mesh::Mesh m = mesh::extract_mesh(comm, forest);

    // 4. Solve -div(k grad u) = 0, u = x + y on the boundary, with a
    //    coefficient jump of 100 across the mid-plane.
    fem::ElementOperator op = fem::build_scalar_laplace(
        m, forest.connectivity(),
        [](const std::array<double, 3>& p) { return p[2] > 0.5 ? 100.0 : 1.0; },
        /*dirichlet_faces=*/0b111111);
    std::vector<double> g(static_cast<std::size_t>(m.n_local), 0.0);
    for (std::int64_t i = 0; i < m.n_local; ++i)
      if (m.dof_boundary[static_cast<std::size_t>(i)])
        g[static_cast<std::size_t>(i)] =
            m.dof_coords[static_cast<std::size_t>(i)][0] +
            m.dof_coords[static_cast<std::size_t>(i)][1];
    std::vector<double> b(static_cast<std::size_t>(m.n_local), 0.0);
    op.lift_bcs(comm, g, b);

    // AMG-preconditioned CG: the owned-row distributed assembly and the
    // distributed hierarchy keep every rank at O(N_local) storage (see
    // DESIGN.md §7 for the layout and the BoomerAMG substitution). Owned
    // dofs [0, n_owned) carry gids gid_offset + i, so solver vectors are
    // just the owned slice of a mesh field; one halo exchange refreshes
    // the ghosts afterwards.
    amg::DistAmg amg(comm, op.assemble_dist(comm));
    std::vector<double> pb(static_cast<std::size_t>(m.n_owned));
    std::vector<double> px(static_cast<std::size_t>(m.n_owned));
    la::LinOp pre = [&](std::span<const double> x, std::span<double> y) {
      std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(m.n_owned),
                pb.begin());
      std::fill(px.begin(), px.end(), 0.0);
      amg.vcycle(comm, pb, px);
      std::copy(px.begin(), px.end(), y.begin());
      m.exchange(comm, y);
    };
    std::vector<double> x = g;
    la::KrylovOptions kopt;
    kopt.rtol = 1e-10;
    const la::SolveResult r =
        la::cg(op.as_linop(comm), b, x, pre, op.as_dot(comm), kopt);

    // 5. Report.
    const std::int64_t ne = comm.allreduce_sum(forest.tree().num_local());
    std::int64_t hanging = 0;
    for (const auto& ec : m.corners)
      for (const auto& cc : ec)
        if (cc.hanging) hanging++;
    hanging = comm.allreduce_sum(hanging);
    double err = 0.0;
    for (std::int64_t i = 0; i < m.n_local; ++i) {
      // The exact solution of this problem is u = x + y (k is constant
      // along it), so the solve must reproduce it.
      const auto& p = m.dof_coords[static_cast<std::size_t>(i)];
      err = std::max(err, std::abs(x[static_cast<std::size_t>(i)] - p[0] - p[1]));
    }
    err = comm.allreduce_max(err);
    if (comm.rank() == 0) {
      std::printf("  elements: %lld (balanced, partitioned)\n",
                  static_cast<long long>(ne));
      std::printf("  dofs: %lld global, %lld hanging element-corners\n",
                  static_cast<long long>(m.n_global),
                  static_cast<long long>(hanging));
      std::printf("  CG converged in %d iterations (relres %.1e)\n",
                  r.iterations, r.relative_residual);
      std::printf("  max error vs exact solution u = x + y: %.2e\n", err);
    }
  });

  const std::string trace = obs::maybe_write_trace("quickstart_trace.json");
  if (!trace.empty())
    std::printf("trace written to %s (open in https://ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace.c_str());
  return 0;
}
