// Matrix-free apply hot path: lane-batched SoA element kernels with
// comm-compute overlap (ElementOperator::apply) versus the scalar
// reference path (apply_scalar), reported as nanoseconds per element on a
// level-4 adapted mesh. The Stokes case times the matrix-free saddle
// operator (fem::StokesOperator) against the same operator assembled into
// stored 32x32 element matrices, at 1 and 4 ranks. Also verifies the
// reduced-synchronization Krylov loops: CG and MINRES must issue at most
// 2 global reductions per iteration (comm.sync.* obs counters) and the
// fused multi-value reductions must not change iteration counts versus
// per-dot reductions.
// Results go to BENCH_apply.json; scripts/check_bench.py gates CI on the
// speedups and the sync counts.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fem/operators.hpp"
#include "la/krylov.hpp"
#include "obs/obs.hpp"
#include "saddle_reference.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fem::ElementOperator laplace_operator(const forest::Forest& f,
                                      const mesh::Mesh& m) {
  return fem::build_scalar_laplace(
      m, f.connectivity(),
      [](const std::array<double, 3>& p) {
        return std::exp(std::log(1e4) * (p[2] - 0.5));
      },
      0b111111);
}

/// Stokes-shaped 4-component operator: the scalar Laplacian replicated on
/// the block diagonal, Dirichlet on components 0..2 at physical walls.
/// Same block size (32x32) and gather pattern as the real viscous block,
/// so the element matvec cost is representative.
fem::ElementOperator vector_operator(const mesh::Mesh& m,
                                     const fem::ElementOperator& lap) {
  fem::ElementOperator op(&m, 4);
  const std::size_t bs = op.block_size();
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const std::span<const double> m1 = lap.element_matrix(e);
    std::span<double> m4 = op.element_matrix(e);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j)
        for (std::size_t c = 0; c < 4; ++c)
          m4[(i * 4 + c) * bs + j * 4 + c] = m1[i * 8 + j];
  }
  for (std::int64_t d = 0; d < m.n_local; ++d)
    if (m.dof_boundary[static_cast<std::size_t>(d)] != 0)
      for (int c = 0; c < 3; ++c) op.set_dirichlet(d, c);
  return op;
}

/// Deterministic ghost-consistent input: a function of the global id.
std::vector<double> test_vector(const mesh::Mesh& m, int ncomp) {
  std::vector<double> x(static_cast<std::size_t>(m.n_local) * ncomp);
  for (std::int64_t d = 0; d < m.n_local; ++d)
    for (int c = 0; c < ncomp; ++c)
      x[static_cast<std::size_t>(d) * ncomp + c] =
          std::sin(0.001 * static_cast<double>(
                               m.dof_gids[static_cast<std::size_t>(d)]) +
                   0.1 * c);
  return x;
}

/// Best-of-trials timing for both paths, trials interleaved so slow drift
/// (frequency scaling, co-tenants on shared CI runners) hits both equally.
/// The min filters contention noise: it is the cleanest measure of the
/// code, which is what the speedup gate is about.
std::pair<double, double> time_pair(const std::function<void()>& a,
                                    const std::function<void()>& b, int reps,
                                    int trials) {
  a();  // warm up: builds the plans, faults the pages
  b();
  double ta = 1e300, tb = 1e300;
  for (int t = 0; t < trials; ++t) {
    double t0 = now_s();
    for (int i = 0; i < reps; ++i) a();
    ta = std::min(ta, (now_s() - t0) / reps);
    t0 = now_s();
    for (int i = 0; i < reps; ++i) b();
    tb = std::min(tb, (now_s() - t0) / reps);
  }
  return {ta, tb};
}

struct StokesProbe {
  std::int64_t n_elem = 0;
  double t_assembled = 0, t_mf = 0, rel_diff = 0;
  std::size_t assembled_doubles = 0, mf_doubles = 0;
};

/// Matrix-free vs assembled saddle apply on the adapted mesh at `ranks`:
/// best-of-trials seconds per apply (rank 0's clock; every apply is
/// collective, so the ranks run in step) and the max relative difference.
StokesProbe stokes_probe(int level, int ranks) {
  StokesProbe out;
  alps::par::run(ranks, [&](par::Comm& c) {
    forest::Forest f = forest::Forest::new_uniform(
        c, forest::Connectivity::unit_cube(), level);
    bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
    mesh::Mesh m = mesh::extract_mesh(c, f);
    std::vector<double> eta(m.elements.size() * 8);
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      const fem::MappedQuad mq =
          fem::map_element(fem::element_geometry(m, f.connectivity(), e));
      for (std::size_t q = 0; q < 8; ++q)
        eta[8 * e + q] = std::exp(std::log(1e4) * (mq.xq[q][2] - 0.5));
    }
    const fem::StokesOperator mf = test::matrix_free_saddle(
        m, f.connectivity(), eta, fem::VelocityBc::kFreeSlip);
    const fem::ElementOperator ref = test::assembled_saddle(
        m, f.connectivity(), eta, fem::VelocityBc::kFreeSlip);
    const std::vector<double> x = test_vector(m, 4);
    std::vector<double> y(x.size()), y_ref(x.size());
    const std::int64_t n_elem = c.allreduce_sum(m.num_elements());
    const int reps = std::max(10, static_cast<int>(500'000 / n_elem));
    const auto [t_ref, t_mf] = time_pair([&] { ref.apply(c, x, y_ref); },
                                         [&] { mf.apply(c, x, y); }, reps, 5);
    double diff = 0, scale = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      diff = std::max(diff, std::abs(y[i] - y_ref[i]));
      scale = std::max(scale, std::abs(y_ref[i]));
    }
    diff = c.allreduce_max(diff);
    scale = c.allreduce_max(scale);
    const std::int64_t assembled_doubles = c.allreduce_sum(
        static_cast<std::int64_t>(ref.plan_matrix_doubles()));
    const std::int64_t mf_doubles =
        c.allreduce_sum(static_cast<std::int64_t>(mf.plan_matrix_doubles()));
    if (c.rank() == 0) {
      out.n_elem = n_elem;
      out.t_assembled = t_ref;
      out.t_mf = t_mf;
      out.rel_diff = diff / scale;
      out.assembled_doubles = static_cast<std::size_t>(assembled_doubles);
      out.mf_doubles = static_cast<std::size_t>(mf_doubles);
    }
  });
  return out;
}

struct SolverProbe {
  int iters_fused = 0, iters_reference = 0;
  std::uint64_t syncs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int level = argc > 1 ? std::atoi(argv[1]) : 4;
  bench::header(
      "Matrix-free apply: batched SoA element kernels + overlapped halo "
      "vs scalar reference; reduced-sync Krylov",
      "matvec hot path (paper Sec. III solver cost)");

  bench::Reporter report("apply");
  bench::JsonWriter& json = report.json();
  json.field("level", level);
  json.arr_open("cases");

  std::printf("%-6s %6s %6s %10s %12s %14s %14s %8s\n", "level", "ranks",
              "ncomp", "#elem", "#boundary", "scalar ns/el", "batched ns/el",
              "speedup");

  // Headline timing at P=1: the container pins everything to one core, so
  // thread-ranks would contend and time each other, not the kernels. The
  // overlap machinery still runs (empty neighbor lists).
  for (const int ncomp : {1, 4}) {
    double t_scalar = 0, t_batched = 0;
    std::int64_t n_elem = 0, n_boundary = 0;
    std::size_t mat_doubles = 0, bs = 0;
    alps::par::run(1, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator lap = laplace_operator(f, m);
      fem::ElementOperator op =
          ncomp == 1 ? std::move(lap) : vector_operator(m, lap);
      const std::vector<double> x = test_vector(m, ncomp);
      std::vector<double> y(x.size());
      n_elem = m.num_elements();
      const int reps =
          std::max(10, static_cast<int>(2'000'000 / (n_elem * ncomp)));
      std::tie(t_scalar, t_batched) = time_pair(
          [&] { op.apply_scalar(c, x, y); }, [&] { op.apply(c, x, y); },
          reps, 5);
      n_boundary = static_cast<std::int64_t>(op.boundary_elements());
      mat_doubles = op.plan_matrix_doubles();
      bs = op.block_size();
    });
    const double ns_scalar = 1e9 * t_scalar / static_cast<double>(n_elem);
    const double ns_batched = 1e9 * t_batched / static_cast<double>(n_elem);
    const double speedup = ns_scalar / ns_batched;
    std::printf("L%-5d %6d %6d %10lld %12lld %14.1f %14.1f %7.2fx\n", level,
                1, ncomp, static_cast<long long>(n_elem),
                static_cast<long long>(n_boundary), ns_scalar, ns_batched,
                speedup);
    json.obj_open()
        .field("level", level)
        .field("ranks", 1)
        .field("ncomp", ncomp)
        .field("n_elements", n_elem)
        .field("scalar_ns_per_element", ns_scalar)
        .field("batched_ns_per_element", ns_batched)
        .field("speedup", speedup);
    {
      // Achieved rates of the batched timing: bytes/s over the known plan
      // matrix stream and FLOP/s from the logical 2 flops per block entry.
      const double matrix_bytes = static_cast<double>(mat_doubles) * 8.0;
      const double flops = 2.0 * static_cast<double>(bs) *
                           static_cast<double>(bs) *
                           static_cast<double>(n_elem);
      json.field("matrix_bytes_per_apply", matrix_bytes)
          .field("flops_per_apply", flops)
          .field("matrix_bytes_per_s", matrix_bytes / t_batched)
          .field("flops_per_s", flops / t_batched);
      std::printf(
          "       rates[%d-comp]: %.2f GB/s matrix stream, %.2f GFLOP/s\n",
          ncomp, matrix_bytes / t_batched * 1e-9, flops / t_batched * 1e-9);
    }
    json.obj_close();
  }
  json.arr_close();

  // Matrix-free Stokes saddle operator vs its assembled element matrices.
  json.arr_open("stokes");
  std::printf("\n%-6s %6s %10s %16s %12s %8s %12s\n", "level", "ranks",
              "#elem", "assembled ns/el", "mf ns/el", "speedup", "rel diff");
  for (const int ranks : {1, 4}) {
    const StokesProbe sp = stokes_probe(level, ranks);
    const double ns_ref = 1e9 * sp.t_assembled / static_cast<double>(sp.n_elem);
    const double ns_mf = 1e9 * sp.t_mf / static_cast<double>(sp.n_elem);
    std::printf("L%-5d %6d %10lld %16.1f %12.1f %7.2fx %12.2e\n", level,
                ranks, static_cast<long long>(sp.n_elem), ns_ref, ns_mf,
                ns_ref / ns_mf, sp.rel_diff);
    json.obj_open()
        .field("level", level)
        .field("ranks", ranks)
        .field("n_elements", sp.n_elem)
        .field("assembled_ns_per_element", ns_ref)
        .field("mf_ns_per_element", ns_mf)
        .field("mf_speedup", ns_ref / ns_mf)
        .field("assembled_bytes_per_apply",
               8.0 * static_cast<double>(sp.assembled_doubles))
        .field("mf_bytes_per_apply", 8.0 * static_cast<double>(sp.mf_doubles))
        .field("max_rel_diff", sp.rel_diff);
    json.obj_close();
  }
  json.arr_close();

  // Reduced-synchronization Krylov at P=2: count reduction rounds per
  // iteration via the comm.sync.* counters and check the fused multi-value
  // reductions leave iteration counts unchanged versus one-dot-per-round.
  json.arr_open("solvers");
  std::printf("\n%-8s %6s %8s %8s %10s %14s\n", "solver", "ranks", "iters",
              "iters1", "syncs", "sync/iter");
  for (const char* solver : {"cg", "minres"}) {
    const bool is_cg = solver[0] == 'c';
    SolverProbe probe;
    alps::par::run(2, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      // Constant coefficient: converges without a preconditioner, so the
      // probe measures the solver's reduction rounds, not AMG's.
      fem::ElementOperator op = fem::build_scalar_laplace(
          m, f.connectivity(),
          [](const std::array<double, 3>&) { return 1.0; }, 0b111111);
      const std::vector<double> xe = test_vector(m, 1);
      std::vector<double> b(xe.size()), x(xe.size(), 0.0);
      op.apply(c, xe, b);
      la::KrylovOptions kopt;
      kopt.rtol = 1e-6;
      const obs::CounterId cid = is_cg ? obs::wellknown::cg_syncs()
                                       : obs::wellknown::minres_syncs();
      const std::uint64_t s0 = obs::counter_value(c.rank(), cid);
      const la::SolveResult rf =
          is_cg ? la::cg(op.as_linop(c), b, x, la::identity_op(),
                         op.as_multi_dot(c), kopt)
                : la::minres(op.as_linop(c), b, x, la::identity_op(),
                             op.as_multi_dot(c), kopt);
      const std::uint64_t s1 = obs::counter_value(c.rank(), cid);
      // Reference: same math, one reduction per dot (the compat path).
      std::fill(x.begin(), x.end(), 0.0);
      const la::SolveResult rr =
          is_cg ? la::cg(op.as_linop(c), b, x, la::identity_op(),
                         op.as_dot(c), kopt)
                : la::minres(op.as_linop(c), b, x, la::identity_op(),
                             op.as_dot(c), kopt);
      if (c.rank() == 0) {
        probe.iters_fused = rf.iterations;
        probe.iters_reference = rr.iterations;
        probe.syncs = s1 - s0;
      }
    });
    // One startup reduction precedes the loop; iterations then cost
    // exactly (syncs - 1) / iters rounds each.
    const double per_iter =
        probe.iters_fused > 0
            ? static_cast<double>(probe.syncs - 1) / probe.iters_fused
            : 0.0;
    std::printf("%-8s %6d %8d %8d %10llu %14.3f\n", solver, 2,
                probe.iters_fused, probe.iters_reference,
                static_cast<unsigned long long>(probe.syncs), per_iter);
    json.obj_open()
        .field("solver", std::string(solver))
        .field("ranks", 2)
        .field("iters_fused", probe.iters_fused)
        .field("iters_reference", probe.iters_reference)
        .field("syncs", probe.syncs)
        .field("sync_per_iter", per_iter);
    json.obj_close();
    report.snapshot_obs(std::string(solver) + "_p2");
  }
  json.arr_close();
  report.save("BENCH_apply.json");

  std::printf(
      "\nShape check: batched speedup >= 2x on the 4-component (Stokes-"
      "shaped)\ncase; matrix-free Stokes speedup >= 1.2x at 1 rank; "
      "sync/iter <= 2 for both\nsolvers; fused vs reference iteration "
      "counts equal. scripts/check_bench.py\nenforces all four in CI.\n");
  return 0;
}
