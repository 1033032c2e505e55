// Memory-per-dof scaling: per-subsystem accounted bytes on the adapted
// variable-viscosity Poisson stack (forest -> mesh -> element operator ->
// distributed AMG hierarchy) across refinement levels at a fixed rank
// count. The paper's claim is that AMR + AMG keep memory per core bounded
// as the mesh grows, so bytes/dof must stay flat with level: the dominant
// subsystems are volume terms (operator nnz, dof tables, element
// matrices), while surface terms (halo, ghost plans) shrink per dof.
// scripts/check_bench.py gates CI on the highest-vs-lowest bytes/dof
// ratio of the total and of every subsystem that carries a significant
// share of the footprint. Results go to BENCH_memory.json.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "amg/dist_amg.hpp"
#include "bench_common.hpp"
#include "fem/operators.hpp"
#include "la/dist_csr.hpp"
#include "obs/analysis.hpp"
#include "obs/mem.hpp"

using namespace alps;

namespace {

fem::ElementOperator poisson_operator(const forest::Forest& f,
                                      const mesh::Mesh& m) {
  return fem::build_scalar_laplace(
      m, f.connectivity(),
      [](const std::array<double, 3>& p) {
        return std::exp(std::log(1e4) * (p[2] - 0.5));  // 1e4 contrast
      },
      0b111111);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_level = argc > 1 ? std::atoi(argv[1]) : 5;
  const int p = 4;  // fixed rank count: bytes/dof vs level, not vs P
  obs::set_mem_enabled(true);
  bench::header(
      "Accounted memory per degree of freedom across refinement levels "
      "(per-subsystem byte accounting, obs/mem.hpp)",
      "memory-bounded AMR + AMG (Sec. III-IV)");
  std::printf("%-8s %6s %10s %10s %14s %12s %10s\n", "level", "ranks", "#elem",
              "#dof", "accounted", "bytes/dof", "imbalance");

  bench::Reporter report("memory", p);
  bench::JsonWriter& json = report.json();
  json.arr_open("cases");

  for (int level = 3; level <= max_level; ++level) {
    obs::analysis::MemRecord mrec;
    std::int64_t n_elements = 0, n_dof = 0;
    alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator op = poisson_operator(f, m);
      amg::DistAmg amg(c, op.assemble_dist(c));

      // Pull-model accounting, same scopes rhea::Simulation reports.
      static const obs::MemScopeId kForest = obs::mem_scope("forest.octants");
      static const obs::MemScopeId kTopo = obs::mem_scope("mesh.topology");
      static const obs::MemScopeId kDofs = obs::mem_scope("mesh.dofs");
      static const obs::MemScopeId kHalo = obs::mem_scope("mesh.halo");
      static const obs::MemScopeId kPlan = obs::mem_scope("fem.plan");
      static const obs::MemScopeId kOps = obs::mem_scope("amg.operators");
      static const obs::MemScopeId kInterp =
          obs::mem_scope("amg.interpolation");
      static const obs::MemScopeId kRap = obs::mem_scope("amg.rap_plan");
      static const obs::MemScopeId kCoarse = obs::mem_scope("amg.coarse");
      static const obs::MemScopeId kScratch = obs::mem_scope("amg.cache");
      static const obs::MemScopeId kMailbox = obs::mem_scope("par.mailbox");
      static const obs::MemScopeId kObsSelf = obs::mem_scope("obs.self");
      obs::mem_set(kForest, f.memory_bytes());
      const mesh::Mesh::MemoryBytes mb = m.memory_bytes();
      obs::mem_set(kTopo, mb.topology);
      obs::mem_set(kDofs, mb.dofs);
      obs::mem_set(kHalo, mb.halo);
      obs::mem_set(kPlan, op.memory_bytes());
      const amg::DistAmg::MemoryBytes ab = amg.memory_bytes();
      obs::mem_set(kOps, ab.operators);
      obs::mem_set(kInterp, ab.interpolation);
      obs::mem_set(kRap, ab.rap);
      obs::mem_set(kCoarse, ab.coarse);
      obs::mem_set(kScratch, ab.scratch);
      obs::mem_set(kMailbox, c.pending_recv_bytes());
      obs::mem_set(kObsSelf, obs::self_memory_bytes());

      const obs::analysis::MemRecord rec =
          obs::analysis::analyze_step(
              c, level, {.timing = false, .sum = {}, .max = {}})
              .mem;
      const std::int64_t ne = c.allreduce_sum(f.tree().num_local());
      if (c.rank() == 0) {
        mrec = rec;
        n_elements = ne;
        n_dof = amg.finest().global_rows();
      }
    });

    const double bpd = n_dof > 0 ? static_cast<double>(mrec.acc_total) /
                                       static_cast<double>(n_dof)
                                 : 0.0;
    std::printf("L%-7d %6d %10lld %10lld %14llu %12.1f %10.3f\n", level, p,
                static_cast<long long>(n_elements),
                static_cast<long long>(n_dof),
                static_cast<unsigned long long>(mrec.acc_total), bpd,
                mrec.acc_imbalance);

    json.obj_open()
        .field("level", level)
        .field("ranks", p)
        .field("n_elements", n_elements)
        .field("n_dof", n_dof)
        .field("accounted_bytes", mrec.acc_total)
        .field("accounted_max_rank_bytes", mrec.acc_max)
        .field("imbalance", mrec.acc_imbalance)
        .field("bytes_per_dof", bpd);
    json.arr_open("subsystems");
    for (const auto& s : mrec.subsystems) {
      json.obj_open()
          .field("name", s.scope)
          .field("bytes", s.total)
          .field("max_bytes", s.max)
          .field("argmax_rank", s.argmax);
      if (n_dof > 0)
        json.field("bytes_per_dof",
                   static_cast<double>(s.total) / static_cast<double>(n_dof));
      json.obj_close();
    }
    json.arr_close();
    json.obj_open("rss").field("available", mrec.rss_available);
    if (mrec.rss_available)
      json.field("max_bytes", mrec.rss_max).field("hwm_bytes", mrec.rss_hwm_max);
    json.obj_close();
    json.obj_close();
    report.snapshot_obs("memory_level" + std::to_string(level));
  }

  json.arr_close();
  report.save("BENCH_memory.json");

  std::printf(
      "\nShape check: total and dominant-subsystem bytes/dof flat across "
      "levels\n(memory per core bounded as the mesh grows); surface terms "
      "(mesh.halo)\nmay shrink per dof. scripts/check_bench.py enforces the "
      "flatness ratio in CI.\n");
  return 0;
}
