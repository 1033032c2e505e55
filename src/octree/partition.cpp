#include "octree/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace alps::octree {

void partition(par::Comm& comm, LinearOctree& tree,
               std::span<LeafPayload*> payloads,
               std::span<const double> weights) {
  const int p = comm.size();
  const std::int64_t n_local = tree.num_local();
  for (LeafPayload* f : payloads) {
    if (static_cast<std::int64_t>(f->data.size()) != n_local * f->ncomp)
      throw std::invalid_argument("partition: payload size mismatch");
  }
  if (!weights.empty() &&
      static_cast<std::int64_t>(weights.size()) != n_local)
    throw std::invalid_argument("partition: weight size mismatch");

  std::vector<int> dest(static_cast<std::size_t>(n_local));
  std::vector<std::vector<WireOctant>> in_oct;
  {
    // PARTITIONTREE: split computation + octant movement.
    OBS_PHASE_SPAN("amr.partition");

    // Destination rank of each local leaf from its global SFC position.
    if (weights.empty()) {
      const std::int64_t my_offset = comm.exscan_sum(n_local);
      const std::int64_t n_global = comm.allreduce_sum(n_local);
      for (std::int64_t i = 0; i < n_local; ++i) {
        const std::int64_t g = my_offset + i;
        // Inverse of the split g in [N*r/P, N*(r+1)/P).
        int r = static_cast<int>((static_cast<__int128>(g) * p) / n_global);
        while (g < n_global * r / p) --r;
        while (g >= n_global * (r + 1) / p) ++r;
        dest[static_cast<std::size_t>(i)] = r;
      }
    } else {
      double w_local = 0.0;
      for (double w : weights) w_local += w;
      const double my_woff = comm.exscan_sum(w_local);
      const double w_global = comm.allreduce_sum(w_local);
      if (!(w_global > 0.0))
        throw std::invalid_argument(
            "partition: weights must have a positive global sum");
      double acc = my_woff;
      for (std::int64_t i = 0; i < n_local; ++i) {
        const double mid = acc + 0.5 * weights[static_cast<std::size_t>(i)];
        int r = static_cast<int>(std::floor(mid / w_global * p));
        dest[static_cast<std::size_t>(i)] = std::clamp(r, 0, p - 1);
        acc += weights[static_cast<std::size_t>(i)];
      }
      // SFC order must be preserved: destinations are already monotone
      // because the weighted prefix is monotone.
    }

    // Ship octants.
    std::vector<std::vector<WireOctant>> out_oct(static_cast<std::size_t>(p));
    for (std::int64_t i = 0; i < n_local; ++i) {
      const Octant& o = tree.leaves()[static_cast<std::size_t>(i)];
      out_oct[static_cast<std::size_t>(dest[static_cast<std::size_t>(i)])]
          .emplace_back(o);
    }
    in_oct = comm.alltoallv(out_oct);
  }

  {
    // TRANSFERFIELDS: each payload moves with the identical routing.
    OBS_PHASE_SPAN("amr.transfer_fields");
    for (LeafPayload* f : payloads) {
      std::vector<std::vector<double>> out_f(static_cast<std::size_t>(p));
      for (std::int64_t i = 0; i < n_local; ++i) {
        auto& buf =
            out_f[static_cast<std::size_t>(dest[static_cast<std::size_t>(i)])];
        const double* src = f->data.data() + i * f->ncomp;
        buf.insert(buf.end(), src, src + f->ncomp);
      }
      std::vector<std::vector<double>> in_f = comm.alltoallv(out_f);
      f->data.clear();
      for (const auto& v : in_f)
        f->data.insert(f->data.end(), v.begin(), v.end());
    }
  }

  // Concatenating in source-rank order preserves global SFC order.
  std::vector<Octant> leaves;
  for (const auto& v : in_oct)
    for (const WireOctant& w : v) leaves.push_back(w.octant());
  tree.mutable_leaves() = std::move(leaves);
  tree.update_ranges(comm);
}

double load_imbalance(par::Comm& comm, const LinearOctree& tree) {
  const std::int64_t n_local = tree.num_local();
  const std::int64_t n_global = comm.allreduce_sum(n_local);
  const std::int64_t n_max = comm.allreduce_max(n_local);
  const double ideal =
      static_cast<double>(n_global) / static_cast<double>(comm.size());
  return ideal > 0 ? static_cast<double>(n_max) / ideal : 1.0;
}

}  // namespace alps::octree
