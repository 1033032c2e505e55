#include "fem/gather_plan.hpp"

#include <cassert>

namespace alps::fem {

void GatherPlan::build(const mesh::Mesh& m, int nc_in,
                       std::span<const std::uint8_t> dirichlet) {
  ncomp = nc_in;
  const std::size_t nc = static_cast<std::size_t>(nc_in);
  const std::size_t ne = m.elements.size();
  constexpr std::size_t L = kLanes;

  // Classify: an element is boundary iff any gather slot (corner dof or
  // hanging-constraint master) is a ghost — only those elements write the
  // ghost slots the accumulate ships, so the interior set is free to
  // stream while the halo is in flight.
  std::vector<std::uint8_t> boundary(ne, 0);
  n_boundary = 0;
  for (std::size_t e = 0; e < ne; ++e) {
    for (const mesh::Corner& cc : m.corners[e])
      for (int k = 0; k < cc.n; ++k)
        if (!m.is_owned(cc.dof[static_cast<std::size_t>(k)]))
          boundary[e] = 1;
    n_boundary += boundary[e];
  }
  n_interior = ne - n_boundary;
  boundary_batches = (n_boundary + L - 1) / L;
  n_batches = boundary_batches + (n_interior + L - 1) / L;

  lane_of.assign(ne, 0);
  std::size_t next_boundary = 0, next_interior = boundary_batches * L;
  for (std::size_t e = 0; e < ne; ++e)
    lane_of[e] = static_cast<std::int32_t>(boundary[e] ? next_boundary++
                                                       : next_interior++);

  gbase.assign(n_batches * 32 * L, 0);
  w_raw.assign(n_batches * 32 * nc * L, 0.0);
  w_bc.assign(n_batches * 32 * nc * L, 0.0);
  slots.assign(n_batches, 1);
  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t batch = batch_of(e), lane = lane_in_batch(e);
    std::int32_t* gb = gbase.data() + batch * 32 * L;
    double* wr = w_raw.data() + batch * 32 * nc * L;
    double* wb = w_bc.data() + batch * 32 * nc * L;
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      if (cc.n > slots[batch]) slots[batch] = static_cast<std::uint8_t>(cc.n);
      for (int k = 0; k < cc.n; ++k) {
        const std::size_t s = static_cast<std::size_t>(i) * 4 +
                              static_cast<std::size_t>(k);
        const std::size_t d =
            static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]);
        const double w = cc.w[static_cast<std::size_t>(k)];
        gb[s * L + lane] = static_cast<std::int32_t>(d * nc);
        for (std::size_t c = 0; c < nc; ++c) {
          wr[(s * nc + c) * L + lane] = w;
          wb[(s * nc + c) * L + lane] = dirichlet[d * nc + c] ? 0.0 : w;
        }
      }
    }
  }

  owned_dirichlet.clear();
  const std::size_t owned = static_cast<std::size_t>(m.n_owned) * nc;
  for (std::size_t i = 0; i < owned; ++i)
    if (dirichlet[i]) owned_dirichlet.push_back(static_cast<std::int32_t>(i));
}

void owned_multi_dot(par::Comm& comm, std::size_t owned,
                     std::span<const la::DotPair> pairs,
                     std::span<double> out) {
  double local[8];
  assert(pairs.size() <= 8);
  for (std::size_t k = 0; k < pairs.size(); ++k)
    local[k] =
        la::pairwise_dot(pairs[k].a.first(owned), pairs[k].b.first(owned));
  comm.allreduce_sum(std::span<const double>(local, pairs.size()), out);
}

}  // namespace alps::fem
