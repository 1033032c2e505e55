#include "mesh/ghost.hpp"

#include <algorithm>

#include "octree/sort.hpp"

namespace alps::mesh {

std::vector<Octant> ghost_layer(par::Comm& comm, const LinearOctree& tree,
                                const Connectivity& conn) {
  const int p = comm.size();
  std::vector<std::vector<Octant>> outbox(static_cast<std::size_t>(p));
  Octant n;
  for (const Octant& o : tree.leaves()) {
    for (int d = 0; d < octree::kNumAllDirs; ++d) {
      if (!conn.neighbor_across(o, d, n)) continue;
      const int lo = tree.owner_of(octree::key_of(n));
      const int hi =
          tree.owner_of(octree::SfcKey{n.tree, n.morton_last()});
      for (int r = lo; r <= hi; ++r) {
        if (r == comm.rank()) continue;
        outbox[static_cast<std::size_t>(r)].push_back(o);
      }
    }
  }
  std::vector<std::vector<octree::WireOctant>> wire(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& v = outbox[static_cast<std::size_t>(r)];
    octree::radix_sort_unique_sfc(v);
    auto& w = wire[static_cast<std::size_t>(r)];
    w.reserve(v.size());
    for (const Octant& o : v) w.emplace_back(o);
  }
  std::vector<std::vector<octree::WireOctant>> inbox = comm.alltoallv(wire);
  std::vector<Octant> ghosts;
  std::size_t total = 0;
  for (const auto& v : inbox) total += v.size();
  ghosts.reserve(total);
  for (const auto& v : inbox)
    for (const octree::WireOctant& w : v) ghosts.push_back(w.octant());
  octree::radix_sort_unique_sfc(ghosts);
  return ghosts;
}

}  // namespace alps::mesh
