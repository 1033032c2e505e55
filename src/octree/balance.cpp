#include "octree/balance.hpp"

#include <algorithm>
#include <cassert>

#include "octree/sort.hpp"

namespace alps::octree {

namespace {

bool default_neighbor(const Octant& o, int dir, Octant& out) {
  return neighbor_inside(o, dir, out);
}

/// Generate the requirement octants of all local leaves and route each to
/// the rank owning its anchor. Returns the requirements this rank must
/// check/enforce (its own plus received), deduplicated. Only requirements
/// anchored in another rank's region — necessarily boundary-adjacent — go
/// over the wire; locally anchored ones (the bulk of the interior) are
/// kept out of the exchange entirely.
std::vector<Octant> route_requirements(par::Comm& comm,
                                       const LinearOctree& tree, int ndirs,
                                       const NeighborFn& nbr) {
  const int p = comm.size();
  const int self = comm.rank();
  std::vector<std::vector<Octant>> outbox(static_cast<std::size_t>(p));
  std::vector<Octant> reqs;
  Octant n;
  for (const Octant& o : tree.leaves()) {
    if (o.level < 2) continue;  // any neighbor satisfies 2:1 already
    for (int d = 0; d < ndirs; ++d) {
      if (!nbr(o, d, n)) continue;
      const Octant q = n.ancestor(o.level - 1);
      const int owner = tree.owner_of(q);
      if (owner == self)
        reqs.push_back(q);
      else
        outbox[static_cast<std::size_t>(owner)].push_back(q);
    }
  }
  std::vector<std::vector<WireOctant>> wire(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& v = outbox[static_cast<std::size_t>(r)];
    radix_sort_unique_sfc(v);
    auto& w = wire[static_cast<std::size_t>(r)];
    w.reserve(v.size());
    for (const Octant& o : v) w.emplace_back(o);
  }
  std::vector<std::vector<WireOctant>> inbox = comm.alltoallv(wire);
  for (const auto& v : inbox)
    for (const WireOctant& w : v) reqs.push_back(w.octant());
  radix_sort_unique_sfc(reqs);
  return reqs;
}

/// Emit `o` split just enough that every requirement in reqs[first, last)
/// (all descendants-or-equal of o) is met, appending leaves in SFC order.
void expand_leaf(const Octant& o, std::span<const Octant> reqs,
                 std::vector<Octant>& out) {
  bool deeper = false;
  for (const Octant& q : reqs)
    if (q.level > o.level) {
      deeper = true;
      break;
    }
  if (!deeper) {
    out.push_back(o);
    return;
  }
  // Split and hand each requirement to the child covering it. Children in
  // Morton order are child ids 0..7.
  std::array<std::vector<Octant>, 8> child_reqs;
  for (const Octant& q : reqs) {
    if (q.level <= o.level) continue;
    const Octant a = q.ancestor(o.level + 1);
    child_reqs[static_cast<std::size_t>(a.child_id())].push_back(q);
  }
  for (int c = 0; c < 8; ++c)
    expand_leaf(o.child(c), child_reqs[static_cast<std::size_t>(c)], out);
}

}  // namespace

int balance(par::Comm& comm, LinearOctree& tree, Adjacency adj,
            const NeighborFn& nbr) {
  const NeighborFn& nfn = nbr ? nbr : NeighborFn(default_neighbor);
  const int ndirs = static_cast<int>(adj);
  int rounds = 0;
  for (;;) {
    ++rounds;
    const std::vector<Octant> reqs = route_requirements(comm, tree, ndirs, nfn);

    // Group requirements by the local leaf containing their anchor; leaves
    // already at the required depth need no action.
    bool changed = false;
    const std::vector<Octant>& leaves = tree.leaves();
    std::vector<std::vector<Octant>> todo(leaves.size());
    for (const Octant& q : reqs) {
      const std::int64_t i = tree.lower_bound(key_of(q));
      // Leaf containing q's anchor: the one at or before position i.
      std::int64_t idx = i;
      if (idx == static_cast<std::int64_t>(leaves.size()) ||
          !(key_of(leaves[static_cast<std::size_t>(idx)]) == key_of(q)))
        idx = i - 1;
      if (idx < 0) continue;  // region not owned here (boundary effects)
      const Octant& l = leaves[static_cast<std::size_t>(idx)];
      if (l.is_ancestor_of(q)) {
        todo[static_cast<std::size_t>(idx)].push_back(q);
        changed = true;
      }
    }
    if (!comm.allreduce_or(changed)) break;
    if (changed) {
      std::vector<Octant> out;
      out.reserve(leaves.size() + 8 * reqs.size());
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (todo[i].empty())
          out.push_back(leaves[i]);
        else
          expand_leaf(leaves[i], todo[i], out);
      }
      tree.mutable_leaves() = std::move(out);
    }
    // Range begins are preserved by splitting (anchor of first leaf fixed),
    // so no update_ranges is needed between rounds.
  }
  return rounds;
}

bool is_balanced(par::Comm& comm, const LinearOctree& tree, Adjacency adj,
                 const NeighborFn& nbr) {
  const NeighborFn& nfn = nbr ? nbr : NeighborFn(default_neighbor);
  const std::vector<Octant> reqs =
      route_requirements(comm, tree, static_cast<int>(adj), nfn);
  bool ok = true;
  for (const Octant& q : reqs) {
    // Find the leaf containing q's anchor; a strict ancestor of q there
    // means some neighbor is more than one level coarser -> violation.
    const std::int64_t i = tree.lower_bound(key_of(q));
    std::int64_t j = i;
    if (j == tree.num_local() ||
        !(key_of(tree.leaves()[static_cast<std::size_t>(j)]) == key_of(q)))
      j = i - 1;
    if (j < 0) continue;
    const Octant& l = tree.leaves()[static_cast<std::size_t>(j)];
    if (l.is_ancestor_of(q)) ok = false;
  }
  return comm.allreduce_sum<int>(ok ? 0 : 1) == 0;
}

}  // namespace alps::octree
