// EXTRACTMESH implementations (paper Sec. IV.B).
//
// Two entry points share one contract and must produce bit-identical
// meshes (gids, constraint weights, halo plans):
//
//  * extract_mesh_reference — the original per-corner algorithm, kept as
//    the parity oracle: per element corner it runs the glued-face BFS
//    (node_reps), scans directions linearly, binary-searches the combined
//    leaf array per candidate neighbor, and re-derives every shared node
//    up to 8 times.
//  * extract_mesh — the production path: an open-addressing table maps
//    every node representation to its class once, hanging status and
//    masters are resolved once per node (they are node properties under
//    face+edge 2:1 balance, see mesh.hpp), and the combined array is
//    searched with precomputed SFC keys.
//
// Master lists are stored sorted by canonical node key in both paths.
// The per-corner enumeration order of the original algorithm depended on
// which coarse neighbor (and hence which tree frame) detected the
// constraint; sorting makes the constraint row a pure node property, so
// two elements sharing a hanging node record identical rows.

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>

#include "mesh/mesh.hpp"
#include "obs/obs.hpp"
#include "octree/sort.hpp"

namespace alps::mesh {

namespace {

using octree::kMaxLevel;
using octree::kNeighborDirs;
using octree::kNumAllDirs;
using octree::morton_encode;
using octree::octant_len;
using octree::SfcKey;

constexpr coord_t kN = coord_t{1} << kMaxLevel;

/// All representations of a node across inter-tree boundaries (BFS over
/// glued faces), plus the physical-boundary face mask over all reps.
void node_reps(const Connectivity& conn, const NodeKey& node,
               std::vector<NodeKey>& reps, std::uint8_t& boundary_mask) {
  reps.clear();
  boundary_mask = 0;
  reps.push_back(node);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const NodeKey r = reps[i];
    const std::array<coord_t, 3> c = {r.x, r.y, r.z};
    for (int f = 0; f < 6; ++f) {
      const int axis = f / 2;
      const bool upper = (f % 2) != 0;
      const coord_t want = upper ? kN : 0;
      if (c[static_cast<std::size_t>(axis)] != want) continue;
      if (conn.face(r.tree, f).nbr_tree < 0) {
        boundary_mask |= static_cast<std::uint8_t>(1u << f);
        continue;
      }
      std::array<std::int64_t, 3> c2 = {2 * static_cast<std::int64_t>(r.x),
                                        2 * static_cast<std::int64_t>(r.y),
                                        2 * static_cast<std::int64_t>(r.z)};
      if (!conn.transform_center(r.tree, f, c2)) continue;
      NodeKey nr{conn.face(r.tree, f).nbr_tree,
                 static_cast<coord_t>(c2[0] / 2),
                 static_cast<coord_t>(c2[1] / 2),
                 static_cast<coord_t>(c2[2] / 2)};
      if (std::find(reps.begin(), reps.end(), nr) == reps.end())
        reps.push_back(nr);
    }
  }
}

/// Index of the leaf in `sorted` equal to or an ancestor of `o`, else -1.
std::int64_t find_in(const std::vector<Octant>& sorted, const Octant& o) {
  const SfcKey k = octree::key_of(o);
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), k,
      [](const SfcKey& key, const Octant& l) { return key < octree::key_of(l); });
  if (it == sorted.begin()) return -1;
  --it;
  if (it->tree == o.tree && (*it == o || it->is_ancestor_of(o)))
    return it - sorted.begin();
  return -1;
}

/// find_in against a precomputed key array (one morton_encode per query
/// instead of one per probe) — the hashed path's variant.
std::int64_t find_in_keys(const std::vector<SfcKey>& keys,
                          const std::vector<Octant>& sorted, const Octant& o) {
  const SfcKey k = octree::key_of(o);
  const auto it = std::upper_bound(keys.begin(), keys.end(), k);
  if (it == keys.begin()) return -1;
  const std::int64_t i = (it - keys.begin()) - 1;
  const Octant& l = sorted[static_cast<std::size_t>(i)];
  if (l.tree == o.tree && (l == o || l.is_ancestor_of(o))) return i;
  return -1;
}

/// Direction index (0..25) for an offset vector with components in
/// {-1,0,1}; -1 for the zero vector. Linear scan, reference path only.
int dir_index(int dx, int dy, int dz) {
  for (int d = 0; d < kNumAllDirs; ++d)
    if (kNeighborDirs[static_cast<std::size_t>(d)][0] == dx &&
        kNeighborDirs[static_cast<std::size_t>(d)][1] == dy &&
        kNeighborDirs[static_cast<std::size_t>(d)][2] == dz)
      return d;
  return -1;
}

/// Constant-time inverse of kNeighborDirs for the hashed path.
struct DirTable {
  std::int8_t d[3][3][3];
  DirTable() {
    for (auto& plane : d)
      for (auto& row : plane)
        for (auto& v : row) v = -1;
    for (int i = 0; i < kNumAllDirs; ++i) {
      const auto& n = kNeighborDirs[static_cast<std::size_t>(i)];
      d[n[0] + 1][n[1] + 1][n[2] + 1] = static_cast<std::int8_t>(i);
    }
  }
};

int dir_lookup(int dx, int dy, int dz) {
  static const DirTable t;
  return t.d[dx + 1][dy + 1][dz + 1];
}

struct Master {
  NodeKey key;
  double w;
};

/// Constraint masters of node `v_rep` (expressed in q's tree frame) inside
/// coarse element q: corners of q with nonzero trilinear weight. A single
/// master with weight 1 means v coincides with a corner of q (independent).
void masters_in(const Connectivity& conn, const Octant& q, const NodeKey& v_rep,
                std::vector<Master>& out) {
  out.clear();
  const coord_t h = octant_len(q.level);
  const std::array<coord_t, 3> t = {v_rep.x - q.x, v_rep.y - q.y,
                                    v_rep.z - q.z};
  for (int d = 0; d < 3; ++d)
    assert(t[static_cast<std::size_t>(d)] <= h);
  for (int k = 0; k < 8; ++k) {
    double w = 1.0;
    for (int d = 0; d < 3; ++d) {
      const double xi =
          static_cast<double>(t[static_cast<std::size_t>(d)]) / h;
      w *= (k >> d & 1) ? xi : 1.0 - xi;
    }
    if (w <= 0.0) continue;
    NodeKey corner{q.tree, q.x + ((k & 1) ? h : 0), q.y + ((k & 2) ? h : 0),
                   q.z + ((k & 4) ? h : 0)};
    std::vector<NodeKey> reps;
    std::uint8_t mask = 0;
    node_reps(conn, corner, reps, mask);
    out.push_back(Master{*std::min_element(reps.begin(), reps.end()), w});
  }
}

/// Owning rank of a canonical node: the rank owning the region just below
/// it along the space-filling curve (coords clamped at the tree origin).
int node_owner(const LinearOctree& tree, const NodeKey& v) {
  const coord_t px = v.x > 0 ? v.x - 1 : 0;
  const coord_t py = v.y > 0 ? v.y - 1 : 0;
  const coord_t pz = v.z > 0 ? v.z - 1 : 0;
  return tree.owner_of(SfcKey{v.tree, morton_encode(px, py, pz)});
}

struct WireNodeKey {
  std::int32_t tree;
  coord_t x, y, z;
};

}  // namespace

std::pair<NodeKey, std::uint8_t> canonical_node(const Connectivity& conn,
                                                const NodeKey& node) {
  std::vector<NodeKey> reps;
  std::uint8_t mask = 0;
  node_reps(conn, node, reps, mask);
  return {*std::min_element(reps.begin(), reps.end()), mask};
}

// ======================================================================
// Reference path (parity oracle)
// ======================================================================

Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest,
                            std::vector<Octant> ghosts) {
  OBS_SPAN("mesh.extract.reference");
  const Connectivity& conn = forest.connectivity();
  const LinearOctree& tree = forest.tree();
  const int p = comm.size();

  Mesh m;
  m.elements = tree.leaves();

  // Local + ghost leaves, sorted, for neighbor-level queries.
  std::vector<Octant> combined = std::move(ghosts);
  combined.insert(combined.end(), tree.leaves().begin(), tree.leaves().end());
  std::sort(combined.begin(), combined.end(), octree::sfc_less);

  // ---- pass 1: per element corner, find the canonical masters ----------
  // masters_per_corner[e][c]: 1 entry (independent) or 2/4 (hanging).
  const std::size_t ne = m.elements.size();
  std::vector<std::array<std::vector<Master>, 8>> elem_masters(ne);
  std::vector<std::array<bool, 8>> elem_hanging(ne);

  std::vector<NodeKey> reps;
  std::vector<Master> masters;
  for (std::size_t e = 0; e < ne; ++e) {
    const Octant& o = m.elements[e];
    const coord_t h = octant_len(o.level);
    for (int c = 0; c < 8; ++c) {
      const NodeKey v{o.tree, o.x + ((c & 1) ? h : 0), o.y + ((c & 2) ? h : 0),
                      o.z + ((c & 4) ? h : 0)};
      std::uint8_t mask = 0;
      node_reps(conn, v, reps, mask);
      const std::vector<NodeKey> v_reps = reps;

      // Search the (up to 7) neighbor octants sharing this corner for a
      // coarser leaf; with face+edge 2:1 balance a hanging constraint is
      // single-level and its masters are independent (see header).
      bool hanging = false;
      const int sx = (c & 1) ? 1 : -1, sy = (c & 2) ? 1 : -1,
                sz = (c & 4) ? 1 : -1;
      for (int msk = 1; msk < 8 && !hanging; ++msk) {
        const int d =
            dir_index((msk & 1) ? sx : 0, (msk & 2) ? sy : 0, (msk & 4) ? sz : 0);
        Octant n;
        if (!conn.neighbor_across(o, d, n)) continue;
        const std::int64_t qi = find_in(combined, n);
        if (qi < 0) continue;
        const Octant& q = combined[static_cast<std::size_t>(qi)];
        if (q.level != o.level - 1) continue;
        // Express v in q's tree frame.
        const NodeKey* vq = nullptr;
        for (const NodeKey& r : v_reps)
          if (r.tree == q.tree) {
            vq = &r;
            break;
          }
        if (vq == nullptr) continue;
        masters_in(conn, q, *vq, masters);
        if (masters.size() >= 2) {
          std::stable_sort(
              masters.begin(), masters.end(),
              [](const Master& a, const Master& b) { return a.key < b.key; });
          elem_masters[e][static_cast<std::size_t>(c)] = masters;
          hanging = true;
        }
      }
      if (!hanging) {
        elem_masters[e][static_cast<std::size_t>(c)] = {
            Master{*std::min_element(v_reps.begin(), v_reps.end()), 1.0}};
      }
      elem_hanging[e][static_cast<std::size_t>(c)] = hanging;
    }
  }

  // ---- pass 2: needed dofs, ownership, numbering ------------------------
  std::vector<NodeKey> needed;
  for (const auto& em : elem_masters)
    for (const auto& ms : em)
      for (const Master& mm : ms) needed.push_back(mm.key);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  std::vector<NodeKey> owned_keys;
  std::vector<std::vector<WireNodeKey>> requests(static_cast<std::size_t>(p));
  for (const NodeKey& k : needed) {
    const int owner = node_owner(tree, k);
    if (owner == comm.rank())
      owned_keys.push_back(k);
    else
      requests[static_cast<std::size_t>(owner)].push_back(
          WireNodeKey{k.tree, k.x, k.y, k.z});
  }
  m.n_owned = static_cast<std::int64_t>(owned_keys.size());
  m.gid_offset = comm.exscan_sum(m.n_owned);
  m.n_global = comm.allreduce_sum(m.n_owned);

  // Resolve remote gids: owners answer lookups in request order.
  std::vector<std::vector<WireNodeKey>> incoming = comm.alltoallv(requests);
  std::vector<std::vector<std::int64_t>> replies(static_cast<std::size_t>(p));
  m.halo.send_idx.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    for (const WireNodeKey& wk : incoming[static_cast<std::size_t>(r)]) {
      const NodeKey k{wk.tree, wk.x, wk.y, wk.z};
      auto it = std::lower_bound(owned_keys.begin(), owned_keys.end(), k);
      if (it == owned_keys.end() || *it != k)
        throw std::runtime_error(
            "extract_mesh: rank asked me for a node I do not own");
      const std::int32_t idx =
          static_cast<std::int32_t>(it - owned_keys.begin());
      replies[static_cast<std::size_t>(r)].push_back(m.gid_offset + idx);
      m.halo.send_idx[static_cast<std::size_t>(r)].push_back(idx);
    }
  }
  std::vector<std::vector<std::int64_t>> resolved = comm.alltoallv(replies);

  // ---- pass 3: local dof table (owned, then ghosts by key) --------------
  m.dof_keys = owned_keys;
  m.dof_gids.resize(owned_keys.size());
  for (std::size_t i = 0; i < owned_keys.size(); ++i)
    m.dof_gids[i] = m.gid_offset + static_cast<std::int64_t>(i);
  m.halo.recv_idx.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    const auto& req = requests[static_cast<std::size_t>(r)];
    const auto& ans = resolved[static_cast<std::size_t>(r)];
    if (req.size() != ans.size())
      throw std::runtime_error("extract_mesh: reply size mismatch");
    for (std::size_t i = 0; i < req.size(); ++i) {
      m.halo.recv_idx[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int32_t>(m.dof_keys.size()));
      m.dof_keys.push_back(
          NodeKey{req[i].tree, req[i].x, req[i].y, req[i].z});
      m.dof_gids.push_back(ans[i]);
    }
  }
  m.n_local = static_cast<std::int64_t>(m.dof_keys.size());

  // Key -> local index lookup.
  std::vector<std::pair<NodeKey, std::int32_t>> lookup;
  lookup.reserve(m.dof_keys.size());
  for (std::size_t i = 0; i < m.dof_keys.size(); ++i)
    lookup.emplace_back(m.dof_keys[i], static_cast<std::int32_t>(i));
  std::sort(lookup.begin(), lookup.end());
  const auto local_index = [&lookup](const NodeKey& k) {
    auto it = std::lower_bound(
        lookup.begin(), lookup.end(), k,
        [](const std::pair<NodeKey, std::int32_t>& a, const NodeKey& b) {
          return a.first < b;
        });
    if (it == lookup.end() || it->first != k)
      throw std::logic_error("extract_mesh: dof key not in local table");
    return it->second;
  };

  // ---- pass 4: element corner constraints -------------------------------
  m.corners.resize(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    for (int c = 0; c < 8; ++c) {
      const auto& ms = elem_masters[e][static_cast<std::size_t>(c)];
      Corner& cc = m.corners[e][static_cast<std::size_t>(c)];
      cc.hanging = elem_hanging[e][static_cast<std::size_t>(c)] ? 1 : 0;
      cc.n = static_cast<std::int8_t>(ms.size());
      for (std::size_t i = 0; i < ms.size(); ++i) {
        cc.dof[i] = local_index(ms[i].key);
        cc.w[i] = ms[i].w;
      }
    }
  }

  // ---- pass 5: coordinates and boundary flags ----------------------------
  m.dof_coords.resize(m.dof_keys.size());
  m.dof_boundary.resize(m.dof_keys.size());
  for (std::size_t i = 0; i < m.dof_keys.size(); ++i) {
    const NodeKey& k = m.dof_keys[i];
    m.dof_coords[i] = conn.map_point(k.tree, k.x, k.y, k.z);
    std::uint8_t mask = 0;
    node_reps(conn, k, reps, mask);
    m.dof_boundary[i] = mask;
  }
  return m;
}

Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest) {
  return extract_mesh_reference(
      comm, forest, ghost_layer(comm, forest.tree(), forest.connectivity()));
}

// ======================================================================
// Hashed path
// ======================================================================

namespace {

/// One node class: canonical key, boundary mask, the glued-face
/// representations (for frame changes during master derivation), the
/// resolved hanging constraint, and the local dof index once numbered.
struct NodeEntry {
  NodeKey canon;
  std::int32_t reps_off = 0;
  std::int32_t masters_off = 0;
  std::int32_t dof = -1;
  std::int16_t reps_n = 0;
  std::uint8_t mask = 0;
  std::int8_t hanging = -1;  // -1 unresolved, 0 independent, 1 hanging
  std::int8_t n_masters = 0;
  bool referenced = false;   // appears in some element's constraint row
};

struct MasterRef {
  std::int32_t node;
  double w;
};

/// Open-addressing map from any node representation to its class id.
/// Keys pack into 128 bits: (tree << 21 | x, y << 21 | z) — coordinates
/// are at most 2^19, so 21 bits per component keeps the packing exact and
/// lexicographic. An all-ones first word marks an empty slot (no real
/// tree reaches it). Linear probing, growth at ~0.7 load.
class NodeCache {
 public:
  explicit NodeCache(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{kEmpty, 0, -1});
    mask_ = cap - 1;
    entries.reserve(expected);
    rep_pool.reserve(expected + expected / 4);
  }

  std::vector<NodeEntry> entries;
  std::vector<MasterRef> master_pool;
  std::vector<NodeKey> rep_pool;

  /// Class id of `raw` (any representation). First contact runs the
  /// glued-face BFS once and indexes every representation, so subsequent
  /// lookups from any frame are a single probe sequence.
  std::int32_t canon_id(const Connectivity& conn, const NodeKey& raw) {
    if (const std::int32_t hit = find(raw); hit >= 0) return hit;
    std::uint8_t mask = 0;
    node_reps(conn, raw, reps_tmp_, mask);
    const NodeKey canon =
        *std::min_element(reps_tmp_.begin(), reps_tmp_.end());
    std::int32_t id = find(canon);
    if (id < 0) {
      id = static_cast<std::int32_t>(entries.size());
      NodeEntry e;
      e.canon = canon;
      e.mask = mask;
      e.reps_off = static_cast<std::int32_t>(rep_pool.size());
      e.reps_n = static_cast<std::int16_t>(reps_tmp_.size());
      rep_pool.insert(rep_pool.end(), reps_tmp_.begin(), reps_tmp_.end());
      entries.push_back(e);
    }
    for (const NodeKey& r : reps_tmp_) put_if_absent(r, id);
    return id;
  }

  std::span<const NodeKey> reps(std::int32_t id) const {
    const NodeEntry& e = entries[static_cast<std::size_t>(id)];
    return {rep_pool.data() + e.reps_off, static_cast<std::size_t>(e.reps_n)};
  }

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(slots_.capacity()) * sizeof(Slot) +
           obs::vec_bytes(entries) + obs::vec_bytes(master_pool) +
           obs::vec_bytes(rep_pool);
  }

 private:
  struct Slot {
    std::uint64_t hi, lo;
    std::int32_t id;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static void pack(const NodeKey& k, std::uint64_t& hi, std::uint64_t& lo) {
    hi = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tree))
          << 21) |
         k.x;
    lo = (static_cast<std::uint64_t>(k.y) << 21) | k.z;
  }

  static std::uint64_t hash(std::uint64_t hi, std::uint64_t lo) {
    std::uint64_t x = hi * 0x9e3779b97f4a7c15ULL ^ lo;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::int32_t find(const NodeKey& k) const {
    std::uint64_t hi, lo;
    pack(k, hi, lo);
    std::size_t i = static_cast<std::size_t>(hash(hi, lo)) & mask_;
    while (slots_[i].hi != kEmpty) {
      if (slots_[i].hi == hi && slots_[i].lo == lo) return slots_[i].id;
      i = (i + 1) & mask_;
    }
    return -1;
  }

  void put_if_absent(const NodeKey& k, std::int32_t id) {
    if ((size_ + 1) * 10 > (mask_ + 1) * 7) grow();
    std::uint64_t hi, lo;
    pack(k, hi, lo);
    std::size_t i = static_cast<std::size_t>(hash(hi, lo)) & mask_;
    while (slots_[i].hi != kEmpty) {
      if (slots_[i].hi == hi && slots_[i].lo == lo) return;
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{hi, lo, id};
    ++size_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = (mask_ + 1) * 2;
    slots_.assign(cap, Slot{kEmpty, 0, -1});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.hi == kEmpty) continue;
      std::size_t i = static_cast<std::size_t>(hash(s.hi, s.lo)) & mask_;
      while (slots_[i].hi != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::vector<NodeKey> reps_tmp_;
};

/// Per-corner resolved constraint, as node-class ids (turned into local
/// dof indices once numbering is done).
struct CornerCM {
  std::int8_t hanging = 0;
  std::int8_t n = 0;
  std::array<std::int32_t, 4> node{};
  std::array<double, 4> w{};
};

/// Resolve the hanging status and masters of node class `id`, probing
/// from element `o`, corner `c`. The answer is a node property: every
/// element sharing the node reaches the same sorted master set, so the
/// first prober stores it for all.
void resolve_node(NodeCache& cache, const Connectivity& conn,
                  const std::vector<Octant>& combined,
                  const std::vector<SfcKey>& combined_keys, const Octant& o,
                  int c, std::int32_t id, std::vector<MasterRef>& tmp) {
  const int sx = (c & 1) ? 1 : -1, sy = (c & 2) ? 1 : -1,
            sz = (c & 4) ? 1 : -1;
  for (int msk = 1; msk < 8; ++msk) {
    const int d = dir_lookup((msk & 1) ? sx : 0, (msk & 2) ? sy : 0,
                             (msk & 4) ? sz : 0);
    Octant n;
    if (!conn.neighbor_across(o, d, n)) continue;
    const std::int64_t qi = find_in_keys(combined_keys, combined, n);
    if (qi < 0) continue;
    const Octant& q = combined[static_cast<std::size_t>(qi)];
    if (q.level != o.level - 1) continue;
    // Express the node in q's tree frame (copy: canon_id below may grow
    // the representation pool).
    NodeKey v{};
    bool have_v = false;
    for (const NodeKey& r : cache.reps(id))
      if (r.tree == q.tree) {
        v = r;
        have_v = true;
        break;
      }
    if (!have_v) continue;
    const coord_t h = octant_len(q.level);
    const std::array<coord_t, 3> t = {v.x - q.x, v.y - q.y, v.z - q.z};
    for (int dd = 0; dd < 3; ++dd)
      assert(t[static_cast<std::size_t>(dd)] <= h);
    tmp.clear();
    for (int k = 0; k < 8; ++k) {
      double w = 1.0;
      for (int dd = 0; dd < 3; ++dd) {
        const double xi =
            static_cast<double>(t[static_cast<std::size_t>(dd)]) / h;
        w *= (k >> dd & 1) ? xi : 1.0 - xi;
      }
      if (w <= 0.0) continue;
      const NodeKey corner{q.tree, q.x + ((k & 1) ? h : 0),
                           q.y + ((k & 2) ? h : 0), q.z + ((k & 4) ? h : 0)};
      tmp.push_back(MasterRef{cache.canon_id(conn, corner), w});
    }
    if (tmp.size() >= 2) {
      std::stable_sort(tmp.begin(), tmp.end(),
                       [&cache](const MasterRef& a, const MasterRef& b) {
                         return cache.entries[static_cast<std::size_t>(a.node)]
                                    .canon <
                                cache.entries[static_cast<std::size_t>(b.node)]
                                    .canon;
                       });
      NodeEntry& e = cache.entries[static_cast<std::size_t>(id)];
      e.hanging = 1;
      e.n_masters = static_cast<std::int8_t>(tmp.size());
      e.masters_off = static_cast<std::int32_t>(cache.master_pool.size());
      cache.master_pool.insert(cache.master_pool.end(), tmp.begin(),
                               tmp.end());
      return;
    }
  }
  cache.entries[static_cast<std::size_t>(id)].hanging = 0;
}

}  // namespace

Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest,
                  std::vector<Octant> ghosts) {
  OBS_SPAN("mesh.extract");
  const Connectivity& conn = forest.connectivity();
  const LinearOctree& tree = forest.tree();
  const int p = comm.size();

  Mesh m;
  m.elements = tree.leaves();
  const std::size_t ne = m.elements.size();

  std::vector<Octant> combined = std::move(ghosts);
  combined.insert(combined.end(), tree.leaves().begin(), tree.leaves().end());
  octree::radix_sort_sfc(combined);
  std::vector<SfcKey> combined_keys(combined.size());
  for (std::size_t i = 0; i < combined.size(); ++i)
    combined_keys[i] = octree::key_of(combined[i]);

  NodeCache cache(ne + ne / 2 + 64);
  static const obs::MemScopeId kHashScope =
      obs::mem_scope("mesh.extract.node_hash");
  obs::MemScope hash_scope(kHashScope, 0);

  std::vector<std::array<CornerCM, 8>> cm(ne);
  std::vector<std::array<std::int32_t, 8>> node_id(ne);

  // ---- canon: corner -> node class --------------------------------------
  {
    OBS_PHASE_SPAN("amr.extract.canon");
    for (std::size_t e = 0; e < ne; ++e) {
      const Octant& o = m.elements[e];
      const coord_t h = octant_len(o.level);
      for (int c = 0; c < 8; ++c)
        node_id[e][static_cast<std::size_t>(c)] = cache.canon_id(
            conn, NodeKey{o.tree, o.x + ((c & 1) ? h : 0),
                          o.y + ((c & 2) ? h : 0), o.z + ((c & 4) ? h : 0)});
    }
    hash_scope.resize(cache.bytes());
  }

  // ---- masters: resolve each node class once ----------------------------
  {
    OBS_PHASE_SPAN("amr.extract.masters");
    std::vector<MasterRef> tmp;
    for (std::size_t e = 0; e < ne; ++e) {
      const Octant& o = m.elements[e];
      for (int c = 0; c < 8; ++c) {
        const std::int32_t id = node_id[e][static_cast<std::size_t>(c)];
        if (cache.entries[static_cast<std::size_t>(id)].hanging < 0)
          resolve_node(cache, conn, combined, combined_keys, o, c, id, tmp);
        const NodeEntry& en = cache.entries[static_cast<std::size_t>(id)];
        CornerCM& out = cm[e][static_cast<std::size_t>(c)];
        if (en.hanging == 1) {
          out.hanging = 1;
          out.n = en.n_masters;
          for (int i = 0; i < en.n_masters; ++i) {
            const MasterRef& mr =
                cache.master_pool[static_cast<std::size_t>(en.masters_off + i)];
            out.node[static_cast<std::size_t>(i)] = mr.node;
            out.w[static_cast<std::size_t>(i)] = mr.w;
          }
        } else {
          out.hanging = 0;
          out.n = 1;
          out.node[0] = id;
          out.w[0] = 1.0;
        }
      }
    }
    hash_scope.resize(cache.bytes());
  }

  // ---- number: ownership, gid handshake, dof table ----------------------
  std::vector<std::int32_t> dof_entry;  // node class per local dof slot
  {
    OBS_PHASE_SPAN("amr.extract.number");
    for (const auto& ec : cm)
      for (const CornerCM& cc : ec)
        for (int i = 0; i < cc.n; ++i)
          cache.entries[static_cast<std::size_t>(
                            cc.node[static_cast<std::size_t>(i)])]
              .referenced = true;

    std::vector<std::pair<NodeKey, std::int32_t>> needed;
    needed.reserve(cache.entries.size());
    for (std::size_t id = 0; id < cache.entries.size(); ++id)
      if (cache.entries[id].referenced)
        needed.emplace_back(cache.entries[id].canon,
                            static_cast<std::int32_t>(id));
    std::sort(needed.begin(), needed.end());

    std::vector<std::int32_t> owned_ids;
    std::vector<std::vector<WireNodeKey>> requests(static_cast<std::size_t>(p));
    std::vector<std::vector<std::int32_t>> request_ids(
        static_cast<std::size_t>(p));
    for (const auto& [k, id] : needed) {
      const int owner = node_owner(tree, k);
      if (owner == comm.rank()) {
        owned_ids.push_back(id);
      } else {
        requests[static_cast<std::size_t>(owner)].push_back(
            WireNodeKey{k.tree, k.x, k.y, k.z});
        request_ids[static_cast<std::size_t>(owner)].push_back(id);
      }
    }
    m.n_owned = static_cast<std::int64_t>(owned_ids.size());
    m.gid_offset = comm.exscan_sum(m.n_owned);
    m.n_global = comm.allreduce_sum(m.n_owned);

    std::vector<NodeKey> owned_keys(owned_ids.size());
    for (std::size_t i = 0; i < owned_ids.size(); ++i)
      owned_keys[i] =
          cache.entries[static_cast<std::size_t>(owned_ids[i])].canon;

    std::vector<std::vector<WireNodeKey>> incoming = comm.alltoallv(requests);
    std::vector<std::vector<std::int64_t>> replies(static_cast<std::size_t>(p));
    m.halo.send_idx.assign(static_cast<std::size_t>(p), {});
    for (int r = 0; r < p; ++r) {
      for (const WireNodeKey& wk : incoming[static_cast<std::size_t>(r)]) {
        const NodeKey k{wk.tree, wk.x, wk.y, wk.z};
        auto it = std::lower_bound(owned_keys.begin(), owned_keys.end(), k);
        if (it == owned_keys.end() || *it != k)
          throw std::runtime_error(
              "extract_mesh: rank asked me for a node I do not own");
        const std::int32_t idx =
            static_cast<std::int32_t>(it - owned_keys.begin());
        replies[static_cast<std::size_t>(r)].push_back(m.gid_offset + idx);
        m.halo.send_idx[static_cast<std::size_t>(r)].push_back(idx);
      }
    }
    std::vector<std::vector<std::int64_t>> resolved = comm.alltoallv(replies);

    m.dof_keys = owned_keys;
    m.dof_gids.resize(owned_keys.size());
    dof_entry = owned_ids;
    for (std::size_t i = 0; i < owned_ids.size(); ++i) {
      m.dof_gids[i] = m.gid_offset + static_cast<std::int64_t>(i);
      cache.entries[static_cast<std::size_t>(owned_ids[i])].dof =
          static_cast<std::int32_t>(i);
    }
    m.halo.recv_idx.assign(static_cast<std::size_t>(p), {});
    for (int r = 0; r < p; ++r) {
      const auto& req = requests[static_cast<std::size_t>(r)];
      const auto& ans = resolved[static_cast<std::size_t>(r)];
      if (req.size() != ans.size())
        throw std::runtime_error("extract_mesh: reply size mismatch");
      for (std::size_t i = 0; i < req.size(); ++i) {
        const std::int32_t li = static_cast<std::int32_t>(m.dof_keys.size());
        m.halo.recv_idx[static_cast<std::size_t>(r)].push_back(li);
        m.dof_keys.push_back(
            NodeKey{req[i].tree, req[i].x, req[i].y, req[i].z});
        m.dof_gids.push_back(ans[i]);
        const std::int32_t id = request_ids[static_cast<std::size_t>(r)][i];
        cache.entries[static_cast<std::size_t>(id)].dof = li;
        dof_entry.push_back(id);
      }
    }
    m.n_local = static_cast<std::int64_t>(m.dof_keys.size());
  }

  // ---- lookup: constraint rows, coordinates, boundary flags -------------
  {
    OBS_PHASE_SPAN("amr.extract.lookup");
    m.corners.resize(ne);
    for (std::size_t e = 0; e < ne; ++e) {
      for (int c = 0; c < 8; ++c) {
        const CornerCM& in = cm[e][static_cast<std::size_t>(c)];
        Corner& cc = m.corners[e][static_cast<std::size_t>(c)];
        cc.hanging = in.hanging;
        cc.n = in.n;
        for (int i = 0; i < in.n; ++i) {
          cc.dof[static_cast<std::size_t>(i)] =
              cache.entries[static_cast<std::size_t>(
                                in.node[static_cast<std::size_t>(i)])]
                  .dof;
          cc.w[static_cast<std::size_t>(i)] = in.w[static_cast<std::size_t>(i)];
        }
      }
    }
    m.dof_coords.resize(m.dof_keys.size());
    m.dof_boundary.resize(m.dof_keys.size());
    for (std::size_t i = 0; i < m.dof_keys.size(); ++i) {
      const NodeKey& k = m.dof_keys[i];
      m.dof_coords[i] = conn.map_point(k.tree, k.x, k.y, k.z);
      m.dof_boundary[i] =
          cache.entries[static_cast<std::size_t>(dof_entry[i])].mask;
    }
  }

  return m;
}

Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest) {
  return extract_mesh(comm, forest,
                      ghost_layer(comm, forest.tree(), forest.connectivity()));
}

}  // namespace alps::mesh
