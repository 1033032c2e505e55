#pragma once
// EXTRACTMESH (paper Sec. IV.B): build a distributed trilinear hexahedral
// finite-element mesh from a balanced forest. Establishes the unique
// global numbering of independent degrees of freedom, detects hanging
// nodes on nonconforming faces and edges, expresses them as algebraic
// constraints on the independent dofs (enforced at the element level, as
// in the paper), gathers ghost information, and sets up the communication
// pattern used by the solvers.
//
// Requires the tree to be 2:1 balanced across faces and edges
// (Adjacency::kFaceEdge), which guarantees single-level constraints.

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "mesh/ghost.hpp"
#include "obs/mem.hpp"
#include "par/halo.hpp"

namespace alps::mesh {

using octree::coord_t;
using octree::Octant;

/// Canonical node identifier: tree + integer corner coordinates in
/// [0, 2^kMaxLevel]. Nodes on inter-tree boundaries are canonicalized to
/// their lexicographically smallest representation.
struct NodeKey {
  std::int32_t tree = 0;
  coord_t x = 0, y = 0, z = 0;

  friend auto operator<=>(const NodeKey&, const NodeKey&) = default;
};

/// One element corner: either a single independent dof (n == 1, w == 1)
/// or a hanging node constrained by up to 4 independent dofs (the corners
/// of the coarse neighbor's face or edge it sits on).
struct Corner {
  std::int8_t hanging = 0;
  std::int8_t n = 0;
  std::array<std::int32_t, 4> dof{};  // local dof indices
  std::array<double, 4> w{};
};

/// One row of the constraint gather `C x`: the value of component `c` of
/// a field with `stride` doubles per local dof at corner `cc`, summed over
/// its masters in order. Ghost entries of `x` must be current. The scalar
/// element loops all gather through this, so they round alike.
inline double gather(const Corner& cc, std::span<const double> x,
                     std::size_t stride = 1, std::size_t c = 0) {
  double v = 0.0;
  for (int k = 0; k < cc.n; ++k)
    v += cc.w[static_cast<std::size_t>(k)] *
         x[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) *
               stride + c];
  return v;
}

/// The transpose `Cᵀ`: add w_k * v into component `c` of each master's
/// entry of `y`. Ghost entries need Mesh::accumulate afterwards.
inline void scatter_add(const Corner& cc, double v, std::span<double> y,
                        std::size_t stride = 1, std::size_t c = 0) {
  for (int k = 0; k < cc.n; ++k)
    y[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * stride +
      c] += cc.w[static_cast<std::size_t>(k)] * v;
}

class Mesh {
 public:
  // ---- elements ---------------------------------------------------------
  std::vector<Octant> elements;                 // this rank's leaves
  std::vector<std::array<Corner, 8>> corners;   // per element, z-order

  // ---- degrees of freedom ------------------------------------------------
  std::int64_t n_owned = 0;    // dofs this rank numbers
  std::int64_t n_local = 0;    // owned + ghost dofs addressable locally
  std::int64_t n_global = 0;   // total independent dofs
  std::int64_t gid_offset = 0; // global id of local dof 0
  std::vector<NodeKey> dof_keys;                 // size n_local
  std::vector<std::int64_t> dof_gids;            // size n_local
  std::vector<std::array<double, 3>> dof_coords; // physical positions
  std::vector<std::uint8_t> dof_boundary;        // bitmask of physical faces

  // ---- ghost-dof communication pattern -----------------------------------
  // halo.send_idx[r]: owned dof indices rank r ghosts; halo.recv_idx[r]:
  // ghost dof indices rank r owns. Both sides of every halo operation are
  // the same n_local * ncomp `values` array (node-major).
  par::HaloPlan halo;

  /// Overwrite the ghost entries of `values` (n_local * ncomp doubles,
  /// node-major) with the owners' values. Collective.
  void exchange(par::Comm& comm, std::span<double> values,
                int ncomp = 1) const {
    halo.forward<double>(comm, values, values, ncomp);
  }

  /// Add this rank's ghost-slot contributions into the owners' entries and
  /// zero the ghost slots; after the call owners hold the global sums and
  /// a subsequent exchange() makes all copies consistent. Collective.
  void accumulate(par::Comm& comm, std::span<double> values,
                  int ncomp = 1) const {
    halo.reverse<double>(comm, values, values, ncomp);
  }

  // ---- split-phase halo operations ---------------------------------------
  // accumulate() and exchange() are start + finish back to back. The split
  // halves let callers hide the neighbor messages behind local work: the
  // element operator computes its boundary elements, posts the ghost
  // accumulate with accumulate_start, streams the interior elements while
  // the messages are in flight, then completes with accumulate_finish.
  // par::HaloPlan documents the buffering and the misuse checks (one
  // operation in flight per mesh; std::logic_error otherwise).
  void accumulate_start(par::Comm& comm, std::span<double> values,
                        int ncomp = 1) const {
    halo.reverse_begin<double>(comm, values, ncomp);
  }
  void accumulate_finish(par::Comm& comm, std::span<double> values,
                         int ncomp = 1) const {
    halo.reverse_finish<double>(comm, values, ncomp);
  }
  void exchange_start(par::Comm& comm, std::span<double> values,
                      int ncomp = 1) const {
    halo.forward_begin<double>(comm, values, ncomp);
  }
  void exchange_finish(par::Comm& comm, std::span<double> values,
                       int ncomp = 1) const {
    halo.forward_finish<double>(comm, values, ncomp);
  }

  /// Number of local elements.
  std::int64_t num_elements() const {
    return static_cast<std::int64_t>(elements.size());
  }

  /// True if local dof index i is owned by this rank.
  bool is_owned(std::int32_t i) const { return i < n_owned; }

  /// Physical corner positions of element e (z-order), via the geometry.
  std::array<std::array<double, 3>, 8> element_corners_xyz(
      const forest::Connectivity& conn, std::int64_t e) const;

  /// This rank's heap bytes split by what they store (reported into the
  /// "mesh.*" memory scopes; see obs/mem.hpp).
  struct MemoryBytes {
    std::uint64_t topology = 0;  // octants + hanging-node corner tables
    std::uint64_t dofs = 0;      // numbering, coords, boundary masks
    std::uint64_t halo = 0;      // ghost index lists + packing buffers
    std::uint64_t total() const { return topology + dofs + halo; }
  };
  MemoryBytes memory_bytes() const {
    MemoryBytes m;
    m.topology = obs::vec_bytes(elements) + obs::vec_bytes(corners);
    m.dofs = obs::vec_bytes(dof_keys) + obs::vec_bytes(dof_gids) +
             obs::vec_bytes(dof_coords) + obs::vec_bytes(dof_boundary);
    m.halo = halo.memory_bytes();
    return m;
  }
};

/// Build the mesh from a face+edge balanced forest. Collective. The
/// single-argument form computes the ghost layer itself; the two-argument
/// form takes a precomputed ghost_layer() result so one adaptation round
/// computes the layer once and shares it between consumers.
Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest);
Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest,
                  std::vector<Octant> ghosts);

/// The original per-corner extraction, kept verbatim as the parity oracle
/// for extract_mesh (tests/test_extract.cpp compares
/// gids, constraint weights, and halo plans bit for bit). Collective.
Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest);
Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest,
                            std::vector<Octant> ghosts);

/// Canonicalize a node across inter-tree boundaries. Returns the minimal
/// representation and a bitmask of the physical boundary faces it lies on.
std::pair<NodeKey, std::uint8_t> canonical_node(const forest::Connectivity& conn,
                                                const NodeKey& node);

}  // namespace alps::mesh
