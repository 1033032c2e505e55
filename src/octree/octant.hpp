#pragma once
// Octant algebra: the atomic unit of the ALPS octree (paper Sec. IV.A).
//
// An octant is an axis-aligned cube identified by the integer coordinates
// of its lower corner and a refinement level. Coordinates live on a
// 2^kMaxLevel grid per tree; an octant at level l is aligned to
// 2^(kMaxLevel - l). The Morton (z-order) code of the anchor induces the
// space-filling-curve order used for partitioning and ownership.

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <type_traits>

namespace alps::octree {

inline constexpr int kMaxLevel = 19;          // 3*19 = 57 Morton bits
using coord_t = std::uint32_t;
using morton_t = std::uint64_t;

/// Edge length (in integer units) of an octant at `level`.
constexpr coord_t octant_len(int level) {
  return coord_t{1} << (kMaxLevel - level);
}

/// Number of 2^kMaxLevel-grid cells covered by an octant at `level`,
/// i.e. the size of its Morton-code range.
constexpr morton_t octant_span(int level) {
  return morton_t{1} << (3 * (kMaxLevel - level));
}

/// Interleave the low kMaxLevel bits of x,y,z (x lowest) into a Morton code.
morton_t morton_encode(coord_t x, coord_t y, coord_t z);

/// Inverse of morton_encode.
void morton_decode(morton_t m, coord_t& x, coord_t& y, coord_t& z);

struct Octant {
  std::int32_t tree = 0;  // forest tree id; 0 for single-tree use
  coord_t x = 0, y = 0, z = 0;
  std::int8_t level = 0;

  friend bool operator==(const Octant&, const Octant&) = default;

  /// Morton code of the anchor == first max-level descendant's code.
  morton_t morton() const { return morton_encode(x, y, z); }

  /// Last Morton code inside this octant's region (inclusive).
  morton_t morton_last() const { return morton() + octant_span(level) - 1; }

  Octant parent() const;
  /// Child i in z-order: bit0 -> +x, bit1 -> +y, bit2 -> +z.
  Octant child(int i) const;
  /// Which child of its parent this octant is.
  int child_id() const;
  /// Ancestor at the given (coarser or equal) level.
  Octant ancestor(int anc_level) const;
  bool is_ancestor_of(const Octant& o) const;

  /// Whether the octant lies inside the unit tree [0, 2^kMaxLevel)^3.
  bool inside_tree() const;

  std::string to_string() const;
};

/// An octant as it goes into a message (balance requirements, partition
/// transfer, ghost layers, DG handshakes). Octant's int8 `level` leaves
/// three padding bytes whose contents are indeterminate; sending raw
/// Octants would put uninitialized bytes on the wire. Widening `level` to
/// int32 makes the struct padding-free, so every byte sent is set.
struct WireOctant {
  std::int32_t tree = 0;
  coord_t x = 0, y = 0, z = 0;
  std::int32_t level = 0;

  WireOctant() = default;
  explicit WireOctant(const Octant& o)
      : tree(o.tree), x(o.x), y(o.y), z(o.z), level(o.level) {}
  Octant octant() const {
    return Octant{tree, x, y, z, static_cast<std::int8_t>(level)};
  }
};
static_assert(std::has_unique_object_representations_v<WireOctant>,
              "WireOctant must have no padding bytes");

/// Pre-order (ancestors first) space-filling-curve comparison.
/// Leaves of a complete octree never overlap, so among leaves this is the
/// pure Morton order the paper partitions by.
inline std::strong_ordering sfc_compare(const Octant& a, const Octant& b) {
  if (auto c = a.tree <=> b.tree; c != 0) return c;
  if (auto c = a.morton() <=> b.morton(); c != 0) return c;
  return a.level <=> b.level;
}

inline bool sfc_less(const Octant& a, const Octant& b) {
  return sfc_compare(a, b) < 0;
}

/// 26-connectivity neighbor directions. Directions 0..5 are faces
/// (-x,+x,-y,+y,-z,+z), 6..17 edges, 18..25 corners.
inline constexpr int kNumFaceDirs = 6;
inline constexpr int kNumFaceEdgeDirs = 18;
inline constexpr int kNumAllDirs = 26;
extern const std::array<std::array<int, 3>, kNumAllDirs> kNeighborDirs;

/// Same-size neighbor of `o` in direction d (may leave the tree; check
/// inside_tree(), the forest layer handles inter-tree transforms).
/// Coordinates wrap in unsigned arithmetic when outside; callers must
/// test `inside_tree_shift` instead for out-of-tree detection.
Octant neighbor(const Octant& o, int dir);

/// Signed-coordinate neighbor test: true plus result octant if the
/// neighbor stays inside the tree, false otherwise.
bool neighbor_inside(const Octant& o, int dir, Octant& out);

}  // namespace alps::octree
