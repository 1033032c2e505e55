#include "forest/connectivity.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace alps::forest {

namespace {

// Doubled-coordinate extent of one tree: centers live in [0, kD).
constexpr std::int64_t kD = std::int64_t{2} << kMaxLevel;

// Corner indices of each face, in a fixed traversal order.
constexpr std::array<std::array<int, 4>, 6> kFaceCorners = {{
    {{0, 2, 4, 6}},  // -x
    {{1, 3, 5, 7}},  // +x
    {{0, 1, 4, 5}},  // -y
    {{2, 3, 6, 7}},  // +y
    {{0, 1, 2, 3}},  // -z
    {{4, 5, 6, 7}},  // +z
}};

constexpr std::array<std::array<int, 3>, 6> kFaceOutward = {{
    {{-1, 0, 0}}, {{1, 0, 0}}, {{0, -1, 0}},
    {{0, 1, 0}},  {{0, 0, -1}}, {{0, 0, 1}},
}};

// Reference position of cube corner c in doubled units.
std::array<std::int64_t, 3> corner_ref(int c) {
  return {(c & 1) ? kD : 0, (c & 2) ? kD : 0, (c & 4) ? kD : 0};
}

std::array<std::int64_t, 3> sub(const std::array<std::int64_t, 3>& a,
                                const std::array<std::int64_t, 3>& b) {
  return {a[0] - b[0], a[1] - b[1], a[2] - b[2]};
}

}  // namespace

Connectivity Connectivity::unit_cube() {
  Connectivity c;
  c.faces_.resize(1);
  TreeCorners tc{};
  for (int k = 0; k < 8; ++k)
    tc[static_cast<std::size_t>(k)] = {k & 1, (k >> 1) & 1, (k >> 2) & 1};
  c.corners_.push_back(tc);
  return c;
}

Connectivity Connectivity::brick(int nx, int ny, int nz, bool period_x,
                                 bool period_y, bool period_z) {
  Connectivity c;
  const auto id = [nx, ny](int i, int j, int k) {
    return static_cast<std::int32_t>((k * ny + j) * nx + i);
  };
  c.faces_.resize(static_cast<std::size_t>(nx) * ny * nz);
  const std::array<int, 3> dims = {nx, ny, nz};
  const std::array<bool, 3> per = {period_x, period_y, period_z};
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        TreeCorners tc{};
        for (int cc = 0; cc < 8; ++cc)
          tc[static_cast<std::size_t>(cc)] = {i + (cc & 1), j + ((cc >> 1) & 1),
                                              k + ((cc >> 2) & 1)};
        c.corners_.push_back(tc);
        for (int axis = 0; axis < 3; ++axis)
          for (int side = 0; side < 2; ++side) {
            std::array<int, 3> q = {i, j, k};
            q[axis] += side ? 1 : -1;
            bool wrapped = false;
            if (q[axis] < 0 || q[axis] >= dims[axis]) {
              if (!per[axis]) continue;
              q[axis] = (q[axis] + dims[axis]) % dims[axis];
              wrapped = true;
            }
            (void)wrapped;
            FaceTransform& t =
                c.faces_[static_cast<std::size_t>(id(i, j, k))]
                        [static_cast<std::size_t>(2 * axis + side)];
            t.nbr_tree = id(q[0], q[1], q[2]);
            t.nbr_face = static_cast<std::int8_t>(2 * axis + (side ? 0 : 1));
            for (int d = 0; d < 3; ++d)
              t.rot[static_cast<std::size_t>(d)][static_cast<std::size_t>(d)] = 1;
            t.trans[static_cast<std::size_t>(axis)] = side ? -kD : kD;
          }
      }
  return c;
}

Connectivity Connectivity::from_corners(const std::vector<TreeCorners>& corners) {
  Connectivity c;
  c.faces_.resize(corners.size());
  c.corners_ = corners;

  // Assign vertex ids by deduplicating corner positions: sort + unique
  // once, then binary-search each corner. Ids are lexicographic ranks
  // (only equality of ids matters downstream).
  std::vector<std::array<int, 3>> verts;
  verts.reserve(corners.size() * 8);
  for (const TreeCorners& tc : corners)
    for (const auto& pt : tc) verts.push_back(pt);
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  std::vector<std::array<int, 8>> tree_vids(corners.size());
  for (std::size_t t = 0; t < corners.size(); ++t)
    for (int k = 0; k < 8; ++k)
      tree_vids[t][static_cast<std::size_t>(k)] = static_cast<int>(
          std::lower_bound(verts.begin(), verts.end(),
                           corners[t][static_cast<std::size_t>(k)]) -
          verts.begin());

  // Group faces by their (sorted) vertex-id quadruple: flat list sorted
  // by key, shared faces become adjacent runs.
  struct FaceUse {
    std::array<int, 4> key;
    int tree;
    int face;
  };
  std::vector<FaceUse> uses;
  uses.reserve(corners.size() * 6);
  for (std::size_t t = 0; t < corners.size(); ++t)
    for (int f = 0; f < 6; ++f) {
      std::array<int, 4> key;
      for (int k = 0; k < 4; ++k)
        key[static_cast<std::size_t>(k)] =
            tree_vids[t][static_cast<std::size_t>(
                kFaceCorners[static_cast<std::size_t>(f)]
                            [static_cast<std::size_t>(k)])];
      std::sort(key.begin(), key.end());
      uses.push_back(FaceUse{key, static_cast<int>(t), f});
    }
  std::sort(uses.begin(), uses.end(), [](const FaceUse& a, const FaceUse& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.face < b.face;
  });

  for (std::size_t lo = 0; lo < uses.size();) {
    std::size_t hi = lo + 1;
    while (hi < uses.size() && uses[hi].key == uses[lo].key) ++hi;
    const std::size_t nuse = hi - lo;
    if (nuse == 1) {  // physical boundary
      lo = hi;
      continue;
    }
    if (nuse != 2)
      throw std::invalid_argument(
          "from_corners: a face is shared by more than two trees");
    const std::array<std::pair<int, int>, 2> users = {
        std::make_pair(uses[lo].tree, uses[lo].face),
        std::make_pair(uses[lo + 1].tree, uses[lo + 1].face)};
    lo = hi;
    for (int dirn = 0; dirn < 2; ++dirn) {
      const auto [ta, fa] = users[static_cast<std::size_t>(dirn)];
      const auto [tb, fb] = users[static_cast<std::size_t>(1 - dirn)];
      // Vertex-id -> corner index lookup for tree B's face.
      const auto corner_of_vid = [&](int v) {
        for (int k = 0; k < 8; ++k)
          if (tree_vids[static_cast<std::size_t>(tb)]
                       [static_cast<std::size_t>(k)] == v)
            return k;
        throw std::logic_error("from_corners: vertex not found in nbr tree");
      };
      const auto& fca = kFaceCorners[static_cast<std::size_t>(fa)];
      const int ca0 = fca[0], ca1 = fca[1], ca2 = fca[2];
      const int va0 = tree_vids[static_cast<std::size_t>(ta)]
                               [static_cast<std::size_t>(ca0)];
      const int va1 = tree_vids[static_cast<std::size_t>(ta)]
                               [static_cast<std::size_t>(ca1)];
      const int va2 = tree_vids[static_cast<std::size_t>(ta)]
                               [static_cast<std::size_t>(ca2)];
      const auto a0 = corner_ref(ca0);
      const auto u = sub(corner_ref(ca1), a0);
      const auto v = sub(corner_ref(ca2), a0);
      const auto b0 = corner_ref(corner_of_vid(va0));
      const auto up = sub(corner_ref(corner_of_vid(va1)), b0);
      const auto vp = sub(corner_ref(corner_of_vid(va2)), b0);
      // Outward normal of fa maps to inward normal of fb.
      std::array<std::int64_t, 3> n{}, np{};
      for (int d = 0; d < 3; ++d) {
        n[static_cast<std::size_t>(d)] =
            kD * kFaceOutward[static_cast<std::size_t>(fa)]
                             [static_cast<std::size_t>(d)];
        np[static_cast<std::size_t>(d)] =
            -kD * kFaceOutward[static_cast<std::size_t>(fb)]
                              [static_cast<std::size_t>(d)];
      }

      FaceTransform t;
      t.nbr_tree = static_cast<std::int32_t>(tb);
      t.nbr_face = static_cast<std::int8_t>(fb);
      // Each source vector s*kD*e_i with image w gives column i = s*w/kD.
      const auto set_column = [&](const std::array<std::int64_t, 3>& src,
                                  const std::array<std::int64_t, 3>& dst) {
        for (int i = 0; i < 3; ++i)
          if (src[static_cast<std::size_t>(i)] != 0) {
            const std::int64_t s = src[static_cast<std::size_t>(i)] / kD;
            for (int r = 0; r < 3; ++r)
              t.rot[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
                  static_cast<std::int8_t>(s * dst[static_cast<std::size_t>(r)] /
                                           kD);
            return;
          }
        throw std::logic_error("from_corners: degenerate face vector");
      };
      set_column(u, up);
      set_column(v, vp);
      set_column(n, np);
      // Translation: M(a0) = b0.
      for (int r = 0; r < 3; ++r) {
        std::int64_t acc = 0;
        for (int k = 0; k < 3; ++k)
          acc += t.rot[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)] *
                 a0[static_cast<std::size_t>(k)];
        t.trans[static_cast<std::size_t>(r)] = b0[static_cast<std::size_t>(r)] - acc;
      }
      c.faces_[static_cast<std::size_t>(ta)][static_cast<std::size_t>(fa)] = t;
    }
  }
  return c;
}

Connectivity Connectivity::cubed_sphere_shell() {
  // 6 caps x (2x2) trees, radially one tree deep. Surface lattice points
  // have one coordinate = +-2 and the others in {-2, 0, 2}; the inner
  // shell corner is the point itself, the outer shell corner is doubled,
  // so corners shared between caps coincide exactly. Tree axes (x, y)
  // run along (b, cax) on the + caps and (cax, b) on the - caps, so that
  // x cross y points radially outward and every tree is right-handed.
  std::vector<TreeCorners> corners;
  for (int axis = 0; axis < 3; ++axis)
    for (int sign = -1; sign <= 1; sign += 2) {
      int b = (axis + 1) % 3, cax = (axis + 2) % 3;
      if (sign < 0) std::swap(b, cax);
      for (int j = 0; j < 2; ++j)
        for (int i = 0; i < 2; ++i) {
          TreeCorners tc{};
          for (int k = 0; k < 8; ++k) {
            std::array<int, 3> p{};
            p[static_cast<std::size_t>(axis)] = 2 * sign;
            p[static_cast<std::size_t>(b)] = -2 + 2 * i + 2 * ((k & 1) ? 1 : 0);
            p[static_cast<std::size_t>(cax)] = -2 + 2 * j + 2 * ((k & 2) ? 1 : 0);
            const int scale = (k & 4) ? 2 : 1;  // bit2 = radially outward
            tc[static_cast<std::size_t>(k)] = {scale * p[0], scale * p[1],
                                               scale * p[2]};
          }
          corners.push_back(tc);
        }
    }
  return from_corners(corners);
}

std::array<double, 3> Connectivity::map_point(std::int32_t tree, coord_t x,
                                              coord_t y, coord_t z) const {
  const double n = static_cast<double>(coord_t{1} << kMaxLevel);
  const double xi = x / n, yj = y / n, zk = z / n;
  const TreeCorners& tc = corners_[static_cast<std::size_t>(tree)];
  std::array<double, 3> p{};
  for (int k = 0; k < 8; ++k) {
    const double w = ((k & 1) ? xi : 1.0 - xi) * ((k & 2) ? yj : 1.0 - yj) *
                     ((k & 4) ? zk : 1.0 - zk);
    for (int d = 0; d < 3; ++d)
      p[static_cast<std::size_t>(d)] +=
          w * tc[static_cast<std::size_t>(k)][static_cast<std::size_t>(d)];
  }
  return p;
}

bool Connectivity::transform_center(std::int32_t tree, int f,
                                    std::array<std::int64_t, 3>& center2) const {
  const FaceTransform& t =
      faces_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(f)];
  if (t.nbr_tree < 0) return false;
  std::array<std::int64_t, 3> out{};
  for (int r = 0; r < 3; ++r) {
    std::int64_t acc = t.trans[static_cast<std::size_t>(r)];
    for (int k = 0; k < 3; ++k)
      acc += t.rot[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)] *
             center2[static_cast<std::size_t>(k)];
    out[static_cast<std::size_t>(r)] = acc;
  }
  center2 = out;
  return true;
}

bool Connectivity::neighbor_across(const Octant& o, int dir, Octant& out) const {
  const std::int64_t h = octree::octant_len(o.level);
  std::array<std::int64_t, 3> c = {
      2 * static_cast<std::int64_t>(o.x) + h +
          2 * h * octree::kNeighborDirs[static_cast<std::size_t>(dir)][0],
      2 * static_cast<std::int64_t>(o.y) + h +
          2 * h * octree::kNeighborDirs[static_cast<std::size_t>(dir)][1],
      2 * static_cast<std::int64_t>(o.z) + h +
          2 * h * octree::kNeighborDirs[static_cast<std::size_t>(dir)][2]};
  std::int32_t tree = o.tree;
  for (int attempt = 0; attempt < 4; ++attempt) {
    int axis = -1, side = 0;
    for (int d = 0; d < 3 && axis < 0; ++d) {
      if (c[static_cast<std::size_t>(d)] < 0) {
        axis = d;
        side = 0;
      } else if (c[static_cast<std::size_t>(d)] >= kD) {
        axis = d;
        side = 1;
      }
    }
    if (axis < 0) {
      out.tree = tree;
      out.level = o.level;
      out.x = static_cast<coord_t>((c[0] - h) / 2);
      out.y = static_cast<coord_t>((c[1] - h) / 2);
      out.z = static_cast<coord_t>((c[2] - h) / 2);
      return true;
    }
    const int f = 2 * axis + side;
    const FaceTransform& t =
        faces_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(f)];
    if (t.nbr_tree < 0) return false;
    if (!transform_center(tree, f, c)) return false;
    tree = t.nbr_tree;
  }
  return false;  // cone point: diagonal neighbor not well defined
}

}  // namespace alps::forest
