// Element geometry. The halo lives in par::HaloPlan (par/halo.hpp); the
// extraction algorithms (extract_mesh and its reference oracle) live in
// mesh/extract.cpp.

#include "mesh/mesh.hpp"

namespace alps::mesh {

std::array<std::array<double, 3>, 8> Mesh::element_corners_xyz(
    const forest::Connectivity& conn, std::int64_t e) const {
  const Octant& o = elements[static_cast<std::size_t>(e)];
  const coord_t h = octree::octant_len(o.level);
  std::array<std::array<double, 3>, 8> out;
  for (int c = 0; c < 8; ++c)
    out[static_cast<std::size_t>(c)] =
        conn.map_point(o.tree, o.x + ((c & 1) ? h : 0), o.y + ((c & 2) ? h : 0),
                       o.z + ((c & 4) ? h : 0));
  return out;
}

}  // namespace alps::mesh
