// Adapted test forests shared by the fem, Stokes and diagnostics tests:
// point-refined forests with hanging nodes that cross rank boundaries.

#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "octree/balance.hpp"

namespace alps::test {

/// Refine every leaf whose center lies within sqrt(r2) of `center` (up to
/// `max_level`), then balance.
inline void refine_near(par::Comm& c, forest::Forest& f,
                        const std::array<double, 3>& center, double r2,
                        int max_level) {
  const auto& conn = f.connectivity();
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const octree::Octant& o = f.tree().leaves()[i];
    const octree::coord_t h = octree::octant_len(o.level);
    const auto p =
        conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
    double d2 = 0.0;
    for (std::size_t k = 0; k < 3; ++k)
      d2 += (p[k] - center[k]) * (p[k] - center[k]);
    if (d2 < r2 && o.level < max_level) flags[i] = 1;
  }
  f.tree().adapt(flags, 0, max_level);
  f.balance(c, octree::Adjacency::kFaceEdge);
}

/// Uniform at `level`, refined twice around `center`, balanced and evenly
/// partitioned.
inline forest::Forest adapted_forest(par::Comm& c, forest::Connectivity conn,
                                     int level,
                                     const std::array<double, 3>& center,
                                     double r2) {
  forest::Forest f = forest::Forest::new_uniform(c, std::move(conn), level);
  refine_near(c, f, center, r2, level + 2);
  refine_near(c, f, center, 0.3 * r2, level + 2);
  f.tree().update_ranges(c);
  f.partition(c);
  return f;
}

}  // namespace alps::test
