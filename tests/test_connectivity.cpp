// Tests for forest-of-octrees connectivity and inter-tree transforms
// (src/forest/connectivity, src/forest/forest).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>

#include "forest/forest.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps::forest;
using alps::octree::Adjacency;
using alps::octree::kNumAllDirs;
using alps::octree::kNumFaceDirs;
using alps::octree::LinearOctree;
using alps::octree::octant_len;
using alps::octree::coord_t;
using alps::par::Comm;

TEST(Connectivity, UnitCubeHasOnlyBoundaries) {
  Connectivity c = Connectivity::unit_cube();
  EXPECT_EQ(c.num_trees(), 1);
  for (int f = 0; f < 6; ++f) EXPECT_EQ(c.face(0, f).nbr_tree, -1);
}

TEST(Connectivity, BrickNeighborsMatchGrid) {
  Connectivity c = Connectivity::brick(3, 2, 1);
  EXPECT_EQ(c.num_trees(), 6);
  // Tree (1,0,0) has -x neighbor tree 0 and +x neighbor tree 2.
  EXPECT_EQ(c.face(1, 0).nbr_tree, 0);
  EXPECT_EQ(c.face(1, 1).nbr_tree, 2);
  EXPECT_EQ(c.face(1, 2).nbr_tree, -1);  // -y boundary
  EXPECT_EQ(c.face(1, 3).nbr_tree, 4);   // +y
  EXPECT_EQ(c.face(1, 4).nbr_tree, -1);
  EXPECT_EQ(c.face(1, 5).nbr_tree, -1);
}

TEST(Connectivity, BrickFaceCrossing) {
  Connectivity c = Connectivity::brick(2, 1, 1);
  // Rightmost octant of tree 0 crossing +x lands on leftmost of tree 1.
  Octant o{0, alps::octree::octant_len(2) * 3, 0, 0, 2};
  Octant n;
  ASSERT_TRUE(c.neighbor_across(o, 1, n));
  EXPECT_EQ(n.tree, 1);
  EXPECT_EQ(n.x, 0u);
  EXPECT_EQ(n.y, 0u);
  EXPECT_EQ(n.level, 2);
  // And the reverse crossing returns home.
  Octant back;
  ASSERT_TRUE(c.neighbor_across(n, 0, back));
  EXPECT_EQ(back, o);
}

TEST(Connectivity, PeriodicBrickWrapsAround) {
  Connectivity c = Connectivity::brick(2, 1, 1, /*period_x=*/true);
  Octant o{1, alps::octree::octant_len(1), 0, 0, 1};  // rightmost of tree 1
  Octant n;
  ASSERT_TRUE(c.neighbor_across(o, 1, n));
  EXPECT_EQ(n.tree, 0);
  EXPECT_EQ(n.x, 0u);
}

TEST(Connectivity, BrickEdgeDiagonalCrossesTwoTrees) {
  Connectivity c = Connectivity::brick(2, 2, 1);
  // Top-right corner octant of tree 0, direction (+x,+y) -> tree 3.
  const coord_t top = (coord_t{1} << alps::octree::kMaxLevel) - octant_len(3);
  Octant o{0, top, top, 0, 3};
  Octant n;
  ASSERT_TRUE(c.neighbor_across(o, 9, n));  // dir 9 = (+1,+1,0)
  EXPECT_EQ(n.tree, 3);
  EXPECT_EQ(n.x, 0u);
  EXPECT_EQ(n.y, 0u);
}

TEST(Connectivity, CubedSphereShellHas24Trees) {
  Connectivity c = Connectivity::cubed_sphere_shell();
  EXPECT_EQ(c.num_trees(), 24);
  // Every tree: 4 lateral faces connected, radial faces boundary.
  int boundary = 0, glued = 0;
  for (int t = 0; t < 24; ++t)
    for (int f = 0; f < 6; ++f)
      (c.face(t, f).nbr_tree < 0 ? boundary : glued)++;
  EXPECT_EQ(boundary, 48);  // 24 trees x 2 radial faces
  EXPECT_EQ(glued, 96);
}

TEST(Connectivity, ShellTreesAreRightHanded) {
  // det J > 0 at the 2x2x2 Gauss points of every element of a level-1
  // uniform shell: the trilinear map of each element's corners (placed by
  // map_point) preserves orientation, as fem::map_element requires.
  const Connectivity c = Connectivity::cubed_sphere_shell();
  const coord_t h = octant_len(1);
  const double g[2] = {0.5 - 0.5 / std::sqrt(3.0), 0.5 + 0.5 / std::sqrt(3.0)};
  int positive = 0;
  for (std::int32_t t = 0; t < c.num_trees(); ++t)
    for (int child = 0; child < 8; ++child) {
      std::array<std::array<double, 3>, 8> xc;
      for (int k = 0; k < 8; ++k) {
        const auto at = [&](int bit) {
          return static_cast<coord_t>(((child >> bit) & 1) +
                                      ((k >> bit) & 1)) *
                 h;
        };
        xc[static_cast<std::size_t>(k)] = c.map_point(t, at(0), at(1), at(2));
      }
      for (int q = 0; q < 8; ++q) {
        const double r[3] = {g[q & 1], g[(q >> 1) & 1], g[(q >> 2) & 1]};
        double j[3][3] = {};  // j[d][e] = d x_d / d r_e
        for (int k = 0; k < 8; ++k)
          for (int e = 0; e < 3; ++e) {
            double dn = 1.0;
            for (int a = 0; a < 3; ++a) {
              const bool hi = ((k >> a) & 1) != 0;
              dn *= a == e ? (hi ? 1.0 : -1.0) : (hi ? r[a] : 1.0 - r[a]);
            }
            for (int d = 0; d < 3; ++d)
              j[d][e] += xc[static_cast<std::size_t>(k)]
                           [static_cast<std::size_t>(d)] * dn;
          }
        const double det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1]) -
                           j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0]) +
                           j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
        EXPECT_GT(det, 0.0) << "tree " << t << ", child " << child
                            << ", point " << q;
        positive += det > 0.0;
      }
    }
  EXPECT_EQ(positive, 24 * 8 * 8);
}

TEST(Connectivity, CubedSphereTransformsRoundTrip) {
  Connectivity c = Connectivity::cubed_sphere_shell();
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> tree_d(0, 23), lv(1, 4);
  int crossings = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const int level = lv(rng);
    const coord_t n_cells = coord_t{1} << level;
    std::uniform_int_distribution<coord_t> cd(0, n_cells - 1);
    Octant o{tree_d(rng), cd(rng) * octant_len(level),
             cd(rng) * octant_len(level), cd(rng) * octant_len(level),
             static_cast<std::int8_t>(level)};
    for (int f = 0; f < kNumFaceDirs; ++f) {
      Octant nb;
      if (!c.neighbor_across(o, f, nb)) continue;
      ++crossings;
      EXPECT_TRUE(nb.inside_tree());
      // Crossing back along the opposite direction of the *mapped* face
      // must return the original octant; recover it by searching all six
      // directions of the neighbor for one that lands on `o`.
      bool found = false;
      for (int g = 0; g < kNumFaceDirs; ++g) {
        Octant back;
        if (c.neighbor_across(nb, g, back) && back == o) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "no inverse crossing for " << o.to_string();
    }
  }
  EXPECT_GT(crossings, 1000);
}

TEST(Connectivity, FromCornersRejectsOvershared) {
  std::vector<TreeCorners> corners;
  // Three identical trees: every face shared three times.
  TreeCorners t;
  for (int k = 0; k < 8; ++k) t[static_cast<std::size_t>(k)] = {k & 1, (k >> 1) & 1, (k >> 2) & 1};
  corners.assign(3, t);
  EXPECT_THROW(Connectivity::from_corners(corners), std::invalid_argument);
}

class ForestRanks : public ::testing::TestWithParam<int> {};

TEST_P(ForestRanks, BrickForestBalancesAcrossTrees) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::brick(2, 1, 1), 1);
    // Deep refinement near the shared face of tree 0.
    for (int round = 0; round < 4; ++round) {
      std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
      const coord_t top = coord_t{1} << alps::octree::kMaxLevel;
      for (std::size_t i = 0; i < f.tree().leaves().size(); ++i) {
        const Octant& o = f.tree().leaves()[i];
        if (o.tree == 0 && o.x + octant_len(o.level) == top && o.y == 0 &&
            o.z == 0)
          flags[i] = 1;
      }
      f.tree().adapt(flags, 0, alps::octree::kMaxLevel);
    }
    f.tree().update_ranges(c);
    EXPECT_FALSE(f.is_balanced(c));
    f.balance(c);
    EXPECT_TRUE(f.is_balanced(c));
    // Tree 1 must have been refined near the shared face by the ripple.
    int tree1_fine = 0;
    for (const Octant& o : f.tree().leaves())
      if (o.tree == 1 && o.level > 1) tree1_fine++;
    const int global_fine = c.allreduce_sum(tree1_fine);
    EXPECT_GT(global_fine, 0);
  });
}

TEST_P(ForestRanks, CubedSphereForestBalanceFixpoint) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::cubed_sphere_shell(), 1);
    std::mt19937 rng(5u + static_cast<unsigned>(c.rank()));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
      std::uniform_int_distribution<int> coin(0, 3);
      for (auto& fl : flags)
        if (coin(rng) == 0) fl = 1;
      f.tree().adapt(flags, 0, 6);
    }
    f.tree().update_ranges(c);
    f.balance(c);
    EXPECT_TRUE(f.is_balanced(c));
    EXPECT_TRUE(LinearOctree::globally_complete(c, f.tree()));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestRanks, ::testing::Values(1, 2, 4));

}  // namespace
