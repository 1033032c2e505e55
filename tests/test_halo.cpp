// Tests for the owner↔ghost halo plan (src/par/halo): forward and reverse
// with multi-component entries on a mesh-built and a gid-built plan, the
// int64 forward the AMG setup uses, and the split-phase misuse checks.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "la/dist_csr.hpp"
#include "mesh/mesh.hpp"
#include "par/halo.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using par::Comm;
using par::HaloPlan;

// Global ids [0, n) split evenly; rank r ghosts every gid g it does not own
// with (g + r) % 3 == 0. Every rank can evaluate anyone's ghost set.
struct GidLayout {
  std::int64_t n = 0;
  std::vector<std::int64_t> offsets;

  explicit GidLayout(int p)
      : n(7 * p + 3), offsets(la::DistCsr::uniform_offsets(p, n)) {}

  bool ghosts(int r, std::int64_t g) const {
    return par::owner_of(offsets, g) != r && (g + r) % 3 == 0;
  }
  std::vector<std::int64_t> ghost_gids(int r) const {
    std::vector<std::int64_t> out;
    for (std::int64_t g = 0; g < n; ++g)
      if (ghosts(r, g)) out.push_back(g);
    return out;
  }
};

TEST(HaloPlan, PlanRoutesOwnedValuesToGhostSlots) {
  alps::par::run(3, [](Comm& c) {
    // Partition [0, 9) into thirds; every rank ghosts one entry from each
    // other rank: rank r needs gids {(r+1)*3, (r+2)*3 mod 9} (sorted).
    const std::vector<std::int64_t> off = {0, 3, 6, 9};
    std::vector<std::int64_t> ghosts;
    for (int r = 0; r < 3; ++r)
      if (r != c.rank()) ghosts.push_back(3 * r);
    const HaloPlan plan = HaloPlan::from_ghost_gids(c, ghosts, off);
    std::size_t num_ghosts = 0;
    for (const auto& idx : plan.recv_idx) num_ghosts += idx.size();
    EXPECT_EQ(num_ghosts, 2u);
    // Owned values are gid * 10; ghosts must come back as owner values.
    std::vector<double> owned = {0, 0, 0};
    for (int i = 0; i < 3; ++i) owned[static_cast<std::size_t>(i)] =
        static_cast<double>((off[static_cast<std::size_t>(c.rank())] + i) * 10);
    std::vector<double> gv(2, -1.0);
    plan.forward<double>(c, owned, gv);
    for (std::size_t i = 0; i < ghosts.size(); ++i)
      EXPECT_DOUBLE_EQ(gv[i], static_cast<double>(ghosts[i] * 10));
    // reverse: each ghost slot contributes 1 to its owner; every owned
    // boundary entry is ghosted by the two other ranks.
    std::vector<double> contrib(2, 1.0);
    std::vector<double> acc = {0, 0, 0};
    plan.reverse<double>(c, contrib, acc);
    EXPECT_DOUBLE_EQ(acc[0], 2.0);  // gid 3*rank ghosted by both others
    EXPECT_DOUBLE_EQ(acc[1], 0.0);
    EXPECT_DOUBLE_EQ(acc[2], 0.0);
  });
}

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, GidPlanForwardAndReverseWithComponents) {
  const int p = GetParam();
  alps::par::run(p, [p](Comm& c) {
    const GidLayout lay(p);
    const std::vector<std::int64_t> ghosts = lay.ghost_gids(c.rank());
    const HaloPlan plan = HaloPlan::from_ghost_gids(c, ghosts, lay.offsets);
    const std::int64_t lo = lay.offsets[static_cast<std::size_t>(c.rank())];
    const std::int64_t hi = lay.offsets[static_cast<std::size_t>(c.rank()) + 1];
    for (int nc : {1, 3, 4}) {
      const std::size_t ncs = static_cast<std::size_t>(nc);
      std::vector<double> owned(static_cast<std::size_t>(hi - lo) * ncs);
      for (std::int64_t g = lo; g < hi; ++g)
        for (std::size_t k = 0; k < ncs; ++k)
          owned[static_cast<std::size_t>(g - lo) * ncs + k] =
              static_cast<double>(g * 10) + static_cast<double>(k);
      std::vector<double> gv(ghosts.size() * ncs, -1.0);
      plan.forward<double>(c, owned, gv, nc);
      for (std::size_t i = 0; i < ghosts.size(); ++i)
        for (std::size_t k = 0; k < ncs; ++k)
          EXPECT_EQ(gv[i * ncs + k],
                    static_cast<double>(ghosts[i] * 10) + static_cast<double>(k))
              << "nc " << nc << " ghost " << ghosts[i];

      // Reverse: ghost slot of gid g on rank r carries (r + 1) * (k + 1);
      // the owner adds it to its own entry and the slot is zeroed.
      std::vector<double> contrib(ghosts.size() * ncs);
      for (std::size_t i = 0; i < ghosts.size(); ++i)
        for (std::size_t k = 0; k < ncs; ++k)
          contrib[i * ncs + k] =
              static_cast<double>((c.rank() + 1) * static_cast<int>(k + 1));
      std::vector<double> acc(owned.size(), 0.5);
      plan.reverse_begin<double>(c, contrib, nc);
      for (double v : contrib) EXPECT_EQ(v, 0.0);
      plan.reverse_finish<double>(c, acc, nc);
      for (std::int64_t g = lo; g < hi; ++g)
        for (std::size_t k = 0; k < ncs; ++k) {
          double want = 0.5;
          for (int r = 0; r < p; ++r)
            if (lay.ghosts(r, g))
              want += static_cast<double>((r + 1) * static_cast<int>(k + 1));
          EXPECT_EQ(acc[static_cast<std::size_t>(g - lo) * ncs + k], want)
              << "nc " << nc << " gid " << g;
        }
    }

    // The AMG setup forwards int64 coarse ids through the same plan.
    std::vector<std::int64_t> owned_id(static_cast<std::size_t>(hi - lo));
    for (std::int64_t g = lo; g < hi; ++g)
      owned_id[static_cast<std::size_t>(g - lo)] = -3 * g;
    std::vector<std::int64_t> ghost_id(ghosts.size(), 0);
    plan.forward<std::int64_t>(c, owned_id, ghost_id);
    for (std::size_t i = 0; i < ghosts.size(); ++i)
      EXPECT_EQ(ghost_id[i], -3 * ghosts[i]);
  });
}

TEST_P(HaloRanks, MeshPlanForwardAndReverseWithComponents) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    const mesh::Mesh m = mesh::extract_mesh(c, f);
    // How many ranks hold a copy of each dof, counted from the gid lists.
    const std::vector<std::int64_t> all = c.allgatherv(m.dof_gids);
    std::map<std::int64_t, int> copies;
    for (std::int64_t g : all) ++copies[g];
    const std::size_t nl = static_cast<std::size_t>(m.n_local);
    for (int nc : {1, 3, 4}) {
      const std::size_t ncs = static_cast<std::size_t>(nc);
      // Forward: ghosts take the owner's value; owned entries stay.
      std::vector<double> v(nl * ncs, -1.0);
      for (std::size_t d = 0; d < static_cast<std::size_t>(m.n_owned); ++d)
        for (std::size_t k = 0; k < ncs; ++k)
          v[d * ncs + k] =
              static_cast<double>(m.dof_gids[d] * 10) + static_cast<double>(k);
      m.exchange(c, v, nc);
      for (std::size_t d = 0; d < nl; ++d)
        for (std::size_t k = 0; k < ncs; ++k)
          EXPECT_EQ(v[d * ncs + k],
                    static_cast<double>(m.dof_gids[d] * 10) + static_cast<double>(k))
              << "nc " << nc << " dof " << d;

      // Reverse: every copy carries k + 1; owners end with copies * (k + 1)
      // and ghost slots with 0.
      std::vector<double> w(nl * ncs);
      for (std::size_t d = 0; d < nl; ++d)
        for (std::size_t k = 0; k < ncs; ++k)
          w[d * ncs + k] = static_cast<double>(k + 1);
      m.accumulate(c, w, nc);
      for (std::size_t d = 0; d < nl; ++d)
        for (std::size_t k = 0; k < ncs; ++k) {
          const double want =
              m.is_owned(static_cast<std::int32_t>(d))
                  ? static_cast<double>(copies[m.dof_gids[d]]) *
                        static_cast<double>(k + 1)
                  : 0.0;
          EXPECT_EQ(w[d * ncs + k], want) << "nc " << nc << " dof " << d;
        }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, HaloRanks, ::testing::Values(1, 2, 3, 4));

TEST(HaloPlan, MisuseThrowsOnAGidBuiltPlan) {
  alps::par::run(2, [](Comm& c) {
    const GidLayout lay(2);
    const std::vector<std::int64_t> ghosts = lay.ghost_gids(c.rank());
    const HaloPlan plan = HaloPlan::from_ghost_gids(c, ghosts, lay.offsets);
    const std::int64_t owned_n =
        lay.offsets[static_cast<std::size_t>(c.rank()) + 1] -
        lay.offsets[static_cast<std::size_t>(c.rank())];
    std::vector<double> owned(static_cast<std::size_t>(owned_n) * 2, 1.0);
    std::vector<double> gv(ghosts.size() * 2, 0.0);

    // Finish without a begin.
    EXPECT_THROW(plan.forward_finish<double>(c, gv), std::logic_error);
    EXPECT_THROW(plan.reverse_finish<double>(c, owned), std::logic_error);

    // Double begin, and finishing the other operation.
    plan.forward_begin<double>(c, owned);
    EXPECT_THROW(plan.forward_begin<double>(c, owned), std::logic_error);
    EXPECT_THROW(plan.reverse_begin<double>(c, gv), std::logic_error);
    EXPECT_THROW(plan.reverse_finish<double>(c, owned), std::logic_error);
    plan.forward_finish<double>(c, gv);  // proper completion still works

    // ncomp must match between begin and finish.
    plan.reverse_begin<double>(c, gv, 2);
    EXPECT_THROW(plan.reverse_finish<double>(c, owned, 1), std::logic_error);
    plan.reverse_finish<double>(c, owned, 2);
  });
}

}  // namespace
