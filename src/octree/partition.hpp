#pragma once
// PARTITIONTREE + TRANSFERFIELDS (paper Sec. IV.B): repartition the
// linear octree by splitting the space-filling curve into per-rank
// segments of equal (optionally weighted) length, moving per-leaf payload
// data along with the octants in the same alltoall.

#include <span>
#include <vector>

#include "octree/linear_octree.hpp"

namespace alps::octree {

/// Fixed-width per-leaf payload carried through repartitioning; data holds
/// ncomp doubles for each local leaf, in leaf order.
struct LeafPayload {
  int ncomp = 1;
  std::vector<double> data;
};

/// Repartition to equal leaf counts per rank. Any payloads move with their
/// leaves. `weights`, if nonempty (one per local leaf), switches to
/// equal-weight partitioning (e.g. element work estimates). The octant
/// movement (PARTITIONTREE) and payload movement (TRANSFERFIELDS) stages
/// record into the "amr.partition" / "amr.transfer_fields" obs phase
/// histograms, matching the paper's Fig. 7/10 breakdowns — read their
/// seconds back with obs::phase_seconds.
void partition(par::Comm& comm, LinearOctree& tree,
               std::span<LeafPayload*> payloads = {},
               std::span<const double> weights = {});

/// Max over ranks of (local leaves / ideal leaves): 1.0 is perfect balance.
double load_imbalance(par::Comm& comm, const LinearOctree& tree);

}  // namespace alps::octree
