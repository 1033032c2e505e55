#include "par/halo.hpp"

namespace alps::par {

HaloPlan HaloPlan::from_ghost_gids(Comm& comm,
                                   std::span<const std::int64_t> ghost_gids,
                                   std::span<const std::int64_t> offsets) {
  const int p = comm.size();
  HaloPlan plan;
  plan.send_idx.assign(static_cast<std::size_t>(p), {});
  plan.recv_idx.assign(static_cast<std::size_t>(p), {});
  const std::int64_t lo = offsets[static_cast<std::size_t>(comm.rank())];

  // Each ghost slot asks its owner for one owned entry; the alltoallv of
  // requested gids tells every owner which entries to pack per neighbour.
  std::vector<std::vector<std::int64_t>> want(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < ghost_gids.size(); ++i) {
    const int owner = owner_of(offsets, ghost_gids[i]);
    if (owner == comm.rank())
      throw std::logic_error("par::HaloPlan: ghost gid owned locally");
    want[static_cast<std::size_t>(owner)].push_back(ghost_gids[i]);
    plan.recv_idx[static_cast<std::size_t>(owner)].push_back(
        static_cast<std::int32_t>(i));
  }
  const std::vector<std::vector<std::int64_t>> asked = comm.alltoallv(want);
  for (int r = 0; r < p; ++r)
    for (std::int64_t gid : asked[static_cast<std::size_t>(r)])
      plan.send_idx[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int32_t>(gid - lo));
  return plan;
}

void HaloPlan::start(Op op, int ncomp) const {
  if (inflight_ != Op::kNone)
    throw std::logic_error(
        "par::HaloPlan: begin while another halo operation is in flight");
  out_.resize(std::max(send_idx.size(), recv_idx.size()));
  inflight_ = op;
  inflight_ncomp_ = ncomp;
}

void HaloPlan::finish(Op op, int ncomp) const {
  if (inflight_ == Op::kNone)
    throw std::logic_error("par::HaloPlan: finish without a matching begin");
  if (inflight_ != op)
    throw std::logic_error(
        "par::HaloPlan: finish does not match the in-flight operation");
  // Validate before clearing: a rejected finish must leave the operation
  // in flight so the caller can still complete it correctly.
  if (ncomp != inflight_ncomp_)
    throw std::logic_error("par::HaloPlan: finish ncomp differs from begin");
  inflight_ = Op::kNone;
}

}  // namespace alps::par
