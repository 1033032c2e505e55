// Halo communication and element geometry. The extraction algorithms
// (extract_mesh and its reference oracle) live in mesh/extract.cpp.

#include "mesh/mesh.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace alps::mesh {

namespace {

// Message tags of the split-phase halo. Distinct per operation so a
// mismatched start/finish pair can never silently consume the other
// operation's payload; distinct rounds of the same operation stay ordered
// because the mailbox delivers same-(src, tag) messages FIFO and the halo
// calls are collective in matching order on every rank.
constexpr int kHaloAccumulateTag = 0x7b00;
constexpr int kHaloExchangeTag = 0x7c00;

}  // namespace

void Mesh::build_halo_plan() const {
  halo_owner_ranks_.clear();
  halo_user_ranks_.clear();
  halo_out_.assign(send_idx.size(), {});
  for (std::size_t r = 0; r < recv_idx.size(); ++r)
    if (!recv_idx[r].empty()) halo_owner_ranks_.push_back(static_cast<int>(r));
  for (std::size_t r = 0; r < send_idx.size(); ++r)
    if (!send_idx[r].empty()) halo_user_ranks_.push_back(static_cast<int>(r));
  halo_plan_built_ = true;
}

void Mesh::check_start(HaloOp op) const {
  if (!halo_plan_built_) build_halo_plan();
  if (halo_inflight_ != HaloOp::kNone)
    throw std::logic_error(
        "mesh halo: start while another halo operation is in flight");
  halo_inflight_ = op;
}

void Mesh::check_finish(HaloOp op, int ncomp) const {
  if (halo_inflight_ == HaloOp::kNone)
    throw std::logic_error("mesh halo: finish without a matching start");
  if (halo_inflight_ != op)
    throw std::logic_error(
        "mesh halo: finish does not match the in-flight operation");
  // Validate before clearing: a rejected finish must leave the operation
  // in flight so the caller can still complete it correctly.
  if (ncomp != halo_ncomp_)
    throw std::logic_error("mesh halo: finish ncomp differs from start");
  halo_inflight_ = HaloOp::kNone;
}

void Mesh::accumulate_start(par::Comm& comm, std::span<double> values,
                            int ncomp) const {
  check_start(HaloOp::kAccumulate);
  halo_ncomp_ = ncomp;
  const std::size_t nc = static_cast<std::size_t>(ncomp);
  std::uint64_t bytes = 0;
  for (int r : halo_owner_ranks_) {
    const auto& idx = recv_idx[static_cast<std::size_t>(r)];
    std::vector<double>& out = halo_out_[static_cast<std::size_t>(r)];
    out.resize(idx.size() * nc);
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t c = 0; c < nc; ++c) {
        double& v = values[static_cast<std::size_t>(idx[i]) * nc + c];
        out[i * nc + c] = v;
        v = 0.0;
      }
    bytes += out.size() * sizeof(double);
    // Flow start stamped before the post: the mailbox delivers instantly,
    // so emitting after send could timestamp "s" later than the peer's "f".
    obs::flow_emit(r, obs::kFlowHaloAccumulate, true);
    comm.send(r, kHaloAccumulateTag, out);
  }
  obs::counter_add(obs::wellknown::ghost_exchange_bytes(), bytes);
  obs::overlap_mark_start();
}

void Mesh::accumulate_finish(par::Comm& comm, std::span<double> values,
                             int ncomp) const {
  check_finish(HaloOp::kAccumulate, ncomp);
  obs::overlap_mark_finish_begin();
  const std::size_t nc = static_cast<std::size_t>(ncomp);
  for (int r : halo_user_ranks_) {
    const auto& idx = send_idx[static_cast<std::size_t>(r)];
    const std::vector<double> in = comm.recv<double>(r, kHaloAccumulateTag);
    obs::flow_emit(r, obs::kFlowHaloAccumulate, false);
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t c = 0; c < nc; ++c)
        values[static_cast<std::size_t>(idx[i]) * nc + c] += in[i * nc + c];
  }
  obs::overlap_mark_finish_end();
}

void Mesh::exchange_start(par::Comm& comm, std::span<double> values,
                          int ncomp) const {
  check_start(HaloOp::kExchange);
  halo_ncomp_ = ncomp;
  const std::size_t nc = static_cast<std::size_t>(ncomp);
  std::uint64_t bytes = 0;
  for (int r : halo_user_ranks_) {
    const auto& idx = send_idx[static_cast<std::size_t>(r)];
    std::vector<double>& out = halo_out_[static_cast<std::size_t>(r)];
    out.resize(idx.size() * nc);
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t c = 0; c < nc; ++c)
        out[i * nc + c] = values[static_cast<std::size_t>(idx[i]) * nc + c];
    bytes += out.size() * sizeof(double);
    obs::flow_emit(r, obs::kFlowHaloExchange, true);
    comm.send(r, kHaloExchangeTag, out);
  }
  obs::counter_add(obs::wellknown::ghost_exchange_bytes(), bytes);
  obs::overlap_mark_start();
}

void Mesh::exchange_finish(par::Comm& comm, std::span<double> values,
                           int ncomp) const {
  check_finish(HaloOp::kExchange, ncomp);
  obs::overlap_mark_finish_begin();
  const std::size_t nc = static_cast<std::size_t>(ncomp);
  for (int r : halo_owner_ranks_) {
    const auto& idx = recv_idx[static_cast<std::size_t>(r)];
    const std::vector<double> in = comm.recv<double>(r, kHaloExchangeTag);
    obs::flow_emit(r, obs::kFlowHaloExchange, false);
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t c = 0; c < nc; ++c)
        values[static_cast<std::size_t>(idx[i]) * nc + c] = in[i * nc + c];
  }
  obs::overlap_mark_finish_end();
}

void Mesh::exchange(par::Comm& comm, std::span<double> values,
                    int ncomp) const {
  exchange_start(comm, values, ncomp);
  exchange_finish(comm, values, ncomp);
}

void Mesh::accumulate(par::Comm& comm, std::span<double> values,
                      int ncomp) const {
  accumulate_start(comm, values, ncomp);
  accumulate_finish(comm, values, ncomp);
}

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
