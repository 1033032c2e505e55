#pragma once
// Owner↔ghost halo plan: the one communication pattern behind every ghost
// copy in the code — the mesh's ghost dofs (EXTRACTMESH, paper Sec. IV.B),
// the ghost columns of the distributed matrices and the ghost elements of
// DG advection. A plan lists, per neighbour rank, which owned entries that
// rank ghosts (send_idx) and which local ghost slots it fills (recv_idx).
//
//   forward  owners -> ghosts: copy each owned entry into its ghost copies.
//   reverse  ghosts -> owners: add each ghost slot into its owner's entry
//            and zero the slot (the adjoint of forward; the FEM assembly's
//            ghost accumulate and the transpose matvec).
//
// Every operation is split-phase: *_begin packs and posts the sends over
// the buffered p2p layer and returns without waiting on any rank;
// *_finish blocks until the neighbours' messages arrive and unpacks them,
// so callers can hide the messages behind local work in between. Entries
// are `ncomp` values wide, node-major (index i covers values
// [i*ncomp, (i+1)*ncomp)). Incoming values are applied in ascending
// source-rank order, so reverse sums are bit-reproducible. The per-
// neighbour packing buffers are kept across calls: after the first call a
// send allocates nothing (the receive still copies into a fresh vector in
// Comm::recv).
//
// One message tag and one obs flow channel per direction serve every
// plan. That is sound because the mailbox delivers same-(source, tag)
// messages FIFO and halo operations are collective: every rank begins
// and finishes them in the same order, and no caller begins a second
// operation in the same direction before finishing the first.
//
// At most one operation may be in flight per plan; misuse (double begin,
// finish without begin, finishing a different operation or with a
// different ncomp than begun) throws std::logic_error.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace alps::par {

/// Returns the rank owning global id `gid` under the partition `offsets`
/// (size P+1, offsets[r] .. offsets[r+1] owned by rank r).
inline int owner_of(std::span<const std::int64_t> offsets, std::int64_t gid) {
  auto it = std::upper_bound(offsets.begin(), offsets.end() - 1, gid);
  return static_cast<int>(it - offsets.begin()) - 1;
}

class HaloPlan {
 public:
  // One slot per rank; empty for non-neighbours. send_idx[r]: owned
  // entries rank r ghosts; recv_idx[r]: ghost slots rank r fills.
  std::vector<std::vector<std::int32_t>> send_idx;
  std::vector<std::vector<std::int32_t>> recv_idx;

  /// Plan for the ghost entries `ghost_gids` (sorted, unique, all owned by
  /// other ranks under `offsets`, size P+1): ghost slot i is entry i of
  /// the ghost span, owned entry k is gid offsets[rank] + k. Each rank
  /// tells the owners which gids it ghosts in one alltoallv. Collective.
  static HaloPlan from_ghost_gids(Comm& comm,
                                  std::span<const std::int64_t> ghost_gids,
                                  std::span<const std::int64_t> offsets);

  /// Post the owned entries of `src` to the ranks that ghost them.
  template <typename T>
  void forward_begin(Comm& comm, std::span<const T> src, int ncomp = 1) const {
    start(Op::kForward, ncomp);
    post(comm, send_idx, src, ncomp, kForwardTag, obs::kFlowHaloForward);
  }
  /// Overwrite the ghost slots of `dst` with the owners' values.
  template <typename T>
  void forward_finish(Comm& comm, std::span<T> dst, int ncomp = 1) const {
    finish(Op::kForward, ncomp);
    complete<T, false>(comm, recv_idx, dst, ncomp, kForwardTag,
                       obs::kFlowHaloForward);
  }
  template <typename T>
  void forward(Comm& comm, std::span<const T> src, std::span<T> dst,
               int ncomp = 1) const {
    forward_begin(comm, src, ncomp);
    forward_finish(comm, dst, ncomp);
  }

  /// Post the ghost slots of `src` to their owners and zero them.
  template <typename T>
  void reverse_begin(Comm& comm, std::span<T> src, int ncomp = 1) const {
    start(Op::kReverse, ncomp);
    post(comm, recv_idx, src, ncomp, kReverseTag, obs::kFlowHaloReverse);
  }
  /// Add the ghosts' contributions into the owned entries of `dst`.
  template <typename T>
  void reverse_finish(Comm& comm, std::span<T> dst, int ncomp = 1) const {
    finish(Op::kReverse, ncomp);
    complete<T, true>(comm, send_idx, dst, ncomp, kReverseTag,
                      obs::kFlowHaloReverse);
  }
  template <typename T>
  void reverse(Comm& comm, std::span<T> src, std::span<T> dst,
               int ncomp = 1) const {
    reverse_begin(comm, src, ncomp);
    reverse_finish(comm, dst, ncomp);
  }

  /// Heap bytes of the index lists and packing buffers (capacity-based).
  std::uint64_t memory_bytes() const {
    std::uint64_t b = obs::vec_bytes(send_idx) + obs::vec_bytes(recv_idx) +
                      obs::vec_bytes(out_);
    for (const auto& v : send_idx) b += obs::vec_bytes(v);
    for (const auto& v : recv_idx) b += obs::vec_bytes(v);
    for (const auto& v : out_) b += obs::vec_bytes(v);
    return b;
  }

 private:
  enum class Op : std::uint8_t { kNone, kForward, kReverse };
  using IndexLists = std::vector<std::vector<std::int32_t>>;

  static constexpr int kForwardTag = 0x6700;
  static constexpr int kReverseTag = 0x6701;

  void start(Op op, int ncomp) const;
  void finish(Op op, int ncomp) const;

  // Pack idx[r] of `src` into rank r's reused buffer and send it. A
  // mutable `src` (the reverse direction) has its packed slots zeroed.
  template <typename T>
  void post(Comm& comm, const IndexLists& idx, std::span<T> src, int ncomp,
            int tag, int channel) const {
    const std::size_t nc = static_cast<std::size_t>(ncomp);
    std::uint64_t bytes = 0;
    for (std::size_t r = 0; r < idx.size(); ++r) {
      const auto& list = idx[r];
      if (list.empty()) continue;
      std::vector<std::byte>& out = out_[r];
      out.resize(list.size() * nc * sizeof(T));
      std::byte* o = out.data();
      for (const std::int32_t i : list)
        for (std::size_t c = 0; c < nc; ++c, o += sizeof(T)) {
          auto& v = src[static_cast<std::size_t>(i) * nc + c];
          std::memcpy(o, &v, sizeof(T));
          if constexpr (!std::is_const_v<T>) v = T{};
        }
      bytes += out.size();
      // Flow start stamped before the post: the mailbox delivers
      // instantly, so stamping after could land later than the peer's "f".
      obs::flow_emit(static_cast<int>(r), channel, true);
      comm.send_bytes(static_cast<int>(r), tag, out);
    }
    obs::counter_add(obs::wellknown::ghost_exchange_bytes(), bytes);
    obs::overlap_mark_start();
  }

  // Receive rank r's message for idx[r] in ascending r and store (or add)
  // it into `dst`.
  template <typename T, bool kAdd>
  void complete(Comm& comm, const IndexLists& idx, std::span<T> dst,
                int ncomp, int tag, int channel) const {
    obs::overlap_mark_finish_begin();
    const std::size_t nc = static_cast<std::size_t>(ncomp);
    for (std::size_t r = 0; r < idx.size(); ++r) {
      const auto& list = idx[r];
      if (list.empty()) continue;
      const std::vector<T> in = comm.recv<T>(static_cast<int>(r), tag);
      obs::flow_emit(static_cast<int>(r), channel, false);
      if (in.size() != list.size() * nc)
        throw std::runtime_error("par::HaloPlan: message size mismatch");
      for (std::size_t k = 0; k < list.size(); ++k)
        for (std::size_t c = 0; c < nc; ++c) {
          T& v = dst[static_cast<std::size_t>(list[k]) * nc + c];
          if constexpr (kAdd)
            v += in[k * nc + c];
          else
            v = in[k * nc + c];
        }
    }
    obs::overlap_mark_finish_end();
  }

  // Mutable because halo operations run inside logically-const hot paths;
  // each rank owns its plans, so there is no cross-thread access.
  mutable std::vector<std::vector<std::byte>> out_;  // per-rank packing
  mutable Op inflight_ = Op::kNone;
  mutable int inflight_ncomp_ = 0;
};

}  // namespace alps::par
