#pragma once
// Distributed owned-row sparse matrices (paper Sec. III): every rank
// stores only the rows of the global ids it owns, split into a local
// block (columns owned by this rank) and a ghost block (columns owned
// elsewhere, compressed to a sorted ghost-gid list). A ghost-exchange
// plan — which owned entries each neighbor needs, which ghost slots each
// neighbor fills — is computed once from the column gids and reused by
// every matvec, so the per-application cost is O(N_local + ghosts), not
// O(N_global). This is the owned-row/ghost-column layout of hypre's
// ParCSR and p4est-based FEM stacks, and it is what lets the AMG
// preconditioner weak-scale.

#include <cstdint>
#include <span>
#include <vector>

#include "la/csr.hpp"
#include "par/comm.hpp"

namespace alps::la {

/// Returns the rank owning global id `gid` under the partition `offsets`
/// (size P+1, offsets[r] .. offsets[r+1] owned by rank r).
inline int owner_of(std::span<const std::int64_t> offsets, std::int64_t gid) {
  auto it = std::upper_bound(offsets.begin(), offsets.end() - 1, gid);
  return static_cast<int>(it - offsets.begin()) - 1;
}

/// Point-to-point halo-exchange plan between owned vector entries and the
/// ghost slots that reference them on other ranks. Built once per matrix;
/// each exchange is pure p2p (no collectives), so its cost scales with the
/// partition surface, not the problem size.
class GhostExchange {
 public:
  GhostExchange() = default;

  /// `ghost_gids`: sorted unique global ids needed locally but owned by
  /// other ranks; `offsets`: ownership ranges (size P+1). Collective.
  GhostExchange(par::Comm& comm, std::span<const std::int64_t> ghost_gids,
                std::span<const std::int64_t> offsets);

  std::size_t num_ghosts() const { return num_ghosts_; }

  /// Post the owned-value sends to every neighbor. Non-blocking in the
  /// in-process runtime (messages are buffered), so callers can overlap
  /// local compute between begin and finish.
  template <typename T>
  void forward_begin(par::Comm& comm, std::span<const T> owned) const {
    const int p = comm.size();
    std::vector<T> buf;
    std::uint64_t bytes = 0;
    for (int r = 0; r < p; ++r) {
      const auto& idx = send_idx_[static_cast<std::size_t>(r)];
      if (idx.empty()) continue;
      buf.clear();
      buf.reserve(idx.size());
      for (std::int32_t i : idx) buf.push_back(owned[static_cast<std::size_t>(i)]);
      bytes += idx.size() * sizeof(T);
      // Flow start stamped before the post (delivery is instantaneous).
      obs::flow_emit(r, obs::kFlowGhostForward, true);
      comm.send(r, kForwardTag, buf);
    }
    obs::counter_add(obs::wellknown::ghost_exchange_bytes(), bytes);
    obs::overlap_mark_start();
  }

  /// Receive the neighbors' owned values into the local ghost slots.
  template <typename T>
  void forward_finish(par::Comm& comm, std::span<T> ghosts) const {
    obs::overlap_mark_finish_begin();
    const int p = comm.size();
    for (int r = 0; r < p; ++r) {
      const auto& idx = recv_idx_[static_cast<std::size_t>(r)];
      if (idx.empty()) continue;
      const std::vector<T> buf = comm.recv<T>(r, kForwardTag);
      obs::flow_emit(r, obs::kFlowGhostForward, false);
      for (std::size_t i = 0; i < idx.size(); ++i)
        ghosts[static_cast<std::size_t>(idx[i])] = buf[i];
    }
    obs::overlap_mark_finish_end();
  }

  /// Fill `ghosts` (num_ghosts entries) with the owners' `owned` values.
  /// Collective over the plan's neighbors.
  template <typename T>
  void forward(par::Comm& comm, std::span<const T> owned,
               std::span<T> ghosts) const {
    forward_begin(comm, owned);
    forward_finish(comm, ghosts);
  }

  /// Add the local ghost-slot contributions into the owners' `owned`
  /// entries (the adjoint of forward; used by transpose matvecs).
  template <typename T>
  void reverse_add(par::Comm& comm, std::span<const T> ghosts,
                   std::span<T> owned) const {
    const int p = comm.size();
    std::vector<T> buf;
    std::uint64_t bytes = 0;
    for (int r = 0; r < p; ++r) {
      const auto& idx = recv_idx_[static_cast<std::size_t>(r)];
      if (idx.empty()) continue;
      buf.clear();
      buf.reserve(idx.size());
      for (std::int32_t i : idx) buf.push_back(ghosts[static_cast<std::size_t>(i)]);
      bytes += idx.size() * sizeof(T);
      obs::flow_emit(r, obs::kFlowGhostReverse, true);
      comm.send(r, kReverseTag, buf);
    }
    obs::counter_add(obs::wellknown::ghost_exchange_bytes(), bytes);
    for (int r = 0; r < p; ++r) {
      const auto& idx = send_idx_[static_cast<std::size_t>(r)];
      if (idx.empty()) continue;
      const std::vector<T> buf_in = comm.recv<T>(r, kReverseTag);
      obs::flow_emit(r, obs::kFlowGhostReverse, false);
      for (std::size_t i = 0; i < idx.size(); ++i)
        owned[static_cast<std::size_t>(idx[i])] += buf_in[i];
    }
  }

  const std::vector<std::vector<std::int32_t>>& send_idx() const {
    return send_idx_;
  }
  const std::vector<std::vector<std::int32_t>>& recv_idx() const {
    return recv_idx_;
  }

  /// Heap bytes of the plan's index tables (capacity-based).
  std::uint64_t memory_bytes() const {
    std::uint64_t b = obs::vec_bytes(send_idx_) + obs::vec_bytes(recv_idx_);
    for (const auto& v : send_idx_) b += obs::vec_bytes(v);
    for (const auto& v : recv_idx_) b += obs::vec_bytes(v);
    return b;
  }

 private:
  static constexpr int kForwardTag = 0x6700;
  static constexpr int kReverseTag = 0x6701;

  // One slot per rank; empty for non-neighbors. send_idx_[r]: owned local
  // indices rank r ghosts; recv_idx_[r]: local ghost slots rank r fills.
  std::vector<std::vector<std::int32_t>> send_idx_, recv_idx_;
  std::size_t num_ghosts_ = 0;
};

/// Owned-row distributed CSR: rows [row_offsets[r], row_offsets[r+1])
/// live on rank r, columns are split into the owned block `diag` (local
/// column index = gid - col_begin) and the ghost block `offd` (local
/// column index into the sorted `ghost_gids` list).
class DistCsr {
 public:
  DistCsr() = default;

  /// Build from triplets with *global* row/col ids; rows owned by other
  /// ranks are routed to their owners (one alltoallv), duplicates are
  /// summed. `row_offsets`/`col_offsets` are the ownership partitions
  /// (size P+1, identical on every rank). Collective.
  static DistCsr from_triplets(par::Comm& comm,
                               std::vector<std::int64_t> row_offsets,
                               std::vector<std::int64_t> col_offsets,
                               std::vector<Triplet> triplets);

  /// Partition [0, n) into P near-equal contiguous ranges.
  static std::vector<std::int64_t> uniform_offsets(int nranks, std::int64_t n);

  std::int64_t global_rows() const { return row_offsets_.empty() ? 0 : row_offsets_.back(); }
  std::int64_t global_cols() const { return col_offsets_.empty() ? 0 : col_offsets_.back(); }
  std::int64_t row_begin() const { return row_lo_; }
  std::int64_t row_end() const { return row_hi_; }
  std::int64_t col_begin() const { return col_lo_; }
  std::int64_t col_end() const { return col_hi_; }
  std::int64_t owned_rows() const { return row_hi_ - row_lo_; }
  std::int64_t owned_cols() const { return col_hi_ - col_lo_; }
  std::int64_t local_nnz() const { return diag_.nnz() + offd_.nnz(); }

  const std::vector<std::int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::int64_t>& col_offsets() const { return col_offsets_; }
  const Csr& diag() const { return diag_; }
  const Csr& offd() const { return offd_; }
  /// Mutable value arrays (pattern-preserving numeric updates only, e.g.
  /// the cached Galerkin refresh of the AMG hierarchy).
  std::vector<double>& diag_values() { return diag_.values(); }
  std::vector<double>& offd_values() { return offd_.values(); }
  const std::vector<std::int64_t>& ghost_gids() const { return ghost_gids_; }
  const GhostExchange& plan() const { return plan_; }

  /// y = A x over owned entries (x: owned_cols, y: owned_rows). Posts the
  /// ghost sends, computes the owned-column block while they are in
  /// flight, then folds in the ghost block. Allocation-free after the
  /// first call. Collective.
  void matvec(par::Comm& comm, std::span<const double> x,
              std::span<double> y) const;

  /// y = A^T x (x: owned_rows, y: owned_cols): local transpose products,
  /// then reverse-accumulation of the ghost-column contributions to their
  /// owners. Collective.
  void matvec_transpose(par::Comm& comm, std::span<const double> x,
                        std::span<double> y) const;

  /// Fetch complete remote rows (columns as global ids) for the given
  /// remotely-owned row gids, in order. Used by the distributed Galerkin
  /// product to pull the interpolation rows of ghost points. Collective.
  void fetch_rows(par::Comm& comm, std::span<const std::int64_t> gids,
                  std::vector<std::int64_t>& rowptr,
                  std::vector<std::int64_t>& col_gids,
                  std::vector<double>& vals) const;

  /// Gather the full matrix on every rank. Only for the tiny replicated
  /// coarsest AMG level and test/bench reference paths — never on the
  /// per-iteration solve path. Collective.
  Csr replicate(par::Comm& comm) const;

  /// This rank's heap bytes: partition tables, diag/offd blocks, ghost
  /// gid list, exchange plan, and the persistent matvec ghost buffers.
  std::uint64_t memory_bytes() const {
    return obs::vec_bytes(row_offsets_) + obs::vec_bytes(col_offsets_) +
           diag_.memory_bytes() + offd_.memory_bytes() +
           obs::vec_bytes(ghost_gids_) + plan_.memory_bytes() +
           obs::vec_bytes(ghost_vals_) + obs::vec_bytes(ghost_acc_);
  }

 private:
  std::vector<std::int64_t> row_offsets_, col_offsets_;
  std::int64_t row_lo_ = 0, row_hi_ = 0, col_lo_ = 0, col_hi_ = 0;
  Csr diag_;   // owned rows x owned cols
  Csr offd_;   // owned rows x ghost cols
  std::vector<std::int64_t> ghost_gids_;  // sorted, unique
  GhostExchange plan_;
  // Matvec workspaces (mutable: matvec is logically const).
  mutable std::vector<double> ghost_vals_, ghost_acc_;
};

}  // namespace alps::la
