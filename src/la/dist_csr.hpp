#pragma once
// Distributed owned-row sparse matrices (paper Sec. III): every rank
// stores only the rows of the global ids it owns, split into a local
// block (columns owned by this rank) and a ghost block (columns owned
// elsewhere, compressed to a sorted ghost-gid list). A halo plan
// (par::HaloPlan: which owned entries each neighbor needs, which ghost
// slots each neighbor fills) is computed once from the column gids and
// reused by every matvec, so the per-application cost is
// O(N_local + ghosts), not O(N_global). This is the owned-row/ghost-column
// layout of hypre's ParCSR and p4est-based FEM stacks, and it is what lets
// the AMG preconditioner weak-scale.

#include <cstdint>
#include <span>
#include <vector>

#include "la/csr.hpp"
#include "par/halo.hpp"

namespace alps::la {

using par::owner_of;

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
  /// Halo plan of the ghost columns: ghost slot i is ghost_gids()[i].
  const par::HaloPlan& plan() const { return plan_; }

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
  par::HaloPlan plan_;
  // Matvec workspaces (mutable: matvec is logically const).
  mutable std::vector<double> ghost_vals_, ghost_acc_;
};

}  // namespace alps::la
