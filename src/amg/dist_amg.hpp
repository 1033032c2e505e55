#pragma once
// Distributed algebraic multigrid on owned-row matrices (paper Sec. III,
// the BoomerAMG role). Setup and solve are both O(N_local) per rank:
//
//  - strength of connection and C/F splitting run on each rank's owned
//    subgraph (hypre-style per-processor classical coarsening, identical
//    to the replicated hierarchy at P = 1),
//  - direct interpolation may pull from ghost C points, whose coarse ids
//    arrive through the matrix's ghost-exchange plan; strong-neighbor
//    membership is tested through epoch-stamped marks (O(1) per entry),
//  - the Galerkin product A_c = P^T A P is a two-pass sparse triple
//    product: a symbolic pass computes the coarse pattern and a reusable
//    RapPlan (per-row scatter lists, P^T transposes, off-owner routing),
//    and a numeric pass writes values into the preallocated coarse CSR
//    with one value-only alltoallv per level — linear in nnz,
//  - because C/F split, P, and the RAP pattern depend only on the mesh,
//    refresh_numeric() re-runs just the numeric passes when the operator
//    values change (viscosity updates between Picard iterations and
//    non-adapting timesteps), skipping the entire symbolic setup,
//  - smoothing is hybrid Gauss-Seidel (Gauss-Seidel on the owned-column
//    block, Jacobi on frozen ghosts),
//  - only the coarsest level (<= kCoarseSize unknowns) is replicated for
//    the dense LU solve; its per-cycle gather is O(kCoarseSize).

#include <memory>
#include <vector>

#include "amg/amg.hpp"
#include "la/dist_csr.hpp"

namespace alps::amg {

class DistAmg {
 public:
  /// Setup phase; collective. Runs the replicated Amg's configuration
  /// (the constants in amg/amg.hpp).
  DistAmg(par::Comm& comm, la::DistCsr a);

  /// Pattern-preserving numeric rebuild: replace the finest operator with
  /// `a` (same sparsity structure as the setup matrix) and recompute the
  /// coarse operators through the cached RAP plans — C/F split, P, and
  /// every symbolic structure are reused. One value-only alltoallv per
  /// level. Collective.
  void refresh_numeric(par::Comm& comm, la::DistCsr a);

  /// One V-cycle on A x = b over *owned* entries (b, x: owned_rows of the
  /// finest matrix). Collective.
  void vcycle(par::Comm& comm, std::span<const double> b,
              std::span<double> x) const;

  int num_levels() const { return static_cast<int>(stats_.size()); }
  const std::vector<LevelStats>& level_stats() const { return stats_; }
  /// Distributed operator of grid level `lvl` (0 = finest; the last one,
  /// lvl == num_grid_levels()-1, is the distributed coarsest matrix).
  const la::DistCsr& matrix(int lvl) const;
  /// Prolongation from grid level `lvl`+1 to `lvl`.
  const la::DistCsr& prolongation(int lvl) const {
    return levels_[static_cast<std::size_t>(lvl)].p;
  }
  int num_grid_levels() const { return static_cast<int>(levels_.size()) + 1; }
  /// This rank's matrix storage across all levels (diag + offd blocks,
  /// plus the replicated coarsest level).
  std::int64_t local_nnz() const;
  double operator_complexity() const;
  const la::DistCsr& finest() const { return levels_.empty() ? coarse_dist_ : levels_.front().a; }

  /// This rank's heap bytes split by what the hierarchy stores them for
  /// (reported into the "amg.*" memory scopes; see obs/mem.hpp).
  struct MemoryBytes {
    std::uint64_t operators = 0;      // per-level A (diag+offd+plans)
    std::uint64_t interpolation = 0;  // per-level P
    std::uint64_t rap = 0;            // cached RAP scatter tables
    std::uint64_t coarse = 0;         // replicated coarsest + LU factors
    std::uint64_t scratch = 0;        // cycle and RAP workspaces
    std::uint64_t total() const {
      return operators + interpolation + rap + coarse + scratch;
    }
  };
  MemoryBytes memory_bytes() const;

 private:
  /// Cached structure of one level's Galerkin product A_c = P^T A P. The
  /// symbolic pass fills it once; the numeric pass replays it whenever
  /// the operator values change. All P data (owned and fetched ghost
  /// rows) is frozen here because interpolation survives value updates.
  struct RapPlan {
    // Compact coarse-column space: sorted global coarse gids reachable
    // from this rank's rows of A P; all scatter work uses these indices.
    std::vector<std::int64_t> ccol_gids;
    // P rows over compact columns: owned fine rows, then the fetched
    // rows of ghost fine points (static, fetched once at setup).
    std::vector<std::int64_t> prow_ptr, gprow_ptr;
    std::vector<std::int32_t> prow_col, gprow_col;
    std::vector<double> prow_val, gprow_val;
    // Pattern of A P per owned fine row (compact columns).
    std::vector<std::int64_t> ap_ptr;
    std::vector<std::int32_t> ap_col;
    // P^T: (fine row, weight) lists per owned coarse row (pt) and per
    // ghost coarse column, whose coarse row lives on another rank (gpt).
    std::vector<std::int64_t> pt_ptr, gpt_ptr;
    std::vector<std::int32_t> pt_row, gpt_row;
    std::vector<double> pt_w, gpt_w;
    // Output patterns in the exact order of the numeric pass. Local rows
    // write through encoded positions into the coarse matrix (pos >= 0:
    // diag value index; pos < 0: offd index -pos-1); remote rows are
    // packed per destination rank and routed with one alltoallv.
    std::vector<std::int64_t> lr_ptr;
    std::vector<std::int32_t> lr_ccol;
    std::vector<std::int64_t> lr_pos;
    std::vector<std::int64_t> rc_ptr;
    std::vector<std::int32_t> rc_ccol;
    std::vector<int> rc_dest;  // owner rank per ghost coarse column
    // Encoded positions for each incoming value, per source rank, in the
    // sender's packing order.
    std::vector<std::vector<std::int64_t>> recv_pos;
    // Numeric workspaces (values of A P; dense scatter accumulator).
    std::vector<double> ap_val, acc;
  };

  struct Level {
    la::DistCsr a;
    la::DistCsr p;  // prolongation to this level from the next-coarser one
    RapPlan rap;    // produces the next-coarser operator
    // Scratch (mutable via the enclosing const methods).
    mutable std::vector<double> res, bc, xc, ghost;
  };

  /// Symbolic + first numeric pass: builds `plan` and the coarse operator
  /// for one level. Collective.
  void build_rap(par::Comm& comm, const la::DistCsr& a, const la::DistCsr& p,
                 const std::vector<std::int64_t>& coarse_offsets,
                 RapPlan& plan, la::DistCsr& ac) const;
  /// Numeric pass only: recompute the values of `ac` from the current
  /// values of `a` through `plan`. Collective.
  void rap_numeric(par::Comm& comm, const la::DistCsr& a, RapPlan& plan,
                   la::DistCsr& ac) const;
  /// Replicate the coarsest operator and refactor the dense LU.
  void finalize_values(par::Comm& comm);

  void cycle(par::Comm& comm, std::size_t lvl, std::span<const double> b,
             std::span<double> x) const;
  void hybrid_gauss_seidel(par::Comm& comm, const Level& L,
                           std::span<const double> b, std::span<double> x,
                           bool forward) const;

  std::vector<Level> levels_;
  la::DistCsr coarse_dist_;           // distributed coarsest operator
  la::Csr coarse_a_;                  // replicated copy for DenseLu
  std::unique_ptr<la::DenseLu> coarse_;
  std::vector<LevelStats> stats_;     // global n / nnz per level
  std::vector<std::int64_t> local_nnz_per_level_;
  mutable std::vector<double> coarse_b_, coarse_x_;  // replicated scratch
};

inline DistAmg::MemoryBytes DistAmg::memory_bytes() const {
  MemoryBytes m;
  using obs::vec_bytes;
  for (const Level& L : levels_) {
    m.operators += L.a.memory_bytes();
    m.interpolation += L.p.memory_bytes();
    const RapPlan& r = L.rap;
    m.rap += vec_bytes(r.ccol_gids) + vec_bytes(r.prow_ptr) +
             vec_bytes(r.gprow_ptr) + vec_bytes(r.prow_col) +
             vec_bytes(r.gprow_col) + vec_bytes(r.prow_val) +
             vec_bytes(r.gprow_val) + vec_bytes(r.ap_ptr) +
             vec_bytes(r.ap_col) + vec_bytes(r.pt_ptr) +
             vec_bytes(r.gpt_ptr) + vec_bytes(r.pt_row) +
             vec_bytes(r.gpt_row) + vec_bytes(r.pt_w) + vec_bytes(r.gpt_w) +
             vec_bytes(r.lr_ptr) + vec_bytes(r.lr_ccol) +
             vec_bytes(r.lr_pos) + vec_bytes(r.rc_ptr) +
             vec_bytes(r.rc_ccol) + vec_bytes(r.rc_dest) +
             vec_bytes(r.recv_pos);
    for (const auto& v : r.recv_pos) m.rap += vec_bytes(v);
    m.scratch += vec_bytes(r.ap_val) + vec_bytes(r.acc) + vec_bytes(L.res) +
                 vec_bytes(L.bc) + vec_bytes(L.xc) + vec_bytes(L.ghost);
  }
  m.operators += coarse_dist_.memory_bytes();
  m.coarse += coarse_a_.memory_bytes();
  if (coarse_) m.coarse += coarse_->memory_bytes();
  m.scratch += vec_bytes(coarse_b_) + vec_bytes(coarse_x_);
  return m;
}

}  // namespace alps::amg
