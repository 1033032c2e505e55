#include "la/dist_csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace alps::la {

namespace {

struct RowEntry {
  std::int64_t col = 0;
  double val = 0.0;
};

}  // namespace

std::vector<std::int64_t> DistCsr::uniform_offsets(int nranks, std::int64_t n) {
  std::vector<std::int64_t> off(static_cast<std::size_t>(nranks) + 1, 0);
  for (int r = 0; r < nranks; ++r)
    off[static_cast<std::size_t>(r) + 1] =
        off[static_cast<std::size_t>(r)] +
        n / nranks + (r < n % nranks ? 1 : 0);
  return off;
}

DistCsr DistCsr::from_triplets(par::Comm& comm,
                               std::vector<std::int64_t> row_offsets,
                               std::vector<std::int64_t> col_offsets,
                               std::vector<Triplet> triplets) {
  const int p = comm.size();
  if (row_offsets.size() != static_cast<std::size_t>(p) + 1 ||
      col_offsets.size() != static_cast<std::size_t>(p) + 1)
    throw std::invalid_argument("DistCsr::from_triplets: offsets must be P+1");

  // Route every triplet to the owner of its row. Every buffer below is
  // sized by a count pass first: these are the largest arrays of an AMG
  // assembly, and growing them by doubling would leave the heap peak to
  // the allocator.
  std::vector<std::size_t> count(static_cast<std::size_t>(p), 0);
  for (const Triplet& t : triplets)
    ++count[static_cast<std::size_t>(owner_of(row_offsets, t.row))];
  std::vector<std::vector<Triplet>> outbox(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    outbox[static_cast<std::size_t>(r)].reserve(count[static_cast<std::size_t>(r)]);
  for (const Triplet& t : triplets)
    outbox[static_cast<std::size_t>(owner_of(row_offsets, t.row))].push_back(t);
  triplets.clear();
  triplets.shrink_to_fit();
  std::vector<std::vector<Triplet>> inbox = comm.alltoallv(outbox);
  outbox.clear();

  DistCsr m;
  m.row_offsets_ = std::move(row_offsets);
  m.col_offsets_ = std::move(col_offsets);
  const std::size_t me = static_cast<std::size_t>(comm.rank());
  m.row_lo_ = m.row_offsets_[me];
  m.row_hi_ = m.row_offsets_[me + 1];
  m.col_lo_ = m.col_offsets_[me];
  m.col_hi_ = m.col_offsets_[me + 1];

  // Split owned rows into the owned-column and ghost-column blocks.
  std::size_t n_diag = 0, n_offd = 0;
  for (const auto& batch : inbox)
    for (const Triplet& t : batch) {
      if (t.row < m.row_lo_ || t.row >= m.row_hi_)
        throw std::out_of_range("DistCsr::from_triplets: misrouted row");
      if (t.col >= m.col_lo_ && t.col < m.col_hi_)
        ++n_diag;
      else
        ++n_offd;
    }
  std::vector<Triplet> diag_t, offd_t;
  std::vector<std::int64_t> ghosts;
  diag_t.reserve(n_diag);
  offd_t.reserve(n_offd);
  ghosts.reserve(n_offd);
  for (const auto& batch : inbox)
    for (const Triplet& t : batch) {
      if (t.col >= m.col_lo_ && t.col < m.col_hi_)
        diag_t.push_back(Triplet{t.row - m.row_lo_, t.col - m.col_lo_, t.val});
      else
        ghosts.push_back(t.col);
    }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  for (const auto& batch : inbox)
    for (const Triplet& t : batch) {
      if (t.col >= m.col_lo_ && t.col < m.col_hi_) continue;
      const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), t.col);
      offd_t.push_back(Triplet{
          t.row - m.row_lo_,
          static_cast<std::int64_t>(it - ghosts.begin()), t.val});
    }
  inbox.clear();

  m.ghost_gids_ = std::move(ghosts);
  m.diag_ = Csr::from_triplets(m.owned_rows(), m.owned_cols(), std::move(diag_t));
  m.offd_ = Csr::from_triplets(m.owned_rows(),
                               static_cast<std::int64_t>(m.ghost_gids_.size()),
                               std::move(offd_t));
  m.plan_ = par::HaloPlan::from_ghost_gids(comm, m.ghost_gids_, m.col_offsets_);
  return m;
}

void DistCsr::matvec(par::Comm& comm, std::span<const double> x,
                     std::span<double> y) const {
  OBS_SPAN("la.matvec");
  // Post the halo sends, overlap with the owned-column block, then fold
  // in the ghost block once the neighbor values have arrived.
  plan_.forward_begin(comm, x);
  diag_.matvec(x, y);
  ghost_vals_.resize(ghost_gids_.size());
  plan_.forward_finish<double>(comm, ghost_vals_);
  const auto& rp = offd_.rowptr();
  const auto& ci = offd_.colidx();
  const auto& v = offd_.values();
  for (std::int64_t r = 0; r < offd_.rows(); ++r) {
    double s = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k)
      s += v[static_cast<std::size_t>(k)] *
           ghost_vals_[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] += s;
  }
}

void DistCsr::matvec_transpose(par::Comm& comm, std::span<const double> x,
                               std::span<double> y) const {
  OBS_SPAN("la.matvec_transpose");
  std::fill(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(owned_cols()),
            0.0);
  ghost_acc_.assign(ghost_gids_.size(), 0.0);
  for (std::int64_t r = 0; r < diag_.rows(); ++r) {
    const double xv = x[static_cast<std::size_t>(r)];
    const auto& rp = diag_.rowptr();
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k)
      y[static_cast<std::size_t>(diag_.colidx()[static_cast<std::size_t>(k)])] +=
          diag_.values()[static_cast<std::size_t>(k)] * xv;
    const auto& rpo = offd_.rowptr();
    for (std::int64_t k = rpo[static_cast<std::size_t>(r)];
         k < rpo[static_cast<std::size_t>(r) + 1]; ++k)
      ghost_acc_[static_cast<std::size_t>(
          offd_.colidx()[static_cast<std::size_t>(k)])] +=
          offd_.values()[static_cast<std::size_t>(k)] * xv;
  }
  plan_.reverse<double>(comm, ghost_acc_, y);
}

void DistCsr::fetch_rows(par::Comm& comm,
                         std::span<const std::int64_t> gids,
                         std::vector<std::int64_t>& rowptr,
                         std::vector<std::int64_t>& col_gids,
                         std::vector<double>& vals) const {
  const int p = comm.size();
  std::vector<std::vector<std::int64_t>> req(static_cast<std::size_t>(p));
  // (owner, position within that owner's reply) per requested gid.
  std::vector<std::pair<int, std::size_t>> where(gids.size());
  for (std::size_t i = 0; i < gids.size(); ++i) {
    const int owner = owner_of(row_offsets_, gids[i]);
    where[i] = {owner, req[static_cast<std::size_t>(owner)].size()};
    req[static_cast<std::size_t>(owner)].push_back(gids[i]);
  }
  const std::vector<std::vector<std::int64_t>> asked = comm.alltoallv(req);

  // Serve: per requester, row lengths then the packed entries.
  std::vector<std::vector<std::int64_t>> len_out(static_cast<std::size_t>(p));
  std::vector<std::vector<RowEntry>> ent_out(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    for (std::int64_t gid : asked[static_cast<std::size_t>(r)]) {
      if (gid < row_lo_ || gid >= row_hi_)
        throw std::out_of_range("DistCsr::fetch_rows: misrouted request");
      const std::size_t lr = static_cast<std::size_t>(gid - row_lo_);
      std::int64_t n = 0;
      for (std::int64_t k = diag_.rowptr()[lr]; k < diag_.rowptr()[lr + 1]; ++k) {
        ent_out[static_cast<std::size_t>(r)].push_back(RowEntry{
            col_lo_ + diag_.colidx()[static_cast<std::size_t>(k)],
            diag_.values()[static_cast<std::size_t>(k)]});
        ++n;
      }
      for (std::int64_t k = offd_.rowptr()[lr]; k < offd_.rowptr()[lr + 1]; ++k) {
        ent_out[static_cast<std::size_t>(r)].push_back(RowEntry{
            ghost_gids_[static_cast<std::size_t>(
                offd_.colidx()[static_cast<std::size_t>(k)])],
            offd_.values()[static_cast<std::size_t>(k)]});
        ++n;
      }
      len_out[static_cast<std::size_t>(r)].push_back(n);
    }
  const std::vector<std::vector<std::int64_t>> len_in = comm.alltoallv(len_out);
  const std::vector<std::vector<RowEntry>> ent_in = comm.alltoallv(ent_out);

  // Reassemble in the caller's gid order.
  rowptr.assign(gids.size() + 1, 0);
  for (std::size_t i = 0; i < gids.size(); ++i)
    rowptr[i + 1] = len_in[static_cast<std::size_t>(where[i].first)][where[i].second];
  for (std::size_t i = 0; i < gids.size(); ++i) rowptr[i + 1] += rowptr[i];
  // Entry offset of each reply row within its owner's packed entries.
  std::vector<std::vector<std::int64_t>> ent_off(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& lens = len_in[static_cast<std::size_t>(r)];
    auto& off = ent_off[static_cast<std::size_t>(r)];
    off.assign(lens.size() + 1, 0);
    for (std::size_t i = 0; i < lens.size(); ++i) off[i + 1] = off[i] + lens[i];
  }
  col_gids.assign(static_cast<std::size_t>(rowptr.back()), 0);
  vals.assign(static_cast<std::size_t>(rowptr.back()), 0.0);
  for (std::size_t i = 0; i < gids.size(); ++i) {
    const auto [owner, pos] = where[i];
    const auto& ents = ent_in[static_cast<std::size_t>(owner)];
    const std::int64_t src = ent_off[static_cast<std::size_t>(owner)][pos];
    const std::int64_t n = rowptr[i + 1] - rowptr[i];
    for (std::int64_t k = 0; k < n; ++k) {
      col_gids[static_cast<std::size_t>(rowptr[i] + k)] =
          ents[static_cast<std::size_t>(src + k)].col;
      vals[static_cast<std::size_t>(rowptr[i] + k)] =
          ents[static_cast<std::size_t>(src + k)].val;
    }
  }
}

Csr DistCsr::replicate(par::Comm& comm) const {
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(local_nnz()));
  for (std::int64_t r = 0; r < diag_.rows(); ++r) {
    for (std::int64_t k = diag_.rowptr()[static_cast<std::size_t>(r)];
         k < diag_.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      t.push_back(Triplet{
          row_lo_ + r,
          col_lo_ + diag_.colidx()[static_cast<std::size_t>(k)],
          diag_.values()[static_cast<std::size_t>(k)]});
    for (std::int64_t k = offd_.rowptr()[static_cast<std::size_t>(r)];
         k < offd_.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      t.push_back(Triplet{
          row_lo_ + r,
          ghost_gids_[static_cast<std::size_t>(
              offd_.colidx()[static_cast<std::size_t>(k)])],
          offd_.values()[static_cast<std::size_t>(k)]});
  }
  std::vector<Triplet> all = comm.allgatherv(t);
  return Csr::from_triplets(global_rows(), global_cols(), std::move(all));
}

}  // namespace alps::la
