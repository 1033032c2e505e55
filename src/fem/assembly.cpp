#include "fem/assembly.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace alps::fem {

// ---- scalar reference path ----------------------------------------------

void ElementOperator::gather_element(std::size_t e, std::span<const double> x,
                                     std::span<double> xe) const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (int i = 0; i < 8; ++i) {
    const mesh::Corner& cc = mesh_->corners[e][static_cast<std::size_t>(i)];
    for (std::size_t c = 0; c < nc; ++c) {
      double v = 0.0;
      for (int k = 0; k < cc.n; ++k)
        v += cc.w[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * nc + c];
      xe[static_cast<std::size_t>(i) * nc + c] = v;
    }
  }
}

void ElementOperator::scatter_element(std::size_t e, std::span<const double> ye,
                                      std::span<double> y) const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (int i = 0; i < 8; ++i) {
    const mesh::Corner& cc = mesh_->corners[e][static_cast<std::size_t>(i)];
    for (std::size_t c = 0; c < nc; ++c) {
      const double v = ye[static_cast<std::size_t>(i) * nc + c];
      for (int k = 0; k < cc.n; ++k)
        y[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * nc + c] +=
            cc.w[static_cast<std::size_t>(k)] * v;
    }
  }
}

void ElementOperator::apply_raw_scalar(par::Comm& comm,
                                       std::span<const double> x,
                                       std::span<double> y) const {
  const std::size_t bs = block_size();
  std::fill(y.begin(), y.end(), 0.0);
  work_xe_.resize(bs);
  work_ye_.resize(bs);
  std::span<double> xe(work_xe_.data(), bs), ye(work_ye_.data(), bs);
  for (std::size_t e = 0; e < mesh_->elements.size(); ++e) {
    gather_element(e, x, xe);
    const std::span<const double> m = element_matrix(e);
    for (std::size_t i = 0; i < bs; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < bs; ++j) s += m[i * bs + j] * xe[j];
      ye[i] = s;
    }
    scatter_element(e, ye, y);
  }
  mesh_->accumulate(comm, y, ncomp_);
  mesh_->exchange(comm, y, ncomp_);
}

void ElementOperator::apply_scalar(par::Comm& comm, std::span<const double> x,
                                   std::span<double> y) const {
  // Zero constrained inputs, apply, then restore identity on them. The
  // masked copy lives in a reused member workspace.
  work_x_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    work_x_[i] = dirichlet_[i] ? 0.0 : x[i];
  apply_raw_scalar(comm, work_x_, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    if (dirichlet_[i]) y[i] = x[i];
}

// ---- lane-batched SoA plan ----------------------------------------------

namespace {

/// Gather + lane-interleaved matvec + scatter for ONE batch of kLanes
/// elements. bs = 8*nc, ns = max constraint fan-in of the batch.
ALPS_APPLY_CLONES
void batch_kernel(std::size_t bs, std::size_t nc, std::size_t ns,
                  const double* __restrict A, const std::int32_t* __restrict gb,
                  const double* __restrict w, const double* __restrict x,
                  double* __restrict xe, double* __restrict ye,
                  double* __restrict y) {
  constexpr std::size_t L = fem::ElementOperator::kLanes;
  gather_batch(nc, ns, gb, w, x, xe);

  // Lane-interleaved dense matvec: the l-loops are independent element
  // columns, so they vectorize without FP reassociation; four j-chains
  // give the FMA units independent accumulators to hide latency.
  for (std::size_t i = 0; i < bs; ++i) {
    const double* row = A + i * bs * L;
    double a0[L] = {0.0, 0.0, 0.0, 0.0}, a1[L] = {0.0, 0.0, 0.0, 0.0};
    double a2[L] = {0.0, 0.0, 0.0, 0.0}, a3[L] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < bs; j += 4) {
      for (std::size_t l = 0; l < L; ++l)
        a0[l] += row[j * L + l] * xe[j * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a1[l] += row[(j + 1) * L + l] * xe[(j + 1) * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a2[l] += row[(j + 2) * L + l] * xe[(j + 2) * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a3[l] += row[(j + 3) * L + l] * xe[(j + 3) * L + l];
    }
    for (std::size_t l = 0; l < L; ++l)
      ye[i * L + l] = (a0[l] + a1[l]) + (a2[l] + a3[l]);
  }

  scatter_batch(nc, ns, gb, w, ye, y);
}

/// Same as batch_kernel but A holds only the upper triangle (row-wise,
/// diagonal first): each loaded entry a_ij feeds both ye_i += a*xe_j and
/// ye_j += a*xe_i, halving the matrix traffic of the memory-bound matvec.
ALPS_APPLY_CLONES
void batch_kernel_sym(std::size_t bs, std::size_t nc, std::size_t ns,
                      const double* __restrict A,
                      const std::int32_t* __restrict gb,
                      const double* __restrict w, const double* __restrict x,
                      double* __restrict xe, double* __restrict ye,
                      double* __restrict y) {
  constexpr std::size_t L = fem::ElementOperator::kLanes;
  gather_batch(nc, ns, gb, w, x, xe);

  // ye accumulates below-diagonal contributions as the rows above stream
  // by, so it must start at zero.
  for (std::size_t i = 0; i < bs * L; ++i) ye[i] = 0.0;
  const double* arow = A;
  for (std::size_t i = 0; i < bs; ++i) {
    const std::size_t rowlen = bs - i;  // diagonal + strict upper
    double acc0[L] = {0.0, 0.0, 0.0, 0.0}, acc1[L] = {0.0, 0.0, 0.0, 0.0};
    double accd[L];
    for (std::size_t l = 0; l < L; ++l)
      accd[l] = arow[l] * xe[i * L + l];  // diagonal term
    std::size_t dj = 1;
    for (; dj + 1 < rowlen; dj += 2) {
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[dj * L + l];
        acc0[l] += a * xe[(i + dj) * L + l];
        ye[(i + dj) * L + l] += a * xe[i * L + l];
      }
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[(dj + 1) * L + l];
        acc1[l] += a * xe[(i + dj + 1) * L + l];
        ye[(i + dj + 1) * L + l] += a * xe[i * L + l];
      }
    }
    for (; dj < rowlen; ++dj)
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[dj * L + l];
        acc0[l] += a * xe[(i + dj) * L + l];
        ye[(i + dj) * L + l] += a * xe[i * L + l];
      }
    for (std::size_t l = 0; l < L; ++l)
      ye[i * L + l] += accd[l] + (acc0[l] + acc1[l]);
    arow += rowlen * L;
  }

  scatter_batch(nc, ns, gb, w, ye, y);
}

}  // namespace

void ElementOperator::ensure_plan() const {
  if (plan_dirty_) build_plan();
}

void ElementOperator::build_plan() const {
  const std::size_t bs = block_size();
  const std::size_t ne = mesh_->elements.size();
  constexpr std::size_t L = kLanes;
  gather_.build(*mesh_, ncomp_, dirichlet_);

  // Exact symmetry scan: one mismatch anywhere selects the full layout.
  bool symmetric = true;
  for (std::size_t e = 0; e < ne && symmetric; ++e) {
    const double* m = mats_.data() + e * bs * bs;
    for (std::size_t i = 0; i < bs && symmetric; ++i)
      for (std::size_t j = i + 1; j < bs; ++j)
        if (m[i * bs + j] != m[j * bs + i]) {
          symmetric = false;
          break;
        }
  }
  symmetric_ = symmetric;
  const std::size_t msize = symmetric ? bs * (bs + 1) / 2 : bs * bs;
  plan_mats_.assign(gather_.n_batches * msize * L, 0.0);
  for (std::size_t e = 0; e < ne; ++e) {
    const std::size_t lane = gather_.lane_in_batch(e);
    const double* m = mats_.data() + e * bs * bs;
    double* mb = plan_mats_.data() + gather_.batch_of(e) * msize * L;
    if (symmetric) {
      std::size_t t = 0;
      for (std::size_t i = 0; i < bs; ++i)
        for (std::size_t j = i; j < bs; ++j) mb[t++ * L + lane] = m[i * bs + j];
    } else {
      for (std::size_t ij = 0; ij < bs * bs; ++ij) mb[ij * L + lane] = m[ij];
    }
  }

  work_xe_.resize(bs * L);
  work_ye_.resize(bs * L);
  plan_dirty_ = false;
}

void ElementOperator::run_batches(std::size_t b0, std::size_t b1,
                                  const double* weights,
                                  std::span<const double> x,
                                  std::span<double> y) const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  const std::size_t bs = block_size();
  constexpr std::size_t L = kLanes;
  assert(bs % 4 == 0);
  double* xe = work_xe_.data();
  double* ye = work_ye_.data();
  const std::size_t msize = symmetric_ ? bs * (bs + 1) / 2 : bs * bs;
  for (std::size_t b = b0; b < b1; ++b) {
    const double* A = plan_mats_.data() + b * msize * L;
    const std::int32_t* gb = gather_.gbase.data() + b * 32 * L;
    const double* w = weights + b * 32 * nc * L;
    if (symmetric_)
      batch_kernel_sym(bs, nc, gather_.slots[b], A, gb, w, x.data(), xe, ye,
                       y.data());
    else
      batch_kernel(bs, nc, gather_.slots[b], A, gb, w, x.data(), xe, ye,
                   y.data());
  }
}

void ElementOperator::apply_batched(par::Comm& comm, const double* weights,
                                    std::span<const double> x,
                                    std::span<double> y) const {
  gather_.apply_overlapped(comm, *mesh_, y,
                           [&](std::size_t b0, std::size_t b1) {
                             run_batches(b0, b1, weights, x, y);
                           });
}

void ElementOperator::apply_raw(par::Comm& comm, std::span<const double> x,
                                std::span<double> y) const {
  ensure_plan();
  OBS_HIST_SPAN("fem.apply");
  apply_batched(comm, gather_.w_raw.data(), x, y);
  mesh_->exchange_start(comm, y, ncomp_);
  mesh_->exchange_finish(comm, y, ncomp_);
}

void ElementOperator::apply(par::Comm& comm, std::span<const double> x,
                            std::span<double> y) const {
  ensure_plan();
  OBS_HIST_SPAN("fem.apply");
  apply_batched(comm, gather_.w_bc.data(), x, y);
  gather_.finish_with_identity_rows(comm, *mesh_, x, y);
}

double ElementOperator::dot(par::Comm& comm, std::span<const double> a,
                            std::span<const double> b) const {
  const std::size_t owned =
      static_cast<std::size_t>(mesh_->n_owned) * static_cast<std::size_t>(ncomp_);
  const double s = la::pairwise_dot(a.first(owned), b.first(owned));
  return comm.allreduce_sum(s);
}

void ElementOperator::multi_dot(par::Comm& comm,
                                std::span<const la::DotPair> pairs,
                                std::span<double> out) const {
  owned_multi_dot(comm,
                  static_cast<std::size_t>(mesh_->n_owned) *
                      static_cast<std::size_t>(ncomp_),
                  pairs, out);
}

void ElementOperator::lift_bcs(par::Comm& comm, std::span<const double> g,
                               std::span<double> b) const {
  work_ax_.resize(b.size());
  apply_raw(comm, g, work_ax_);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (dirichlet_[i])
      b[i] = g[i];
    else
      b[i] -= work_ax_[i];
  }
}

std::vector<la::Triplet> ElementOperator::local_triplets() const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  const std::size_t bs = block_size();
  // Size the vector once: an element with s free (master, component)
  // pairs emits at most s * s triplets (exactly that many unless an
  // element-matrix entry is 0), and growing a multi-MB vector by doubling
  // leaves its freed halves behind as heap fragmentation.
  std::size_t bound = 0;
  for (std::size_t e = 0; e < mesh_->elements.size(); ++e) {
    std::size_t s = 0;
    for (const mesh::Corner& cc : mesh_->corners[e])
      for (int k = 0; k < cc.n; ++k)
        for (std::size_t a = 0; a < nc; ++a)
          s += dirichlet_[static_cast<std::size_t>(
                              cc.dof[static_cast<std::size_t>(k)]) * nc + a]
                   ? 0
                   : 1;
    bound += s * s;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(mesh_->n_owned) * nc;
       ++i)
    bound += dirichlet_[i] ? 1 : 0;
  std::vector<la::Triplet> trips;
  trips.reserve(bound);
  for (std::size_t e = 0; e < mesh_->elements.size(); ++e) {
    const std::span<const double> m = element_matrix(e);
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& ci = mesh_->corners[e][static_cast<std::size_t>(i)];
      for (int j = 0; j < 8; ++j) {
        const mesh::Corner& cj = mesh_->corners[e][static_cast<std::size_t>(j)];
        for (std::size_t a = 0; a < nc; ++a)
          for (std::size_t bcomp = 0; bcomp < nc; ++bcomp) {
            const double v = m[(static_cast<std::size_t>(i) * nc + a) * bs +
                               static_cast<std::size_t>(j) * nc + bcomp];
            if (v == 0.0) continue;
            for (int ki = 0; ki < ci.n; ++ki) {
              const std::int32_t di = ci.dof[static_cast<std::size_t>(ki)];
              if (dirichlet_[static_cast<std::size_t>(di) * nc + a]) continue;
              for (int kj = 0; kj < cj.n; ++kj) {
                const std::int32_t dj = cj.dof[static_cast<std::size_t>(kj)];
                if (dirichlet_[static_cast<std::size_t>(dj) * nc + bcomp])
                  continue;
                trips.push_back(la::Triplet{
                    mesh_->dof_gids[static_cast<std::size_t>(di)] * ncomp_ +
                        static_cast<std::int64_t>(a),
                    mesh_->dof_gids[static_cast<std::size_t>(dj)] * ncomp_ +
                        static_cast<std::int64_t>(bcomp),
                    ci.w[static_cast<std::size_t>(ki)] *
                        cj.w[static_cast<std::size_t>(kj)] * v});
              }
            }
          }
      }
    }
  }
  // Identity rows for owned Dirichlet values.
  for (std::int64_t d = 0; d < mesh_->n_owned; ++d)
    for (std::size_t c = 0; c < nc; ++c)
      if (dirichlet_[static_cast<std::size_t>(d) * nc + c]) {
        const std::int64_t g =
            mesh_->dof_gids[static_cast<std::size_t>(d)] * ncomp_ +
            static_cast<std::int64_t>(c);
        trips.push_back(la::Triplet{g, g, 1.0});
      }
  return trips;
}

la::DistCsr ElementOperator::assemble_dist(par::Comm& comm) const {
  // Owned value gids are [gid_offset * ncomp, (gid_offset + n_owned) *
  // ncomp) and rank-contiguous, so the ownership partition comes straight
  // from an allgather of the per-rank offsets.
  const std::vector<std::int64_t> starts = comm.allgather(
      mesh_->gid_offset * static_cast<std::int64_t>(ncomp_));
  std::vector<std::int64_t> offsets(starts.begin(), starts.end());
  offsets.push_back(mesh_->n_global * ncomp_);
  return la::DistCsr::from_triplets(comm, offsets, offsets, local_triplets());
}

la::Csr ElementOperator::assemble_global(par::Comm& comm) const {
  const std::int64_t n = mesh_->n_global * ncomp_;
  std::vector<la::Triplet> all = comm.allgatherv(local_triplets());
  return la::Csr::from_triplets(n, n, std::move(all));
}

}  // namespace alps::fem
