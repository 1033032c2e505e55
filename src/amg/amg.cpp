#include "amg/amg.hpp"

#include <algorithm>
#include <queue>

#include "amg/classical.hpp"
#include "amg/smoother.hpp"
#include "obs/obs.hpp"

namespace alps::amg {

namespace detail {

std::vector<CF> split_cf(const std::vector<std::vector<std::int64_t>>& strong) {
  const std::int64_t n = static_cast<std::int64_t>(strong.size());
  // Transpose: who strongly depends on i.
  std::vector<std::vector<std::int64_t>> influenced(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      influenced[static_cast<std::size_t>(j)].push_back(i);

  std::vector<std::int64_t> measure(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    measure[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(influenced[static_cast<std::size_t>(i)].size());

  std::vector<CF> cf(static_cast<std::size_t>(n), CF::kUndecided);
  // Nodes with no strong connection in either direction — Dirichlet /
  // identity rows and rows with only weak couplings — take no part in
  // coarse-grid correction: preset them to F so they cannot accumulate as
  // C points on every coarser level (which stalls coarsening with a large
  // coarsest grid). Their interpolation row stays empty and relaxation
  // resolves them.
  for (std::int64_t i = 0; i < n; ++i)
    if (strong[static_cast<std::size_t>(i)].empty() &&
        influenced[static_cast<std::size_t>(i)].empty())
      cf[static_cast<std::size_t>(i)] = CF::kFine;
  using Entry = std::pair<std::int64_t, std::int64_t>;  // (measure, node)
  std::priority_queue<Entry> heap;
  for (std::int64_t i = 0; i < n; ++i)
    heap.emplace(measure[static_cast<std::size_t>(i)], i);

  while (!heap.empty()) {
    const auto [m, i] = heap.top();
    heap.pop();
    if (cf[static_cast<std::size_t>(i)] != CF::kUndecided) continue;
    if (m != measure[static_cast<std::size_t>(i)]) {
      heap.emplace(measure[static_cast<std::size_t>(i)], i);  // stale entry
      continue;
    }
    cf[static_cast<std::size_t>(i)] = CF::kCoarse;
    for (std::int64_t j : influenced[static_cast<std::size_t>(i)]) {
      if (cf[static_cast<std::size_t>(j)] != CF::kUndecided) continue;
      cf[static_cast<std::size_t>(j)] = CF::kFine;
      // New F point: strengthen its other dependencies toward C.
      for (std::int64_t k : strong[static_cast<std::size_t>(j)])
        if (cf[static_cast<std::size_t>(k)] == CF::kUndecided) {
          measure[static_cast<std::size_t>(k)] += 1;
          heap.emplace(measure[static_cast<std::size_t>(k)], k);
        }
    }
  }
  // Direct interpolation needs every F point to see a strong C neighbor.
  for (std::int64_t i = 0; i < n; ++i) {
    if (cf[static_cast<std::size_t>(i)] != CF::kFine) continue;
    bool has_c = false;
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      if (cf[static_cast<std::size_t>(j)] == CF::kCoarse) {
        has_c = true;
        break;
      }
    if (!has_c && !strong[static_cast<std::size_t>(i)].empty())
      cf[static_cast<std::size_t>(i)] = CF::kCoarse;
  }
  return cf;
}

}  // namespace detail

namespace {

using detail::CF;

/// Strength graph: strong[i] lists j such that i strongly depends on j,
/// classical criterion -a_ij >= theta * max_k(-a_ik).
std::vector<std::vector<std::int64_t>> strength_graph(const la::Csr& a,
                                                      double theta) {
  const std::int64_t n = a.rows();
  std::vector<std::vector<std::int64_t>> strong(static_cast<std::size_t>(n));
  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  for (std::int64_t i = 0; i < n; ++i) {
    double maxneg = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] != i)
        maxneg = std::max(maxneg, -v[static_cast<std::size_t>(k)]);
    if (maxneg <= 0.0) continue;
    const double cut = theta * maxneg;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = ci[static_cast<std::size_t>(k)];
      if (j != i && -v[static_cast<std::size_t>(k)] >= cut)
        strong[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return strong;
}

using detail::split_cf;

/// Direct interpolation operator (Stüben): C points inject, F points take
/// w_ij = -alpha_i a_ij / a_ii over strong coarse neighbors, with alpha
/// preserving row sums so constants interpolate exactly.
la::Csr build_interpolation(const la::Csr& a,
                            const std::vector<std::vector<std::int64_t>>& strong,
                            const std::vector<CF>& cf,
                            std::vector<std::int64_t>& coarse_index) {
  const std::int64_t n = a.rows();
  coarse_index.assign(static_cast<std::size_t>(n), -1);
  std::int64_t nc = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (cf[static_cast<std::size_t>(i)] == CF::kCoarse)
      coarse_index[static_cast<std::size_t>(i)] = nc++;

  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  std::vector<la::Triplet> t;
  // Epoch-stamped membership marks: strong_mark[j] == i iff j is a strong
  // neighbor of the row i currently being interpolated. O(1) per test
  // instead of a linear scan of the strong list.
  std::vector<std::int64_t> strong_mark(static_cast<std::size_t>(n), -1);
  for (std::int64_t i = 0; i < n; ++i) {
    if (cf[static_cast<std::size_t>(i)] == CF::kCoarse) {
      t.push_back({i, coarse_index[static_cast<std::size_t>(i)], 1.0});
      continue;
    }
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      strong_mark[static_cast<std::size_t>(j)] = i;
    // Strong coarse neighbors of i.
    double diag = 0.0, sum_all = 0.0, sum_c = 0.0;
    std::vector<std::pair<std::int64_t, double>> cweights;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = ci[static_cast<std::size_t>(k)];
      const double av = v[static_cast<std::size_t>(k)];
      if (j == i) {
        diag = av;
        continue;
      }
      sum_all += av;
      if (cf[static_cast<std::size_t>(j)] == CF::kCoarse &&
          strong_mark[static_cast<std::size_t>(j)] == i) {
        sum_c += av;
        cweights.emplace_back(coarse_index[static_cast<std::size_t>(j)], av);
      }
    }
    if (cweights.empty() || diag == 0.0 || sum_c == 0.0)
      continue;  // isolated F point: relies on smoothing only
    const double alpha = sum_all / sum_c;
    for (const auto& [jc, av] : cweights)
      t.push_back({i, jc, -alpha * av / diag});
  }
  return la::Csr::from_triplets(n, nc, std::move(t));
}

}  // namespace

Amg::Amg(la::Csr a) {
  la::Csr cur = std::move(a);
  for (int lvl = 0; lvl < kMaxLevels; ++lvl) {
    stats_.push_back(LevelStats{cur.rows(), cur.nnz()});
    if (cur.rows() <= kCoarseSize) break;
    const auto strong = strength_graph(cur, kStrengthTheta);
    const auto cf = split_cf(strong);
    std::vector<std::int64_t> cidx;
    la::Csr p = build_interpolation(cur, strong, cf, cidx);
    if (p.cols() == 0 || p.cols() >= cur.rows()) break;  // no coarsening
    la::Csr r = p.transpose();
    la::Csr ac = la::Csr::multiply(r, la::Csr::multiply(cur, p));
    Level next;
    next.a = std::move(cur);
    next.p = std::move(p);
    next.r = std::move(r);
    levels_.push_back(std::move(next));
    cur = std::move(ac);
  }
  coarse_a_ = std::move(cur);
  coarse_ = std::make_unique<la::DenseLu>(coarse_a_);
  // Scratch for every level.
  scratch_r_.resize(levels_.size() + 1);
  scratch_x_.resize(levels_.size() + 1);
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    scratch_r_[k].resize(static_cast<std::size_t>(levels_[k].a.rows()));
    scratch_x_[k].resize(static_cast<std::size_t>(levels_[k].a.rows()));
  }
  scratch_r_.back().resize(static_cast<std::size_t>(coarse_a_.rows()));
  scratch_x_.back().resize(static_cast<std::size_t>(coarse_a_.rows()));
}

void Amg::cycle(std::size_t lvl, std::span<const double> b,
                std::span<double> x) const {
  if (lvl == levels_.size()) {
    coarse_->solve(b, x);
    return;
  }
  const Level& L = levels_[lvl];
  for (int s = 0; s < kPreSmooth; ++s)
    gauss_seidel(L.a, b, x, /*forward=*/true);
  // Residual and restriction.
  std::vector<double>& res = scratch_r_[lvl];
  L.a.matvec(x, res);
  for (std::size_t i = 0; i < res.size(); ++i) res[i] = b[i] - res[i];
  const std::size_t nc = static_cast<std::size_t>(L.p.cols());
  std::vector<double> bc(nc), xc(nc, 0.0);
  L.r.matvec(res, bc);
  cycle(lvl + 1, bc, xc);
  // Prolongate and correct.
  std::vector<double>& corr = scratch_x_[lvl];
  L.p.matvec(xc, corr);
  for (std::size_t i = 0; i < corr.size(); ++i) x[i] += corr[i];
  for (int s = 0; s < kPostSmooth; ++s)
    gauss_seidel(L.a, b, x, /*forward=*/false);
}

void Amg::vcycle(std::span<const double> b, std::span<double> x) const {
  OBS_HIST_SPAN("amg.vcycle");
  cycle(0, b, x);
}

double Amg::operator_complexity() const {
  double total = 0.0;
  for (const LevelStats& s : stats_) total += static_cast<double>(s.nnz);
  return total / static_cast<double>(stats_.front().nnz);
}

double Amg::grid_complexity() const {
  double total = 0.0;
  for (const LevelStats& s : stats_) total += static_cast<double>(s.n);
  return total / static_cast<double>(stats_.front().n);
}

}  // namespace alps::amg
