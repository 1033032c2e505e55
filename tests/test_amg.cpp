// Tests for the Ruge-Stüben AMG hierarchy (src/amg).

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "amg/amg.hpp"
#include "la/krylov.hpp"

namespace {

using namespace alps;
using la::Csr;
using la::Triplet;

// 3D 7-point Laplacian on an n^3 grid with Dirichlet-eliminated boundary,
// optionally with a strongly varying coefficient between the two halves.
Csr laplace_3d(std::int64_t n, double coeff_jump = 1.0) {
  const auto id = [n](std::int64_t i, std::int64_t j, std::int64_t k) {
    return (k * n + j) * n + i;
  };
  std::vector<Triplet> t;
  for (std::int64_t k = 0; k < n; ++k)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t i = 0; i < n; ++i) {
        const double c = (i < n / 2) ? 1.0 : coeff_jump;
        const std::int64_t r = id(i, j, k);
        double diag = 0.0;
        const auto add = [&](std::int64_t ii, std::int64_t jj, std::int64_t kk) {
          if (ii < 0 || jj < 0 || kk < 0 || ii >= n || jj >= n || kk >= n) {
            diag += c;  // Dirichlet neighbor eliminated
            return;
          }
          const double cc = (ii < n / 2) ? 1.0 : coeff_jump;
          const double h = 0.5 * (c + cc);  // harmonic-ish face coefficient
          t.push_back({r, id(ii, jj, kk), -h});
          diag += h;
        };
        add(i - 1, j, k);
        add(i + 1, j, k);
        add(i, j - 1, k);
        add(i, j + 1, k);
        add(i, j, k - 1);
        add(i, j, k + 1);
        t.push_back({r, r, diag});
      }
  return Csr::from_triplets(n * n * n, n * n * n, std::move(t));
}

double residual_norm(const Csr& a, std::span<const double> b,
                     std::span<const double> x) {
  std::vector<double> ax(x.size());
  a.matvec(x, ax);
  double s = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    s += (b[i] - ax[i]) * (b[i] - ax[i]);
  return std::sqrt(s);
}

TEST(Amg, BuildsMultipleLevels) {
  amg::Amg amg(laplace_3d(12));
  EXPECT_GE(amg.num_levels(), 3);
  // Each level meaningfully smaller.
  const auto& stats = amg.level_stats();
  for (std::size_t k = 1; k < stats.size(); ++k)
    EXPECT_LT(stats[k].n, stats[k - 1].n);
  EXPECT_LT(amg.operator_complexity(), 3.0);
  EXPECT_LT(amg.grid_complexity(), 2.0);
}

TEST(Amg, VcycleContractsError) {
  Csr a = laplace_3d(10);
  amg::Amg amg(a);
  const std::int64_t n = a.rows();
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> val(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = val(rng);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const double r0 = residual_norm(a, b, x);
  amg.vcycle(b, x);
  const double r1 = residual_norm(a, b, x);
  amg.vcycle(b, x);
  const double r2 = residual_norm(a, b, x);
  // Healthy AMG contracts the residual by a solid factor per cycle.
  EXPECT_LT(r1, 0.3 * r0);
  EXPECT_LT(r2, 0.3 * r1);
}

TEST(Amg, ConvergenceFactorStableAcrossSizes) {
  // Near-optimal AMG: per-cycle contraction should not degrade much as
  // the problem grows (this is what makes MINRES counts flat in Fig. 2).
  double factors[2];
  int idx = 0;
  for (std::int64_t n : {8, 16}) {
    Csr a = laplace_3d(n);
    amg::Amg amg(a);
    std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
    double r_prev = residual_norm(a, b, x);
    double rho = 0.0;
    for (int c = 0; c < 6; ++c) {
      amg.vcycle(b, x);
      const double r = residual_norm(a, b, x);
      rho = r / r_prev;
      r_prev = r;
    }
    factors[idx++] = rho;
  }
  EXPECT_LT(factors[1], std::max(0.5, 3.0 * factors[0]));
}

TEST(Amg, HandlesStrongCoefficientJumps) {
  // 10^5 viscosity contrast, as in the mantle problem.
  Csr a = laplace_3d(10, 1e5);
  amg::Amg amg(a);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  const double r0 = residual_norm(a, b, x);
  for (int k = 0; k < 10; ++k) amg.vcycle(b, x);
  EXPECT_LT(residual_norm(a, b, x), 1e-6 * r0);
}

TEST(Amg, ActsAsSpdPreconditionerForCg) {
  Csr a = laplace_3d(10);
  amg::Amg amg(a);
  la::LinOp op = [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
  la::LinOp pre = [&amg](std::span<const double> x, std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    amg.vcycle(x, y);
  };
  la::DotFn dot = [](std::span<const double> x, std::span<const double> y) {
    return la::local_dot(x, y);
  };
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-10;
  la::SolveResult r = la::cg(op, b, x, pre, dot, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 15);  // AMG-preconditioned CG converges fast
}

TEST(Amg, TinyMatrixFallsBackToDirectSolve) {
  Csr a = laplace_3d(3);  // 27 unknowns < coarse_size
  amg::Amg amg(a);
  EXPECT_EQ(amg.num_levels(), 1);
  std::vector<double> b(27, 1.0), x(27, 0.0);
  amg.vcycle(b, x);
  EXPECT_LT(residual_norm(a, b, x), 1e-10);
}

}  // namespace
