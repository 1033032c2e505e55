// Tests for the amortized AMG setup: distributed two-pass Galerkin
// product vs a replicated serial triple product, numeric hierarchy
// refresh (DistAmg::refresh_numeric) parity with a fresh setup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "amg/amg.hpp"
#include "amg/dist_amg.hpp"
#include "la/dist_csr.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using la::Csr;
using la::DistCsr;
using la::Triplet;
using par::Comm;

// 3D 7-point Laplacian with an optional coefficient jump (same builder as
// tests/test_dist_la.cpp).
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
            diag += c;
            return;
          }
          const double cc = (ii < n / 2) ? 1.0 : coeff_jump;
          const double h = 0.5 * (c + cc);
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

std::vector<Triplet> to_triplets(const Csr& a) {
  std::vector<Triplet> t;
  for (std::int64_t r = 0; r < a.rows(); ++r)
    for (std::int64_t k = a.rowptr()[static_cast<std::size_t>(r)];
         k < a.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      t.push_back({r, a.colidx()[static_cast<std::size_t>(k)],
                   a.values()[static_cast<std::size_t>(k)]});
  return t;
}

DistCsr distribute(Comm& c, const Csr& ref) {
  const auto off = DistCsr::uniform_offsets(c.size(), ref.rows());
  std::vector<Triplet> mine;
  for (const Triplet& t : to_triplets(ref))
    if (la::owner_of(off, t.row) == c.rank()) mine.push_back(t);
  return DistCsr::from_triplets(c, off, off, std::move(mine));
}

void expect_same_matrix(const Csr& a, const Csr& b, double tol,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    ASSERT_EQ(a.colidx()[k], b.colidx()[k]) << what << " entry " << k;
    ASSERT_NEAR(a.values()[k], b.values()[k],
                tol * std::max(1.0, std::abs(a.values()[k])))
        << what << " entry " << k;
  }
}

double dist_residual_norm(Comm& c, const DistCsr& a, std::span<const double> b,
                          std::span<const double> x) {
  std::vector<double> ax(static_cast<std::size_t>(a.owned_rows()));
  a.matvec(c, x, ax);
  double s = 0;
  for (std::size_t i = 0; i < ax.size(); ++i)
    s += (b[i] - ax[i]) * (b[i] - ax[i]);
  return std::sqrt(c.allreduce_sum(s));
}

// ---- Galerkin product correctness -----------------------------------------

TEST(DistAmgGalerkin, CoarseOperatorsMatchSerialTripleProduct) {
  // Every coarse operator of the distributed hierarchy must equal
  // P^T A P computed serially from the replicated A and P of that level —
  // this pins down the full two-pass RAP (symbolic + numeric + off-owner
  // routing) against an independent reference.
  const Csr ref = laplace_3d(8);
  for (int p : {1, 2, 4}) {
    alps::par::run(p, [&ref](Comm& c) {
      amg::DistAmg amg(c, distribute(c, ref));
      for (int lvl = 0; lvl + 1 < amg.num_grid_levels(); ++lvl) {
        const Csr a = amg.matrix(lvl).replicate(c);
        const Csr pr = amg.prolongation(lvl).replicate(c);
        const Csr expect = Csr::multiply(pr.transpose(), Csr::multiply(a, pr));
        const Csr got = amg.matrix(lvl + 1).replicate(c);
        expect_same_matrix(expect, got, 1e-12, "coarse level");
      }
    });
  }
}

TEST(DistAmgGalerkin, SingleRankHierarchyMatchesSerialAmg) {
  // At P = 1 the per-rank coarsening is exactly the serial algorithm, so
  // the whole hierarchy (not just each triple product) must coincide.
  const Csr ref = laplace_3d(8);
  const amg::Amg serial(ref);
  alps::par::run(1, [&ref, &serial](Comm& c) {
    amg::DistAmg dist(c, distribute(c, ref));
    ASSERT_EQ(dist.num_levels(), serial.num_levels());
    for (int lvl = 0; lvl < dist.num_levels(); ++lvl) {
      EXPECT_EQ(dist.level_stats()[static_cast<std::size_t>(lvl)].n,
                serial.level_stats()[static_cast<std::size_t>(lvl)].n);
      EXPECT_EQ(dist.level_stats()[static_cast<std::size_t>(lvl)].nnz,
                serial.level_stats()[static_cast<std::size_t>(lvl)].nnz);
    }
  });
}

// ---- numeric refresh -------------------------------------------------------

TEST(DistAmgReuse, RefreshWithIdenticalValuesIsExactParity) {
  const Csr ref = laplace_3d(8, 10.0);
  for (int p : {1, 2, 4}) {
    alps::par::run(p, [&ref](Comm& c) {
      amg::DistAmg fresh(c, distribute(c, ref));
      amg::DistAmg reused(c, distribute(c, ref));
      reused.refresh_numeric(c, distribute(c, ref));
      // The numeric pass is the same code in both paths, so the coarse
      // values are bit-identical, not merely close.
      for (int lvl = 0; lvl < reused.num_grid_levels(); ++lvl) {
        const Csr a = fresh.matrix(lvl).replicate(c);
        const Csr b = reused.matrix(lvl).replicate(c);
        ASSERT_EQ(a.nnz(), b.nnz());
        for (std::size_t k = 0; k < a.values().size(); ++k)
          ASSERT_EQ(a.values()[k], b.values()[k]);
      }
      // V-cycle residual reduction agrees to 1e-12 (ISSUE criterion).
      const std::int64_t nown = fresh.finest().owned_rows();
      std::vector<double> b(static_cast<std::size_t>(nown), 1.0);
      std::vector<double> x1(b.size(), 0.0), x2(b.size(), 0.0);
      fresh.vcycle(c, b, x1);
      reused.vcycle(c, b, x2);
      const double r1 = dist_residual_norm(c, fresh.finest(), b, x1);
      const double r2 = dist_residual_norm(c, reused.finest(), b, x2);
      EXPECT_NEAR(r1, r2, 1e-12 * std::max(1.0, r1));
    });
  }
}

TEST(DistAmgReuse, RefreshedCoarseOperatorsTrackNewValues) {
  // Change the operator values (same sparsity pattern, as a viscosity
  // update does) and refresh: every coarse operator must equal the triple
  // product of the *new* values through the *frozen* interpolation.
  const Csr a1 = laplace_3d(8);
  const Csr a2 = laplace_3d(8, 50.0);  // same pattern, jumped coefficients
  ASSERT_EQ(a1.nnz(), a2.nnz());
  for (int p : {1, 2, 4}) {
    alps::par::run(p, [&a1, &a2](Comm& c) {
      amg::DistAmg amg(c, distribute(c, a1));
      amg.refresh_numeric(c, distribute(c, a2));
      for (int lvl = 0; lvl + 1 < amg.num_grid_levels(); ++lvl) {
        const Csr a = amg.matrix(lvl).replicate(c);
        const Csr pr = amg.prolongation(lvl).replicate(c);
        const Csr expect = Csr::multiply(pr.transpose(), Csr::multiply(a, pr));
        const Csr got = amg.matrix(lvl + 1).replicate(c);
        expect_same_matrix(expect, got, 1e-12, "refreshed level");
      }
      // The refreshed hierarchy still solves the new operator.
      const std::int64_t nown = amg.finest().owned_rows();
      std::vector<double> b(static_cast<std::size_t>(nown), 1.0);
      std::vector<double> x(b.size(), 0.0);
      const double r0 = dist_residual_norm(c, amg.finest(), b, x);
      for (int k = 0; k < 12; ++k) amg.vcycle(c, b, x);
      EXPECT_LT(dist_residual_norm(c, amg.finest(), b, x), 1e-5 * r0);
    });
  }
}

TEST(DistAmgReuse, RefreshRejectsStructuralMismatch) {
  const Csr a1 = laplace_3d(8);
  const Csr a2 = laplace_3d(7);  // different mesh: different pattern
  alps::par::run(2, [&a1, &a2](Comm& c) {
    amg::DistAmg amg(c, distribute(c, a1));
    EXPECT_THROW(amg.refresh_numeric(c, distribute(c, a2)), std::logic_error);
  });
}

}  // namespace
