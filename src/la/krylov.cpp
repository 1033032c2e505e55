#include "la/krylov.hpp"

#include <cmath>

namespace alps::la {

MultiDotFn multi_dot_from(DotFn dot) {
  return [dot = std::move(dot)](std::span<const DotPair> pairs,
                                std::span<double> out) {
    for (std::size_t k = 0; k < pairs.size(); ++k)
      out[k] = dot(pairs[k].a, pairs[k].b);
  };
}

double pairwise_dot(std::span<const double> a, std::span<const double> b) {
  // Base blocks sum naively (vectorizable, cache-friendly); block sums
  // combine pairwise so the error constant grows with log(n/kBlock).
  constexpr std::size_t kBlock = 64;
  const std::size_t n = a.size();
  if (n <= kBlock) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  }
  // Split at the largest kBlock multiple <= n/2 so equal-length inputs
  // always split identically regardless of how they were produced.
  const std::size_t half = ((n / 2 + kBlock - 1) / kBlock) * kBlock;
  return pairwise_dot(a.first(half), b.first(half)) +
         pairwise_dot(a.subspan(half), b.subspan(half));
}

namespace detail {

bool ConvergenceMonitor::update(int j, double relres) {
  res_.iterations = j;
  res_.relative_residual = relres;
  ring_.push(relres);
  if (!std::isfinite(relres)) {
    res_.status = SolveStatus::kNonFinite;
    return false;
  }
  if (relres < opt_.rtol) {
    res_.status = SolveStatus::kConverged;
    return false;
  }
  if (relres > opt_.divergence_tol) {
    res_.status = SolveStatus::kDiverged;
    return false;
  }
  if (best_ < 0.0 || relres < best_) {
    best_ = relres;
    best_iter_ = j;
  } else if (opt_.stagnation_window > 0 &&
             j - best_iter_ >= opt_.stagnation_window) {
    res_.status = SolveStatus::kStagnated;
    return false;
  }
  return true;
}

void ConvergenceMonitor::finish() {
  res_.residual_history = ring_.take();
  res_.converged = res_.status == SolveStatus::kConverged;
}

}  // namespace detail

}  // namespace alps::la
