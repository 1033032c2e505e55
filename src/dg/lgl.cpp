#include "dg/lgl.hpp"

#include <cmath>
#include <stdexcept>

namespace alps::dg {

namespace {

/// Legendre polynomial P_n and derivative at x (on [-1,1]).
void legendre(int n, double x, double& p, double& dp) {
  double p0 = 1.0, p1 = x;
  if (n == 0) {
    p = 1.0;
    dp = 0.0;
    return;
  }
  for (int k = 2; k <= n; ++k) {
    const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
    p0 = p1;
    p1 = pk;
  }
  p = p1;
  dp = n * (x * p1 - p0) / (x * x - 1.0);
}

}  // namespace

LglRule lgl_rule(int order) {
  if (order < 1) throw std::invalid_argument("lgl_rule: order must be >= 1");
  const int n = order;  // nodes are roots of (1-x^2) P_n'(x)
  LglRule r;
  r.order = order;
  r.nodes.resize(static_cast<std::size_t>(n) + 1);
  r.weights.resize(static_cast<std::size_t>(n) + 1);
  std::vector<double> x(static_cast<std::size_t>(n) + 1);
  x.front() = -1.0;
  x.back() = 1.0;
  // Interior nodes by Newton from Chebyshev-Gauss-Lobatto initial guesses.
  for (int i = 1; i < n; ++i) {
    double xi = -std::cos(M_PI * i / n);
    for (int it = 0; it < 100; ++it) {
      // f(x) = P_n'(x); f'(x) from the Legendre ODE:
      // (1-x^2) P_n'' - 2x P_n' + n(n+1) P_n = 0.
      double p, dp;
      legendre(n, xi, p, dp);
      const double d2p = (2.0 * xi * dp - n * (n + 1.0) * p) / (1.0 - xi * xi);
      const double dx = dp / d2p;
      xi -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    x[static_cast<std::size_t>(i)] = xi;
  }
  for (int i = 0; i <= n; ++i) {
    double p, dp;
    legendre(n, x[static_cast<std::size_t>(i)], p, dp);
    // Weights on [-1,1]: 2 / (n(n+1) P_n(x_i)^2); halve for [0,1].
    r.weights[static_cast<std::size_t>(i)] = 1.0 / (n * (n + 1.0) * p * p);
    r.nodes[static_cast<std::size_t>(i)] = 0.5 * (x[static_cast<std::size_t>(i)] + 1.0);
  }
  return r;
}

std::vector<double> lagrange_at(const LglRule& rule, double x) {
  const std::size_t np = rule.nodes.size();
  std::vector<double> l(np, 1.0);
  for (std::size_t j = 0; j < np; ++j)
    for (std::size_t m = 0; m < np; ++m)
      if (m != j)
        l[j] *= (x - rule.nodes[m]) / (rule.nodes[j] - rule.nodes[m]);
  return l;
}

std::vector<double> differentiation_matrix(const LglRule& rule) {
  const std::size_t np = rule.nodes.size();
  const std::vector<double>& x = rule.nodes;
  // Barycentric weights.
  std::vector<double> w(np, 1.0);
  for (std::size_t j = 0; j < np; ++j)
    for (std::size_t m = 0; m < np; ++m)
      if (m != j) w[j] /= (x[j] - x[m]);
  std::vector<double> d(np * np, 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    double diag = 0.0;
    for (std::size_t j = 0; j < np; ++j) {
      if (i == j) continue;
      d[i * np + j] = (w[j] / w[i]) / (x[i] - x[j]);
      diag -= d[i * np + j];
    }
    d[i * np + i] = diag;
  }
  return d;
}

}  // namespace alps::dg
