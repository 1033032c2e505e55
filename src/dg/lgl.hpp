#pragma once
// Legendre-Gauss-Lobatto machinery for the high-order nodal DG module
// (paper Sec. VII, the MANGLL substitute): LGL nodes and quadrature
// weights, the collocation differentiation matrix, and Lagrange
// interpolation matrices used for nonconforming (2:1) face coupling and
// for adaptivity transfer.

#include <vector>

namespace alps::dg {

/// LGL nodes on [0, 1] (p+1 points for polynomial order p) and the
/// matching quadrature weights.
struct LglRule {
  int order = 1;                 // polynomial order p
  std::vector<double> nodes;     // size p+1, ascending, in [0,1]
  std::vector<double> weights;   // size p+1, sum = 1
};

LglRule lgl_rule(int order);

/// Collocation differentiation matrix D[i][j] = l_j'(x_i) on [0,1],
/// row-major (p+1)^2.
std::vector<double> differentiation_matrix(const LglRule& rule);

/// Evaluate the Lagrange basis {l_j} of the rule at a single point.
std::vector<double> lagrange_at(const LglRule& rule, double x);

}  // namespace alps::dg
