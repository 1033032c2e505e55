#pragma once
// Pointwise smoothers for the AMG hierarchy.

#include <span>

#include "la/csr.hpp"

namespace alps::amg {

/// One Gauss-Seidel sweep on A x = b, in place. forward=false sweeps rows
/// in reverse order (used to make the V-cycle symmetric).
void gauss_seidel(const la::Csr& a, std::span<const double> b,
                  std::span<double> x, bool forward);

}  // namespace alps::amg
