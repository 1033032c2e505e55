#pragma once
// The three velocity AMG hierarchies of the Stokes preconditioner, held
// apart from the solver that fills them (paper Sec. IV: the AMG setup is
// amortized over the time steps between mesh adaptations). The C/F
// splitting, interpolation operators and the symbolic structure of the
// Galerkin products depend only on the mesh, so a viscosity update needs
// only the numeric RAP pass (DistAmg::refresh_numeric).
//
// stokes::StokesSolver owns one of these per mesh and refreshes it in
// update(). A caller may instead hand several solvers on the same mesh
// one shared cache: the first builds the hierarchies, every later one
// refreshes them (benchmark/bench_step times the two paths this way).
// refresh_numeric rejects a hierarchy built on a different mesh.

#include <array>
#include <memory>

#include "amg/dist_amg.hpp"

namespace alps::amg {

struct HierarchyCache {
  /// One hierarchy per velocity component (the three variable-viscosity
  /// Poisson blocks of the Stokes preconditioner); null until built.
  std::array<std::unique_ptr<DistAmg>, 3> amg;
};

}  // namespace alps::amg
