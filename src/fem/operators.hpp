#pragma once
// Ready-made operator builders on an extracted mesh: variable-coefficient
// scalar Laplacians (the Stokes preconditioner's building block and the
// Fig. 9 benchmark operator), mass matrices, and boundary-condition
// helpers shared by the energy and Stokes solvers.

#include <functional>

#include "fem/assembly.hpp"
#include "fem/hex8.hpp"

namespace alps::fem {

/// Scalar coefficient field evaluated at a physical point.
using CoeffFn = std::function<double(const std::array<double, 3>&)>;

/// Element geometry of mesh element e.
ElemGeom element_geometry(const mesh::Mesh& m, const forest::Connectivity& conn,
                          std::size_t e);

/// K_ij = int eta grad(phi_i).grad(phi_j), Dirichlet on the physical faces
/// whose bits are set in `dirichlet_faces` (bit f = octree face f).
ElementOperator build_scalar_laplace(const mesh::Mesh& m,
                                     const forest::Connectivity& conn,
                                     const CoeffFn& eta,
                                     std::uint8_t dirichlet_faces);

/// Consistent mass matrix operator (no boundary conditions).
ElementOperator build_mass(const mesh::Mesh& m,
                           const forest::Connectivity& conn);

/// Nodal interpolation of an analytic function into dof values
/// (n_local * 1 entries).
std::vector<double> interpolate(const mesh::Mesh& m,
                                const std::function<double(const std::array<double, 3>&)>& f);

}  // namespace alps::fem
