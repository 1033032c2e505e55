// The stabilized Stokes saddle operator assembled from hex8's element
// blocks (viscous_block, divergence_block, pressure_stabilization) into
// stored 32x32 element matrices: the reference fem::StokesOperator is
// tested against (tests/test_stokes.cpp) and timed against
// (bench/bench_apply.cpp). matrix_free_saddle builds the operator under
// test from the same viscosity.

#pragma once

#include <array>
#include <span>

#include "fem/operators.hpp"
#include "fem/stokes_operator.hpp"

namespace alps::test {

inline fem::ElementOperator assembled_saddle(
    const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> eta_quad, fem::VelocityBc bc) {
  fem::ElementOperator op(&m, 4);
  const std::size_t bs = op.block_size();
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    std::array<double, fem::kQuad> eq;
    double eta_bar = 0.0;
    for (std::size_t q = 0; q < eq.size(); ++q) {
      eq[q] = eta_quad[8 * e + q];
      eta_bar += eq[q];
    }
    eta_bar /= fem::kQuad;
    const auto a = fem::viscous_block(mq, eq);
    const auto b = fem::divergence_block(mq);
    const fem::Mat8 cstab = fem::pressure_stabilization(mq, eta_bar);
    std::span<double> sm = op.element_matrix(e);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j) {
        for (std::size_t ci = 0; ci < 3; ++ci)
          for (std::size_t cj = 0; cj < 3; ++cj)
            sm[(4 * i + ci) * bs + 4 * j + cj] = a[3 * i + ci][3 * j + cj];
        for (std::size_t cj = 0; cj < 3; ++cj) {
          sm[(4 * i + 3) * bs + 4 * j + cj] = b[i][3 * j + cj];
          sm[(4 * j + cj) * bs + 4 * i + 3] = b[i][3 * j + cj];
        }
        sm[(4 * i + 3) * bs + 4 * j + 3] = -cstab[i][j];
      }
  }
  for (std::int64_t d = 0; d < m.n_local; ++d)
    for (int c = 0; c < 3; ++c)
      if (fem::velocity_dirichlet(m.dof_boundary[static_cast<std::size_t>(d)],
                                  c, bc))
        op.set_dirichlet(d, c);
  return op;
}

/// The matrix-free operator with every element mapped and filled: the
/// form StokesSolver builds inside its own element loop.
inline fem::StokesOperator matrix_free_saddle(
    const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> eta_quad, fem::VelocityBc bc) {
  fem::StokesOperator op(m, bc);
  for (std::size_t e = 0; e < m.elements.size(); ++e)
    op.set_element(e, fem::map_element(fem::element_geometry(m, conn, e)),
                   eta_quad.subspan(fem::kQuad * e).first<fem::kQuad>());
  return op;
}

}  // namespace alps::test
