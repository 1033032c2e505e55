#pragma once
// Matrix-free stabilized Stokes saddle operator (paper Sec. III):
//
//   [ A   B^T ] [u]   with A = int 2 eta eps(u):eps(v), B = -int q div u,
//   [ B  -C   ] [p]   C = (1/eta_bar)(M - m m^T / vol) (Dohrmann-Bochev),
//
// applied from per-quadrature-point data instead of stored 32x32 element
// matrices. Per element and Gauss point it keeps J^-T (9 doubles), |J|w
// and eta |J|w; per element 1/eta_bar: 89 doubles against the 528 of an
// upper-triangle packed saddle block. Each apply rebuilds the reference
// velocity gradients and the pressure at the Gauss points by sum
// factorization (2x2 passes along each axis of the tensor-product
// element), forms the weighted stress eta (grad u + grad u^T) - p I and
// the divergence pointwise, and integrates them back against the test
// gradients and values with the transposed passes. Hanging-node
// constraints, the Dirichlet mask and the boundary-first halo overlap come
// from the shared GatherPlan, exactly as in ElementOperator.
//
// The assembled blocks viscous_block / divergence_block /
// pressure_stabilization (hex8.hpp) define the same operator; the tests
// compare against them.
//
// Unknown layout: value index = 4 * local_dof + comp, comps 0..2 velocity
// and comp 3 pressure.

#include <span>
#include <vector>

#include "fem/gather_plan.hpp"
#include "fem/hex8.hpp"
#include "la/krylov.hpp"
#include "mesh/mesh.hpp"

namespace alps::fem {

enum class VelocityBc {
  kFreeSlip,  // u.n = 0 on every physical face (mantle convection setup)
  kNoSlip,    // u = 0 on every physical face
};

/// True when velocity component `comp` of a dof on the physical faces
/// `boundary_mask` (bit f = octree face f) is fixed to zero under `bc`.
inline bool velocity_dirichlet(std::uint8_t boundary_mask, int comp,
                               VelocityBc bc) {
  if (boundary_mask == 0) return false;
  const std::uint8_t faces = static_cast<std::uint8_t>(0b11u << (2 * comp));
  return bc == VelocityBc::kNoSlip || (boundary_mask & faces) != 0;
}

class StokesOperator {
 public:
  /// Gather plan and Dirichlet mask only; the caller fills every element
  /// with set_element.
  StokesOperator(const mesh::Mesh& m, VelocityBc bc);

  /// Store element e's quadrature data.
  void set_element(std::size_t e, const MappedQuad& mq,
                   std::span<const double, kQuad> eta_q);

  /// y = K x with Dirichlet rows acting as identity. x must be ghost-
  /// consistent; y comes back ghost-consistent. Collective.
  void apply(par::Comm& comm, std::span<const double> x,
             std::span<double> y) const;

  la::LinOp as_linop(par::Comm& comm) const {
    return [this, &comm](std::span<const double> x, std::span<double> y) {
      apply(comm, x, y);
    };
  }
  la::MultiDotFn as_multi_dot(par::Comm& comm) const {
    return [this, &comm](std::span<const la::DotPair> pairs,
                         std::span<double> out) {
      owned_multi_dot(comm, static_cast<std::size_t>(mesh_->n_owned) * 4,
                      pairs, out);
    };
  }

  bool is_dirichlet(std::int64_t dof, int comp) const {
    return dirichlet_[static_cast<std::size_t>(dof) * 4 +
                      static_cast<std::size_t>(comp)] != 0;
  }

  /// Doubles of quadrature data streamed per apply (lane padding
  /// included). bench_apply and bench_step derive bytes/s from this.
  std::size_t plan_matrix_doubles() const { return quad_.size(); }

  /// This rank's heap bytes: quadrature data, Dirichlet mask, gather plan.
  std::uint64_t memory_bytes() const {
    return obs::vec_bytes(quad_) + obs::vec_bytes(dirichlet_) +
           plan_.memory_bytes();
  }

 private:
  /// Quadrature doubles per element: 8 x (J^-T, |J|w, eta|J|w) + 1/eta_bar.
  static constexpr std::size_t kElementDoubles = kQuad * 11 + 1;

  const mesh::Mesh* mesh_;
  std::vector<std::uint8_t> dirichlet_;  // n_local * 4
  GatherPlan plan_;
  // [batch][q][J^-T (9), |J|w, eta|J|w][lane], then [batch][1/eta_bar][lane]
  // at the batch's end. Pad lanes hold |J|w = 1 so the element-volume
  // division stays finite; their zero gather weights drop the result.
  std::vector<double> quad_;
};

}  // namespace alps::fem
