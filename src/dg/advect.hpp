#pragma once
// High-order nodal DG advection on forest-of-octree meshes (paper
// Sec. VII): arbitrary-order LGL spectral elements with upwind fluxes and
// a five-stage fourth-order low-storage Runge-Kutta integrator, on
// adaptive (2:1 nonconforming) meshes over general geometries.
//
// Nonconforming and inter-tree face coupling uses one uniform primitive:
// the exterior trace at each of an element's face nodes is obtained by
// locating the neighboring leaf (through the connectivity's coordinate
// transforms) and evaluating its nodal polynomial at that point. This
// handles conforming, coarser, and finer neighbors identically; see
// DESIGN.md for how it relates to the paper's face integration meshes.

#include "dg/geometry.hpp"
#include "dg/kernels.hpp"
#include "forest/forest.hpp"
#include "octree/linear_octree.hpp"
#include "par/halo.hpp"

namespace alps::dg {

using forest::Forest;
using octree::Correspondence;
using octree::Octant;

/// Advecting velocity field u(x, t).
using VelocityFn = std::function<std::array<double, 3>(
    const std::array<double, 3>& x, double t)>;

class DgAdvection {
 public:
  /// Setup: node coordinates, metric terms, and the ghost exchange plan
  /// for the current forest. Re-create after adaptation/partitioning.
  /// `use_matrix_kernel` selects the matrix-based element derivative
  /// application (6(p+1)^6 flops, one big dgemm) instead of the default
  /// tensor-product kernel (6(p+1)^4) — the Sec. VII trade-off.
  /// `ghosts` takes a precomputed mesh::ghost_layer() result for this
  /// forest so one adaptation round shares the layer between consumers;
  /// empty (the default) computes it here.
  DgAdvection(par::Comm& comm, const Forest& forest, int order,
              GeometryFn geometry, VelocityFn velocity,
              bool use_matrix_kernel = false,
              std::span<const Octant> ghosts = {});

  int order() const { return kernel_.order(); }
  std::int64_t nodes_per_elem() const { return kernel_.nodes_per_elem(); }
  std::int64_t num_local_elements() const {
    return static_cast<std::int64_t>(elements_.size());
  }
  const DerivativeKernel& kernel() const { return kernel_; }

  /// Nodal interpolation of f onto all local element nodes.
  std::vector<double> interpolate(
      const std::function<double(const std::array<double, 3>&)>& f) const;

  /// Physical coordinates of node `n` of local element `e`.
  std::array<double, 3> node_xyz(std::int64_t e, std::int64_t n) const;

  /// Semi-discrete right-hand side dc/dt = L(c, t). Collective.
  void rhs(par::Comm& comm, std::span<const double> c, double t,
           std::span<double> out) const;

  /// One LSERK(5,4) step of size dt. Collective.
  void step(par::Comm& comm, std::span<double> c, double t, double dt) const;

  /// CFL-stable time step estimate at time t. Collective.
  double stable_dt(par::Comm& comm, double t, double cfl = 0.3) const;

  /// Quadrature integral of c over the domain. Collective.
  double integral(par::Comm& comm, std::span<const double> c) const;

  /// Per-element smoothness/gradient indicator for MARKELEMENTS.
  std::vector<double> indicator(std::span<const double> c) const;

  /// Flops spent in element derivative kernels since construction.
  std::int64_t kernel_flops() const { return kernel_flops_; }

 private:
  struct Located {
    std::int64_t slot = -1;  // index into local (if < ne) or ghost storage
    std::array<double, 3> ref{};
  };
  bool locate(std::int32_t tree, std::array<double, 3> doubled, Located& out) const;
  double evaluate(const Located& loc, std::span<const double> c,
                  std::span<const double> ghosts) const;

  void derivatives(std::span<const double> u, std::span<double> dx,
                   std::span<double> dy, std::span<double> dz) const;

  DerivativeKernel kernel_;
  bool use_matrix_kernel_ = false;
  GeometryFn geometry_;
  VelocityFn velocity_;
  const forest::Connectivity* conn_;

  std::vector<Octant> elements_;       // local leaves
  std::vector<Octant> combined_;       // local + ghost, SFC-sorted
  std::vector<std::int64_t> combined_slot_;  // -> local index or ne+ghost idx
  std::vector<Octant> ghosts_;
  // Ghost element values, nodes_per_elem() doubles per element: send_idx
  // lists local elements, recv_idx slots of ghosts_.
  par::HaloPlan halo_;

  // Per element-node data, element-major.
  std::vector<double> xyz_;     // ne * n3 * 3
  std::vector<double> dxidx_;   // ne * n3 * 9 (row r = grad xi_r)
  std::vector<double> detj_;    // ne * n3
  std::vector<double> hmin_;    // ne, smallest physical edge scale

  mutable std::int64_t kernel_flops_ = 0;
};

/// Carry DG element nodal values across one local adaptation: children
/// evaluate the parent polynomial at their nodes; parents evaluate each
/// child's polynomial at the parent nodes it covers.
std::vector<double> dg_interpolate_element_values(
    int order, std::span<const Octant> old_leaves,
    std::span<const Octant> new_leaves, const Correspondence& corr,
    std::span<const double> old_vals);

}  // namespace alps::dg
