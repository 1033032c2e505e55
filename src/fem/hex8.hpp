#pragma once
// Trilinear (Q1) hexahedral element kernels (paper Sec. III): shape
// functions on 2x2x2 Gauss quadrature, and the element matrices for the
// stabilized variable-viscosity Stokes system and the SUPG
// advection-diffusion equation. Node order is z-order (bit0 -> +x).

#include <array>
#include <span>

namespace alps::fem {

inline constexpr int kNodes = 8;
inline constexpr int kQuad = 8;  // 2x2x2 Gauss points

using Mat8 = std::array<std::array<double, 8>, 8>;
using Vec3 = std::array<double, 3>;
using ElemGeom = std::array<Vec3, 8>;  // physical corner positions

/// Shape function values at the quadrature points: N[q][i].
const std::array<std::array<double, 8>, kQuad>& shape_values();

/// Quadrature data evaluated on a trilinearly-mapped element.
struct MappedQuad {
  // dN[q][i] = physical gradient of shape i at quad point q.
  std::array<std::array<Vec3, 8>, kQuad> dn;
  std::array<double, kQuad> jxw;  // |J| * weight
  // J^-T at point q, row-major: dn[q][i][d] = sum_e jit[q][3d+e] dN_ref[e].
  std::array<std::array<double, 9>, kQuad> jit;
  std::array<Vec3, kQuad> xq;     // physical position of the point
};

MappedQuad map_element(const ElemGeom& geom);

double element_volume(const ElemGeom& geom);

/// Scalar variable-viscosity stiffness: K_ij = int eta grad(phi_i).grad(phi_j).
/// `eta_q` holds the viscosity at the 8 quadrature points.
Mat8 stiffness(const MappedQuad& mq, std::span<const double, kQuad> eta_q);

/// Consistent mass matrix: M_ij = int phi_i phi_j.
Mat8 mass(const MappedQuad& mq);

/// Row-sum lumped mass vector.
std::array<double, 8> lumped_mass(const MappedQuad& mq);

/// Full viscous block for Stokes: A = int 2 eta eps(u):eps(v), 24x24 with
/// dof order (node-major, component-minor): dof = 3*node + comp.
std::array<std::array<double, 24>, 24> viscous_block(
    const MappedQuad& mq, std::span<const double, kQuad> eta_q);

/// Discrete divergence coupling: B_(p i)(u j,c) = -int phi_i d(phi_j)/dx_c.
/// (The transpose couples pressure gradients back to momentum.)
std::array<std::array<double, 24>, 8> divergence_block(const MappedQuad& mq);

/// Dohrmann-Bochev polynomial pressure projection stabilization:
/// C = (1/eta_bar) (M - m m^T / vol), projecting out the non-constant
/// pressure modes at the element level.
Mat8 pressure_stabilization(const MappedQuad& mq, double eta_bar);

/// SUPG advection-diffusion operator and consistent SUPG mass:
///   L_ij = int (u.grad phi_j)(phi_i + tau u.grad phi_i)
///        + int kappa grad(phi_i).grad(phi_j)
///   Ms_ij = int phi_j (phi_i + tau u.grad phi_i)
/// `vel_nodes[i]` is the velocity at element node i (interpolated to
/// quadrature points internally); tau is the SUPG parameter.
void advection_supg(const MappedQuad& mq,
                    const std::array<Vec3, 8>& vel_nodes, double kappa,
                    double tau, Mat8& advect, Mat8& supg_mass);

/// Standard SUPG parameter for element size h, speed |u|, diffusivity k:
/// tau = h / (2|u|) * (coth(Pe) - 1/Pe) with Pe = |u| h / (2k); safe limits
/// at Pe -> 0 and k -> 0.
double supg_tau(double h, double speed, double kappa);

}  // namespace alps::fem
