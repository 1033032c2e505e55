#include "fem/stokes_operator.hpp"

#include "fem/operators.hpp"
#include "obs/obs.hpp"

namespace alps::fem {

namespace {

constexpr std::size_t L = GatherPlan::kLanes;
constexpr std::size_t kQ = kQuad;
constexpr std::size_t kQuadStride = 11;  // J^-T (9), |J|w, eta|J|w

// Sum factorization on the 2x2x2 tensor-product element. A field of lane
// vectors is indexed like hex8's nodes and Gauss points, i = i0 + 2 i1 +
// 4 i2 (bit 0 -> x). Along one axis, shape values at the two Gauss points
// g = 1/2 -+ 1/(2 sqrt 3) form B = [[kB, kA], [kA, kB]] (symmetric, so it
// is its own transpose), and shape derivatives form D = [[-1, 1], [-1, 1]].
// A gradient direction is D along its axis and B along the other two, so
// the 8x8x3 reference-gradient table becomes six 2x2 passes per field.
constexpr double kA = 0.21132486540518711775;  // 1/2 - 1/(2 sqrt 3)
constexpr double kB = 0.78867513459481288225;  // 1/2 + 1/(2 sqrt 3)

using Field = double[8][L];

template <std::size_t S>
[[gnu::always_inline]] inline void interp(const Field& in, Field& out) {
#pragma GCC unroll 8
  for (std::size_t j = 0; j < 8; ++j) {
    if (j & S) continue;
    for (std::size_t l = 0; l < L; ++l) {
      const double lo = in[j][l], hi = in[j + S][l];
      out[j][l] = kB * lo + kA * hi;
      out[j + S][l] = kA * lo + kB * hi;
    }
  }
}

template <std::size_t S>
[[gnu::always_inline]] inline void diff(const Field& in, Field& out) {
#pragma GCC unroll 8
  for (std::size_t j = 0; j < 8; ++j) {
    if (j & S) continue;
    for (std::size_t l = 0; l < L; ++l)
      out[j][l] = out[j + S][l] = in[j + S][l] - in[j][l];
  }
}

/// D^T along one axis: both nodes receive -+ the sum over the two points.
template <std::size_t S>
[[gnu::always_inline]] inline void diff_t(const Field& in, Field& out) {
#pragma GCC unroll 8
  for (std::size_t j = 0; j < 8; ++j) {
    if (j & S) continue;
    for (std::size_t l = 0; l < L; ++l) {
      const double s = in[j][l] + in[j + S][l];
      out[j][l] = -s;
      out[j + S][l] = s;
    }
  }
}

[[gnu::always_inline]] inline void add_to(const Field& in, Field& acc) {
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t l = 0; l < L; ++l) acc[j][l] += in[j][l];
}

/// Gather + quadrature-point saddle kernel + scatter for ONE batch of
/// kLanes elements; qd is the batch's quadrature data. Every lane loop
/// runs over independent elements, so it vectorizes without FP
/// reassociation (no -ffast-math needed). -O2 does not fully unroll the
/// fixed 3- and 8-trip loops, so they carry unroll pragmas: the
/// per-point temporaries then live in registers.
ALPS_APPLY_CLONES
void stokes_batch(std::size_t ns, const double* __restrict qd,
                  const std::int32_t* __restrict gb,
                  const double* __restrict w, const double* __restrict x,
                  double* __restrict y) {
  double xe[32 * L], ye[32 * L];
  gather_batch(4, ns, gb, w, x, xe);

  // Nodal fields -> reference gradients gr[c][e] and pressure at the
  // Gauss points.
  Field u, t0, t1, t2, gr[3][3], pq;
#pragma GCC unroll 4
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t l = 0; l < L; ++l) u[i][l] = xe[(i * 4 + c) * L + l];
    interp<1>(u, t0);
    if (c == 3) {
      interp<2>(t0, t1);
      interp<4>(t1, pq);
      break;
    }
    diff<1>(u, t1);
    interp<2>(t1, t2);
    interp<4>(t2, gr[c][0]);
    diff<2>(t0, t1);
    interp<4>(t1, gr[c][1]);
    interp<2>(t0, t1);
    diff<4>(t1, gr[c][2]);
  }

  // Pointwise physics. r[c][e] = (T J^-T)_ce with the weighted stress
  // T = eta (G + G^T) |J|w - p |J|w I, G = J^-T gr the physical velocity
  // gradient; pc = the pressure row's integrand, -|J|w div u (B u) -
  // (1/eta_bar)|J|w p (M p).
  const double* inv_eta_bar = qd + kQ * kQuadStride * L;
  Field r[3][3], pc, jw;
  double mp[L] = {}, vol[L] = {};
  for (std::size_t q = 0; q < kQ; ++q) {
    const double* jit = qd + q * kQuadStride * L;  // [3*dd+e][lane]
    const double* jxw = jit + 9 * L;
    const double* ejxw = jit + 10 * L;
    double g[3][3][L], t[3][3][L];
#pragma GCC unroll 3
    for (std::size_t c = 0; c < 3; ++c)
#pragma GCC unroll 3
      for (std::size_t dd = 0; dd < 3; ++dd)
        for (std::size_t l = 0; l < L; ++l)
          g[c][dd][l] = jit[(dd * 3) * L + l] * gr[c][0][q][l] +
                        jit[(dd * 3 + 1) * L + l] * gr[c][1][q][l] +
                        jit[(dd * 3 + 2) * L + l] * gr[c][2][q][l];
#pragma GCC unroll 3
    for (std::size_t c = 0; c < 3; ++c)
#pragma GCC unroll 3
      for (std::size_t dd = 0; dd < 3; ++dd)
        for (std::size_t l = 0; l < L; ++l)
          t[c][dd][l] = ejxw[l] * (g[c][dd][l] + g[dd][c][l]);
    for (std::size_t l = 0; l < L; ++l) {
      const double pw = jxw[l] * pq[q][l];
      t[0][0][l] -= pw;
      t[1][1][l] -= pw;
      t[2][2][l] -= pw;
      pc[q][l] = -jxw[l] * (g[0][0][l] + g[1][1][l] + g[2][2][l]) -
                 inv_eta_bar[l] * pw;
      jw[q][l] = jxw[l];
      mp[l] += pw;
      vol[l] += jxw[l];
    }
#pragma GCC unroll 3
    for (std::size_t c = 0; c < 3; ++c)
#pragma GCC unroll 3
      for (std::size_t e = 0; e < 3; ++e)
        for (std::size_t l = 0; l < L; ++l)
          r[c][e][q][l] = t[c][0][l] * jit[e * L + l] +
                          t[c][1][l] * jit[(3 + e) * L + l] +
                          t[c][2][l] * jit[(6 + e) * L + l];
  }

  // Back to the nodes with the transposed passes: velocity rows
  // sum_e (d phi_i / d xi_e) r[c][e], pressure rows phi_i pc plus the
  // projection's rank-one part (1/eta_bar) m_i (m.p) / vol, m_i = int phi_i.
  Field a, b;
#pragma GCC unroll 3
  for (std::size_t c = 0; c < 3; ++c) {
    diff_t<4>(r[c][2], t0);
    interp<2>(t0, a);
    interp<4>(r[c][1], t0);
    diff_t<2>(t0, t1);
    add_to(t1, a);
    interp<4>(r[c][0], t0);
    interp<2>(t0, t1);
    interp<1>(a, u);
    diff_t<1>(t1, b);
    add_to(b, u);
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t l = 0; l < L; ++l) ye[(i * 4 + c) * L + l] = u[i][l];
  }
  for (std::size_t l = 0; l < L; ++l) mp[l] *= inv_eta_bar[l] / vol[l];
  interp<4>(pc, t0);
  interp<2>(t0, t1);
  interp<1>(t1, u);
  interp<4>(jw, t0);
  interp<2>(t0, t1);
  interp<1>(t1, b);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t l = 0; l < L; ++l)
      ye[(i * 4 + 3) * L + l] = u[i][l] + b[i][l] * mp[l];

  scatter_batch(4, ns, gb, w, ye, y);
}

}  // namespace

StokesOperator::StokesOperator(const mesh::Mesh& m, VelocityBc bc)
    : mesh_(&m), dirichlet_(static_cast<std::size_t>(m.n_local) * 4, 0) {
  for (std::size_t d = 0; d < static_cast<std::size_t>(m.n_local); ++d)
    for (int c = 0; c < 3; ++c)
      dirichlet_[d * 4 + static_cast<std::size_t>(c)] =
          velocity_dirichlet(m.dof_boundary[d], c, bc);
  plan_.build(m, 4, dirichlet_);
  quad_.assign(plan_.n_batches * kElementDoubles * L, 0.0);
  for (std::size_t b = 0; b < plan_.n_batches; ++b)
    for (std::size_t q = 0; q < kQ; ++q)
      for (std::size_t l = 0; l < L; ++l)
        quad_[(b * kElementDoubles + q * kQuadStride + 9) * L + l] = 1.0;
}

void StokesOperator::set_element(std::size_t e, const MappedQuad& mq,
                                 std::span<const double, kQuad> eta_q) {
  const std::size_t lane = plan_.lane_in_batch(e);
  double* d = quad_.data() + plan_.batch_of(e) * kElementDoubles * L;
  double eta_bar = 0.0;
  for (std::size_t q = 0; q < kQ; ++q) {
    double* dq = d + q * kQuadStride * L;
    for (std::size_t k = 0; k < 9; ++k) dq[k * L + lane] = mq.jit[q][k];
    dq[9 * L + lane] = mq.jxw[q];
    dq[10 * L + lane] = eta_q[q] * mq.jxw[q];
    eta_bar += eta_q[q];
  }
  d[kQ * kQuadStride * L + lane] = static_cast<double>(kQ) / eta_bar;
}

void StokesOperator::apply(par::Comm& comm, std::span<const double> x,
                           std::span<double> y) const {
  OBS_HIST_SPAN("fem.apply");
  plan_.apply_overlapped(
      comm, *mesh_, y, [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b)
          stokes_batch(plan_.slots[b], quad_.data() + b * kElementDoubles * L,
                       plan_.gbase.data() + b * 32 * L,
                       plan_.w_bc.data() + b * 32 * 4 * L, x.data(),
                       y.data());
      });
  plan_.finish_with_identity_rows(comm, *mesh_, x, y);
}

}  // namespace alps::fem
