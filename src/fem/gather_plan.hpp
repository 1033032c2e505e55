#pragma once
// Lane-batched gather/scatter plan shared by the element operators
// (ElementOperator, StokesOperator). Elements are sorted into boundary
// (touching a ghost dof) and interior sets and packed kLanes at a time;
// each batch carries flattened gather/scatter index + weight tables for
// its corners, with hanging-node constraints resolved to their masters
// and the Dirichlet mask folded into a second weight table. An operator
// packs its own per-element data (matrices or quadrature-point data) in
// the same lane order, runs its batch kernel between gather_batch and
// scatter_batch, and drives the boundary-first halo overlap through
// apply_overlapped. Pad lanes carry dof base 0 with zero weights, so they
// read zeros and add exactly nothing.
//
// Multi-component fields use node-major layout: value index =
// local_dof * ncomp + component.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "la/krylov.hpp"
#include "mesh/mesh.hpp"

// The default build targets baseline x86-64 (16-byte vectors). The batch
// kernels are the compute-heavy loop nests of the apply path, so let GCC
// emit AVX2/AVX-512 clones of them and dispatch by CPU at load time — the
// portable binary then runs 4- or 8-wide on the machines that have it
// without a -march=native build.
//
// Not under ThreadSanitizer: GCC instruments the clones' ifunc resolver,
// which the dynamic loader runs before the TSan runtime is initialized,
// so the process segfaults before main.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define ALPS_APPLY_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ALPS_APPLY_CLONES
#endif

namespace alps::fem {

struct GatherPlan {
  /// Elements per SIMD batch.
  static constexpr std::size_t kLanes = 4;

  int ncomp = 1;
  std::size_t n_batches = 0;         // total kLanes-wide batches
  std::size_t boundary_batches = 0;  // prefix of batches
  std::size_t n_boundary = 0;        // real (unpadded) element counts
  std::size_t n_interior = 0;
  std::vector<std::int32_t> lane_of;  // [element] batch * kLanes + lane
  std::vector<std::int32_t> gbase;  // [batch][corner*4+slot][lane] = dof*nc
  std::vector<double> w_raw;        // [batch][(corner*4+slot)*nc+c][lane]
  std::vector<double> w_bc;         // w_raw with the Dirichlet mask folded in
  std::vector<std::uint8_t> slots;  // [batch] max constraint fan-in (1..4)
  std::vector<std::int32_t> owned_dirichlet;  // value idx < n_owned*nc

  /// Build from the mesh and a per-value Dirichlet mask (n_local * ncomp).
  void build(const mesh::Mesh& m, int nc,
             std::span<const std::uint8_t> dirichlet);

  std::size_t batch_of(std::size_t e) const {
    return static_cast<std::size_t>(lane_of[e]) / kLanes;
  }
  std::size_t lane_in_batch(std::size_t e) const {
    return static_cast<std::size_t>(lane_of[e]) % kLanes;
  }

  /// y = sum over batches of run(b0, b1)'s scatters, summed across ranks
  /// onto the owners: boundary batches first, then the ghost accumulate is
  /// posted and the interior batches stream while it is in flight.
  /// Ghost slots of y are zero on return (exchange to refresh them).
  template <class RunBatches>
  void apply_overlapped(par::Comm& comm, const mesh::Mesh& m,
                        std::span<double> y, RunBatches&& run) const {
    std::fill(y.begin(), y.end(), 0.0);
    run(std::size_t{0}, boundary_batches);
    m.accumulate_start(comm, y, ncomp);
    run(boundary_batches, n_batches);
    m.accumulate_finish(comm, y, ncomp);
  }

  /// Identity rows, then the ghost refresh. The masked weights dropped
  /// every contribution into a constrained row, so owned Dirichlet values
  /// are restored from x before the exchange packs them — ghost copies
  /// then arrive from their owners with the same value (x is
  /// ghost-consistent). No O(n) masking pass.
  void finish_with_identity_rows(par::Comm& comm, const mesh::Mesh& m,
                                 std::span<const double> x,
                                 std::span<double> y) const {
    for (std::int32_t i : owned_dirichlet)
      y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    m.exchange_start(comm, y, ncomp);
    m.exchange_finish(comm, y, ncomp);
  }

  std::uint64_t memory_bytes() const {
    using obs::vec_bytes;
    return vec_bytes(lane_of) + vec_bytes(gbase) + vec_bytes(w_raw) +
           vec_bytes(w_bc) + vec_bytes(slots) + vec_bytes(owned_dirichlet);
  }
};

// Gather and scatter for ONE batch, inlined into each operator's batch
// kernel (and into every target clone of it). nc = components, ns = max
// constraint fan-in of the batch. Lanes may share dofs (neighboring
// elements), so the scatter's lane loop stays sequential.
[[gnu::always_inline]] inline void gather_batch(
    std::size_t nc, std::size_t ns, const std::int32_t* __restrict gb,
    const double* __restrict w, const double* __restrict x,
    double* __restrict xe) {
  constexpr std::size_t L = GatherPlan::kLanes;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t c = 0; c < nc; ++c) {
      double acc[L] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          acc[l] += w[(s * nc + c) * L + l] *
                    x[static_cast<std::size_t>(gb[s * L + l]) + c];
      }
      for (std::size_t l = 0; l < L; ++l) xe[(i * nc + c) * L + l] = acc[l];
    }
  }
}

[[gnu::always_inline]] inline void scatter_batch(
    std::size_t nc, std::size_t ns, const std::int32_t* __restrict gb,
    const double* __restrict w, const double* __restrict ye,
    double* __restrict y) {
  constexpr std::size_t L = GatherPlan::kLanes;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          y[static_cast<std::size_t>(gb[s * L + l]) + c] +=
              w[(s * nc + c) * L + l] * ye[(i * nc + c) * L + l];
      }
}

/// Fused inner products over the first `owned` values: all pairs reduce
/// in ONE multi-value allreduce (blocked pairwise local sums).
void owned_multi_dot(par::Comm& comm, std::size_t owned,
                     std::span<const la::DotPair> pairs,
                     std::span<double> out);

}  // namespace alps::fem
