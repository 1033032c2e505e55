#pragma once
// Cross-solve reuse of the distributed AMG hierarchies (paper Sec. IV:
// the AMG setup is amortized over the ~16 time steps between mesh
// adaptations). The C/F splitting, interpolation operators, and the
// symbolic structure of the Galerkin products depend only on the mesh,
// so between adaptations a viscosity update needs at most the numeric
// RAP pass (DistAmg::refresh_numeric) — and not even that when the
// viscosity has drifted less than a configured tolerance since the
// hierarchy was last built.
//
// The cache is keyed on a mesh epoch owned by whoever owns the mesh
// (rhea::Simulation bumps it on every adapt/repartition/rebuild). The
// Stokes solver consults it at construction: epoch mismatch -> full
// setup; match -> numeric refresh or, below the drift tolerance, no
// setup work at all. A stale *preconditioner* is safe — MINRES always
// iterates with the freshly assembled operator.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "amg/dist_amg.hpp"

namespace alps::amg {

/// Deterministic reuse accounting (rank-local; identical on every rank
/// because all reuse decisions are made collectively).
struct CacheStats {
  std::int64_t full_setups = 0;       // symbolic + numeric hierarchy builds
  std::int64_t numeric_refreshes = 0; // refresh_numeric only
  std::int64_t skipped = 0;           // hierarchy reused untouched
};

class HierarchyCache {
 public:
  std::uint64_t epoch() const { return epoch_; }

  /// Invalidate: the mesh changed (adapt, repartition, rebuild), so every
  /// cached symbolic structure is wrong. Frees the hierarchies.
  void bump_epoch() {
    ++epoch_;
    for (auto& a : amg) a.reset();
    eta_snapshot.clear();
  }

  /// True when the cached hierarchies were built for the current epoch.
  bool valid() const { return built_epoch_ == epoch_ && amg[0] != nullptr; }
  void mark_built() { built_epoch_ = epoch_; }

  /// One hierarchy per velocity component (the three variable-viscosity
  /// Poisson blocks of the Stokes preconditioner).
  std::array<std::unique_ptr<DistAmg>, 3> amg;
  /// Per-quadrature-point viscosity the hierarchies were last (re)built
  /// with; the drift test compares against this, not the previous solve.
  std::vector<double> eta_snapshot;
  CacheStats stats;

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t built_epoch_ = ~std::uint64_t{0};  // never matches epoch 0
};

}  // namespace alps::amg
