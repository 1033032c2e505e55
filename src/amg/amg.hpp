#pragma once
// Algebraic multigrid, the BoomerAMG substitute (paper Sec. III): classical
// Ruge-Stüben setup — symmetric strength of connection, greedy C/F
// splitting, direct interpolation, Galerkin RAP coarse operators — and a
// V-cycle with symmetric Gauss-Seidel smoothing, used as the
// preconditioner for the variable-viscosity Poisson blocks of the Stokes
// preconditioner. One V-cycle per application, as in the paper.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/csr.hpp"

namespace alps::amg {

// The one configuration both hierarchies run (BoomerAMG's defaults).
inline constexpr double kStrengthTheta = 0.25;  // classical strength threshold
inline constexpr int kMaxLevels = 25;
inline constexpr std::int64_t kCoarseSize = 64;  // direct solve at or below this
inline constexpr int kPreSmooth = 1;   // forward sweeps before restriction
inline constexpr int kPostSmooth = 1;  // backward sweeps after prolongation

struct LevelStats {
  std::int64_t n = 0;
  std::int64_t nnz = 0;
};

class Amg {
 public:
  /// Setup phase: builds the grid hierarchy (the paper reuses one setup
  /// across the 16 time steps between mesh adaptations).
  explicit Amg(la::Csr a);

  /// One V-cycle applied to A x = b, overwriting x (initial guess zero is
  /// typical for preconditioner use).
  void vcycle(std::span<const double> b, std::span<double> x) const;

  int num_levels() const { return static_cast<int>(stats_.size()); }
  const std::vector<LevelStats>& level_stats() const { return stats_; }
  /// Sum of nnz over all levels / nnz of the finest level.
  double operator_complexity() const;
  /// Sum of unknowns over all levels / unknowns on the finest level.
  double grid_complexity() const;

 private:
  struct Level {
    la::Csr a;
    la::Csr p;  // prolongation to this level from the next-coarser one
    la::Csr r;  // restriction (P^T)
  };

  void cycle(std::size_t lvl, std::span<const double> b,
             std::span<double> x) const;

  std::vector<Level> levels_;  // levels_[k].p/r connect level k and k+1
  std::unique_ptr<la::DenseLu> coarse_;
  la::Csr coarse_a_;
  std::vector<LevelStats> stats_;
  // Scratch buffers per level (mutable: vcycle is logically const).
  mutable std::vector<std::vector<double>> scratch_r_, scratch_x_;
};

}  // namespace alps::amg
