#include <cmath>
#include <vector>

#include "la/krylov.hpp"
#include "obs/obs.hpp"

namespace alps::la {

SolveResult cg(const LinOp& op, std::span<const double> b,
               std::span<double> x, const LinOp& precond,
               const MultiDotFn& dots, const KrylovOptions& opt) {
  OBS_HIST_SPAN("la.cg");
  const std::size_t n = x.size();
  std::vector<double> r(n), z(n), p(n), ap(n);
  std::uint64_t syncs = 0;
  const auto dot1 = [&](std::span<const double> u, std::span<const double> v) {
    const DotPair pair{u, v};
    double out = 0.0;
    dots(std::span<const DotPair>(&pair, 1), std::span<double>(&out, 1));
    ++syncs;
    return out;
  };
  const auto dot2 = [&](const DotPair& p0, const DotPair& p1, double& o0,
                        double& o1) {
    const DotPair pair[2] = {p0, p1};
    double out[2] = {0.0, 0.0};
    dots(std::span<const DotPair>(pair, 2), std::span<double>(out, 2));
    ++syncs;
    o0 = out[0];
    o1 = out[1];
  };

  op(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  SolveResult res;
  detail::ConvergenceMonitor mon(opt, res);
  // <r,r> (initial norm) and <r,z> (first beta denominator) fuse into the
  // single startup reduction.
  precond(r, z);
  double rr0 = 0.0, rz = 0.0;
  dot2({r, r}, {r, z}, rr0, rz);
  if (!std::isfinite(rr0)) {
    res.status = SolveStatus::kNonFinite;
    mon.finish();
    obs::counter_add(obs::wellknown::cg_syncs(), syncs);
    return res;
  }
  const double norm0 = std::sqrt(std::max(0.0, rr0));
  if (norm0 == 0.0) {
    res.status = SolveStatus::kConverged;
    mon.finish();
    obs::counter_add(obs::wellknown::cg_syncs(), syncs);
    return res;
  }
  std::copy(z.begin(), z.end(), p.begin());

  for (int j = 1; j <= opt.max_iterations; ++j) {
    op(p, ap);
    const double pap = dot1(p, ap);  // sync 1 of the iteration
    if (!std::isfinite(pap)) {
      res.status = SolveStatus::kNonFinite;
      break;
    }
    if (pap <= 0.0) {  // loss of positive definiteness
      res.status = SolveStatus::kDiverged;
      break;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    // Apply the preconditioner before the convergence test so <r,r> and
    // <r,z> share one reduction: sync 2 of the iteration. On the final
    // (converging) iteration this spends one preconditioner application
    // whose z is discarded — the price of dropping the third allreduce.
    precond(r, z);
    double rr = 0.0, rz_new = 0.0;
    dot2({r, r}, {r, z}, rr, rz_new);
    const double relres =
        std::isfinite(rr) ? std::sqrt(std::max(0.0, rr)) / norm0 : rr;
    if (!mon.update(j, relres)) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  mon.finish();
  obs::counter_add(obs::wellknown::cg_iterations(),
                   static_cast<std::uint64_t>(res.iterations));
  obs::counter_add(obs::wellknown::cg_syncs(), syncs);
  return res;
}

}  // namespace alps::la
