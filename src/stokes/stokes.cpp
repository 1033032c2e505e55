#include "stokes/stokes.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

namespace alps::stokes {

StokesSolver::StokesSolver(const Mesh& m, const forest::Connectivity& conn,
                           const StokesOptions& opt)
    : mesh_(&m), conn_(&conn), opt_(opt), op_(m, opt.bc), poisson_(&m, 1),
      cache_(&own_cache_),
      schur_diag_(static_cast<std::size_t>(m.n_local)),
      comp_b_(static_cast<std::size_t>(m.n_owned)),
      comp_x_(static_cast<std::size_t>(m.n_owned)) {}

StokesSolver::StokesSolver(par::Comm& comm, const Mesh& m,
                           const forest::Connectivity& conn,
                           std::span<const double> eta_quad,
                           const StokesOptions& opt,
                           amg::HierarchyCache* cache)
    : StokesSolver(m, conn, opt) {
  if (cache != nullptr) cache_ = cache;
  update(comm, eta_quad);
}

void StokesSolver::update(par::Comm& comm, std::span<const double> eta_quad) {
  // An optional span lets assemble and amg.setup own disjoint phase
  // windows without nesting (nesting would double-count the phase
  // seconds).
  std::optional<obs::Span> phase_span;
  phase_span.emplace("stokes.assemble", obs::Cat::kPhase);
  const Mesh& m = *mesh_;
  const std::size_t ne = m.elements.size();

  std::fill(schur_diag_.begin(), schur_diag_.end(), 0.0);

  for (std::size_t e = 0; e < ne; ++e) {
    const fem::ElemGeom g = fem::element_geometry(m, *conn_, e);
    const fem::MappedQuad mq = fem::map_element(g);
    std::array<double, fem::kQuad> eq;
    double eta_bar = 0.0;
    for (int q = 0; q < fem::kQuad; ++q) {
      eq[static_cast<std::size_t>(q)] = eta_quad[8 * e + static_cast<std::size_t>(q)];
      eta_bar += eq[static_cast<std::size_t>(q)];
    }
    eta_bar /= fem::kQuad;

    op_.set_element(e, mq, eq);
    const fem::Mat8 kpois = fem::stiffness(mq, eq);
    const std::array<double, 8> lm = fem::lumped_mass(mq);

    std::span<double> pm = poisson_.element_matrix(e);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        pm[static_cast<std::size_t>(i) * 8 + static_cast<std::size_t>(j)] =
            kpois[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];

    // Schur diagonal: inverse-viscosity-weighted lumped mass, rounded as
    // (w * lm) / eta_bar, hence not mesh::scatter_add.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        schur_diag_[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])] +=
            cc.w[static_cast<std::size_t>(k)] *
            lm[static_cast<std::size_t>(i)] / eta_bar;
    }
  }
  m.accumulate(comm, schur_diag_);
  m.exchange(comm, schur_diag_);
  phase_span.reset();

  phase_span.emplace("amg.setup", obs::Cat::kPhase);
  // Component c's Poisson matrix: the shared element matrices with c's
  // Dirichlet rows (the saddle operator's velocity_dirichlet set).
  const auto assemble_component = [&](int c) {
    for (std::int64_t d = 0; d < m.n_local; ++d)
      poisson_.set_dirichlet(
          d, 0,
          fem::velocity_dirichlet(m.dof_boundary[static_cast<std::size_t>(d)],
                                  c, opt_.bc));
    return poisson_.assemble_dist(comm);
  };
  auto& hier = cache_->amg;
  if (hier[0] == nullptr) {
    for (int c = 0; c < 3; ++c) {
      // Owned-row distributed assembly + distributed hierarchy: per-rank
      // setup and apply cost is O(N_local), the paper's scalability claim.
      hier[static_cast<std::size_t>(c)] =
          std::make_unique<amg::DistAmg>(comm, assemble_component(c));
    }
    obs::counter_add(obs::wellknown::amg_setup_full(), 1);
  } else {
    // Same mesh as the build: C/F split, interpolation, and the RAP
    // symbolic structure are still exact; only operator values moved
    // with the viscosity.
    for (int c = 0; c < 3; ++c)
      hier[static_cast<std::size_t>(c)]->refresh_numeric(
          comm, assemble_component(c));
    obs::counter_add(obs::wellknown::amg_setup_numeric(), 1);
  }
}

void StokesSolver::apply_preconditioner(par::Comm& comm,
                                        std::span<const double> x,
                                        std::span<double> y) {
  OBS_PHASE_SPAN("amg.apply");
  const Mesh& m = *mesh_;
  const std::size_t no = static_cast<std::size_t>(m.n_owned);
  const std::size_t nl = static_cast<std::size_t>(m.n_local);
  // One distributed V-cycle per velocity component over the owned slices
  // (owned local dofs [0, n_owned) carry gids gid_offset + i, matching
  // the DistCsr row partition); ghosts are refreshed with one halo
  // exchange at the end — no O(N_global) gather.
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < no; ++i)
      comp_b_[i] = x[4 * i + static_cast<std::size_t>(c)];
    std::fill(comp_x_.begin(), comp_x_.end(), 0.0);
    cache_->amg[static_cast<std::size_t>(c)]->vcycle(comm, comp_b_, comp_x_);
    for (std::size_t i = 0; i < no; ++i)
      y[4 * i + static_cast<std::size_t>(c)] = comp_x_[i];
  }
  for (std::size_t i = 0; i < nl; ++i)
    y[4 * i + 3] = x[4 * i + 3] / schur_diag_[i];
  m.exchange(comm, y, 4);
}

la::SolveResult StokesSolver::solve(par::Comm& comm,
                                    std::span<const double> rhs,
                                    std::span<double> x) {
  OBS_PHASE_SPAN("stokes.minres");
  la::LinOp aop = op_.as_linop(comm);
  la::LinOp pre = preconditioner(comm);
  // Keep a residual history by default so the flight recorder always has
  // the last few MINRES convergence curves (identical on all ranks; only
  // rank 0 records to the shared registry).
  la::KrylovOptions kopt = opt_.krylov;
  if (kopt.history_capacity == 0) kopt.history_capacity = 64;
  la::SolveResult r =
      la::minres(aop, rhs, x, pre, op_.as_multi_dot(comm), kopt);
  if (comm.rank() == 0)
    obs::record_history("stokes.minres.relres", r.residual_history);

  // Remove the constant-pressure mode (free-floating for enclosed flow).
  const Mesh& m = *mesh_;
  double psum = 0.0;
  for (std::int64_t i = 0; i < m.n_owned; ++i)
    psum += x[static_cast<std::size_t>(4 * i + 3)];
  const double mean =
      comm.allreduce_sum(psum) / static_cast<double>(m.n_global);
  for (std::int64_t i = 0; i < m.n_local; ++i)
    x[static_cast<std::size_t>(4 * i + 3)] -= mean;
  return r;
}

std::vector<double> StokesSolver::buoyancy_rhs(
    par::Comm& comm, const Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, double rayleigh, int dir,
    const StokesOptions& opt) {
  std::vector<double> rhs(static_cast<std::size_t>(m.n_local) * 4, 0.0);
  std::array<double, 8> te;
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    const fem::Mat8 mm = fem::mass(mq);
    for (std::size_t i = 0; i < 8; ++i)
      te[i] = mesh::gather(m.corners[e][i], temperature);
    for (std::size_t i = 0; i < 8; ++i) {
      double f = 0.0;
      for (std::size_t j = 0; j < 8; ++j) f += mm[i][j] * te[j];
      mesh::scatter_add(m.corners[e][i], rayleigh * f, rhs, 4,
                        static_cast<std::size_t>(dir));
    }
  }
  m.accumulate(comm, rhs, 4);
  m.exchange(comm, rhs, 4);
  // Dirichlet velocity entries carry the boundary value (zero).
  for (std::size_t d = 0; d < static_cast<std::size_t>(m.n_local); ++d)
    for (int c = 0; c < 3; ++c)
      if (fem::velocity_dirichlet(m.dof_boundary[d], c, opt.bc))
        rhs[d * 4 + static_cast<std::size_t>(c)] = 0.0;
  return rhs;
}

}  // namespace alps::stokes
