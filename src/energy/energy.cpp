#include "energy/energy.hpp"

#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace alps::energy {

EnergySolver::EnergySolver(par::Comm& comm, const Mesh& m,
                           const forest::Connectivity& conn,
                           std::span<const double> velocity,
                           const EnergyOptions& opt)
    : mesh_(&m), opt_(opt) {
  op_ = std::make_unique<fem::ElementOperator>(&m, 1);
  lumped_.assign(static_cast<std::size_t>(m.n_local), 0.0);
  source_.assign(static_cast<std::size_t>(m.n_local), 0.0);
  dt_limit_ = std::numeric_limits<double>::max();
  jxw_.resize(m.elements.size());

  std::array<fem::Vec3, 8> ue;
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const fem::ElemGeom g = fem::element_geometry(m, conn, e);
    const fem::MappedQuad mq = fem::map_element(g);
    jxw_[e] = mq.jxw;
    double speed2 = 0.0;
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int c = 0; c < 3; ++c) {
        double v = 0.0;
        for (int k = 0; k < cc.n; ++k)
          v += cc.w[static_cast<std::size_t>(k)] *
               velocity[static_cast<std::size_t>(
                            cc.dof[static_cast<std::size_t>(k)]) * 4 +
                        static_cast<std::size_t>(c)];
        ue[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] = v;
        speed2 += v * v;
      }
    }
    const double speed = std::sqrt(speed2 / 8.0);
    double vol = 0.0;
    for (double w : mq.jxw) vol += w;
    const double h = std::cbrt(vol);
    const double tau = fem::supg_tau(h, speed, opt_.kappa);

    fem::Mat8 advect, supg_mass;
    fem::advection_supg(mq, ue, opt_.kappa, tau, advect, supg_mass);
    std::span<double> dst = op_->element_matrix(e);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        dst[static_cast<std::size_t>(i) * 8 + static_cast<std::size_t>(j)] =
            advect[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];

    const std::array<double, 8> lm = fem::lumped_mass(mq);
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k) {
        lumped_[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])] +=
            cc.w[static_cast<std::size_t>(k)] * lm[static_cast<std::size_t>(i)];
        source_[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])] +=
            cc.w[static_cast<std::size_t>(k)] * lm[static_cast<std::size_t>(i)] *
            opt_.heat_source;
      }
    }

    // Explicit step limits: advective h/|u| and diffusive h^2/(6 kappa).
    if (speed > 0.0) dt_limit_ = std::min(dt_limit_, h / speed);
    if (opt_.kappa > 0.0)
      dt_limit_ = std::min(dt_limit_, h * h / (6.0 * opt_.kappa));
  }
  m.accumulate(comm, lumped_);
  m.exchange(comm, lumped_);
  m.accumulate(comm, source_);
  m.exchange(comm, source_);

  for (std::int64_t d = 0; d < m.n_local; ++d)
    if (m.dof_boundary[static_cast<std::size_t>(d)] & opt_.dirichlet_faces)
      op_->set_dirichlet(d, 0);
}

void EnergySolver::rate(par::Comm& comm, std::span<const double> t,
                        std::span<double> dtdt) const {
  op_->apply_raw(comm, t, dtdt);
  const Mesh& m = *mesh_;
  for (std::int64_t d = 0; d < m.n_local; ++d) {
    const std::size_t i = static_cast<std::size_t>(d);
    if (m.dof_boundary[i] & opt_.dirichlet_faces)
      dtdt[i] = 0.0;  // boundary temperature held fixed
    else
      dtdt[i] = (source_[i] - dtdt[i]) / lumped_[i];
  }
}

void EnergySolver::step(par::Comm& comm, std::span<double> temperature,
                        double dt) const {
  OBS_SPAN("energy.step");
  const std::size_t n = temperature.size();
  std::vector<double> k1(n), tp(n), k2(n);
  rate(comm, temperature, k1);
  for (std::size_t i = 0; i < n; ++i) tp[i] = temperature[i] + dt * k1[i];
  rate(comm, tp, k2);
  for (std::size_t i = 0; i < n; ++i)
    temperature[i] += 0.5 * dt * (k1[i] + k2[i]);
}

double EnergySolver::stable_dt(par::Comm& comm) const {
  return opt_.cfl_safety * comm.allreduce_min(dt_limit_);
}

}  // namespace alps::energy
