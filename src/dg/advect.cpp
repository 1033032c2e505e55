#include "dg/advect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mesh/ghost.hpp"

namespace alps::dg {

namespace {

using octree::coord_t;
using octree::kMaxLevel;
using octree::morton_encode;
using octree::octant_len;
using octree::SfcKey;

constexpr double kNudge = 1e-6;  // doubled-coordinate units

// LSERK(5,4) coefficients (Carpenter & Kennedy).
constexpr double kRkA[5] = {0.0, -567301805773.0 / 1357537059087.0,
                            -2404267990393.0 / 2016746695238.0,
                            -3550918686646.0 / 2091501179385.0,
                            -1275806237668.0 / 842570457699.0};
constexpr double kRkB[5] = {1432997174477.0 / 9575080441755.0,
                            5161836677717.0 / 13612068292357.0,
                            1720146321549.0 / 2090206949498.0,
                            3134564353537.0 / 4481467310338.0,
                            2277821191437.0 / 14882151754819.0};
constexpr double kRkC[5] = {0.0, 1432997174477.0 / 9575080441755.0,
                            2526269341429.0 / 6820363962896.0,
                            2006345519317.0 / 3224310063776.0,
                            2802321613138.0 / 2924317926251.0};

/// Evaluate the nodal polynomial `vals` ((p+1)^3, z-order tensor grid) at
/// reference point r.
double eval_poly(const LglRule& rule, std::span<const double> vals,
                 const std::array<double, 3>& r) {
  const std::size_t n = rule.nodes.size();
  const std::vector<double> lx = lagrange_at(rule, r[0]);
  const std::vector<double> ly = lagrange_at(rule, r[1]);
  const std::vector<double> lz = lagrange_at(rule, r[2]);
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j) {
      double row = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        row += lx[i] * vals[(k * n + j) * n + i];
      s += row * ly[j] * lz[k];
    }
  return s;
}

}  // namespace

DgAdvection::DgAdvection(par::Comm& comm, const Forest& forest, int order,
                         GeometryFn geometry, VelocityFn velocity,
                         bool use_matrix_kernel, std::span<const Octant> ghosts)
    : kernel_(order), use_matrix_kernel_(use_matrix_kernel),
      geometry_(std::move(geometry)), velocity_(std::move(velocity)),
      conn_(&forest.connectivity()) {
  const octree::LinearOctree& tree = forest.tree();
  elements_ = tree.leaves();
  if (ghosts.empty())
    ghosts_ = mesh::ghost_layer(comm, tree, *conn_);
  else
    ghosts_.assign(ghosts.begin(), ghosts.end());

  // Combined sorted table with slots.
  const std::int64_t ne = static_cast<std::int64_t>(elements_.size());
  std::vector<std::pair<Octant, std::int64_t>> entries;
  for (std::int64_t e = 0; e < ne; ++e) entries.emplace_back(elements_[static_cast<std::size_t>(e)], e);
  for (std::size_t g = 0; g < ghosts_.size(); ++g)
    entries.emplace_back(ghosts_[g], ne + static_cast<std::int64_t>(g));
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return octree::sfc_less(a.first, b.first); });
  combined_.reserve(entries.size());
  combined_slot_.reserve(entries.size());
  for (const auto& [o, s] : entries) {
    combined_.push_back(o);
    combined_slot_.push_back(s);
  }

  // Send lists: the mirror of ghost_layer's routing.
  const int p = comm.size();
  halo_.send_idx.assign(static_cast<std::size_t>(p), {});
  {
    std::vector<std::vector<std::int32_t>> raw(static_cast<std::size_t>(p));
    Octant n;
    for (std::int64_t e = 0; e < ne; ++e) {
      const Octant& o = elements_[static_cast<std::size_t>(e)];
      for (int d = 0; d < octree::kNumAllDirs; ++d) {
        if (!conn_->neighbor_across(o, d, n)) continue;
        const int lo = tree.owner_of(octree::key_of(n));
        const int hi = tree.owner_of(SfcKey{n.tree, n.morton_last()});
        for (int r = lo; r <= hi; ++r)
          if (r != comm.rank())
            raw[static_cast<std::size_t>(r)].push_back(static_cast<std::int32_t>(e));
      }
    }
    for (int r = 0; r < p; ++r) {
      auto& v = raw[static_cast<std::size_t>(r)];
      // Sort in SFC order (matching ghost_layer's dedup order) and unique.
      std::sort(v.begin(), v.end(), [this](std::int32_t a, std::int32_t b) {
        return octree::sfc_less(elements_[static_cast<std::size_t>(a)],
                                elements_[static_cast<std::size_t>(b)]);
      });
      v.erase(std::unique(v.begin(), v.end()), v.end());
      halo_.send_idx[static_cast<std::size_t>(r)] = std::move(v);
    }
  }

  // Geometry and metric terms at the element nodes.
  const std::int64_t n3 = nodes_per_elem();
  const std::int64_t n1 = kernel_.n1d();
  const LglRule& rule = kernel_.rule();
  xyz_.resize(static_cast<std::size_t>(ne * n3 * 3));
  dxidx_.resize(static_cast<std::size_t>(ne * n3 * 9));
  detj_.resize(static_cast<std::size_t>(ne * n3));
  hmin_.resize(static_cast<std::size_t>(ne));
  const double nn = static_cast<double>(coord_t{1} << kMaxLevel);
  std::vector<double> coord(static_cast<std::size_t>(n3));
  std::array<std::vector<double>, 3> dcoord;
  for (auto& v : dcoord) v.resize(static_cast<std::size_t>(n3));
  std::vector<double> jac(static_cast<std::size_t>(n3 * 9));
  for (std::int64_t e = 0; e < ne; ++e) {
    const Octant& o = elements_[static_cast<std::size_t>(e)];
    const double h = static_cast<double>(octant_len(o.level));
    for (std::int64_t k = 0; k < n1; ++k)
      for (std::int64_t j = 0; j < n1; ++j)
        for (std::int64_t i = 0; i < n1; ++i) {
          const std::int64_t nidx = (k * n1 + j) * n1 + i;
          const std::array<double, 3> ref = {
              (o.x + rule.nodes[static_cast<std::size_t>(i)] * h) / nn,
              (o.y + rule.nodes[static_cast<std::size_t>(j)] * h) / nn,
              (o.z + rule.nodes[static_cast<std::size_t>(k)] * h) / nn};
          const auto x = geometry_(o.tree, ref);
          for (int d = 0; d < 3; ++d)
            xyz_[static_cast<std::size_t>((e * n3 + nidx) * 3 + d)] =
                x[static_cast<std::size_t>(d)];
        }
    // Differentiate each coordinate field (element-local reference).
    for (int d = 0; d < 3; ++d) {
      for (std::int64_t nidx = 0; nidx < n3; ++nidx)
        coord[static_cast<std::size_t>(nidx)] =
            xyz_[static_cast<std::size_t>((e * n3 + nidx) * 3 + d)];
      kernel_.apply_tensor(coord, dcoord[0], dcoord[1], dcoord[2]);
      for (std::int64_t nidx = 0; nidx < n3; ++nidx)
        for (int a = 0; a < 3; ++a)
          jac[static_cast<std::size_t>(nidx * 9 + d * 3 + a)] =
              dcoord[static_cast<std::size_t>(a)][static_cast<std::size_t>(nidx)];
    }
    double hm = 1e300;
    for (std::int64_t nidx = 0; nidx < n3; ++nidx) {
      const double* jj = jac.data() + nidx * 9;  // jj[d*3+a] = dX_d/dxi_a
      const double det =
          jj[0] * (jj[4] * jj[8] - jj[5] * jj[7]) -
          jj[1] * (jj[3] * jj[8] - jj[5] * jj[6]) +
          jj[2] * (jj[3] * jj[7] - jj[4] * jj[6]);
      // Note jj is column-layout wrt [d][a]; compute det of J with
      // J[d][a] = jj[d*3+a]:
      const double j00 = jj[0], j01 = jj[1], j02 = jj[2];
      const double j10 = jj[3], j11 = jj[4], j12 = jj[5];
      const double j20 = jj[6], j21 = jj[7], j22 = jj[8];
      const double dj = j00 * (j11 * j22 - j12 * j21) -
                        j01 * (j10 * j22 - j12 * j20) +
                        j02 * (j10 * j21 - j11 * j20);
      (void)det;
      detj_[static_cast<std::size_t>(e * n3 + nidx)] = dj;
      // Inverse: dxi_a/dX_d = (1/det) cofactor.
      double* gi = dxidx_.data() + (e * n3 + nidx) * 9;  // gi[a*3+d]
      gi[0 * 3 + 0] = (j11 * j22 - j12 * j21) / dj;
      gi[0 * 3 + 1] = (j02 * j21 - j01 * j22) / dj;
      gi[0 * 3 + 2] = (j01 * j12 - j02 * j11) / dj;
      gi[1 * 3 + 0] = (j12 * j20 - j10 * j22) / dj;
      gi[1 * 3 + 1] = (j00 * j22 - j02 * j20) / dj;
      gi[1 * 3 + 2] = (j02 * j10 - j00 * j12) / dj;
      gi[2 * 3 + 0] = (j10 * j21 - j11 * j20) / dj;
      gi[2 * 3 + 1] = (j01 * j20 - j00 * j21) / dj;
      gi[2 * 3 + 2] = (j00 * j11 - j01 * j10) / dj;
      for (int a = 0; a < 3; ++a) {
        const double len = std::sqrt(jj[0 * 3 + a] * jj[0 * 3 + a] +
                                     jj[1 * 3 + a] * jj[1 * 3 + a] +
                                     jj[2 * 3 + a] * jj[2 * 3 + a]);
        hm = std::min(hm, len);
      }
    }
    hmin_[static_cast<std::size_t>(e)] = hm;
  }

  // Handshake: learn the ghost ordering of incoming value streams.
  // (Each rank sends the octants in its send order; we match them to our
  // ghost table once, so value exchanges are raw doubles afterwards.)
  {
    std::vector<std::vector<octree::WireOctant>> out(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      for (std::int32_t e : halo_.send_idx[static_cast<std::size_t>(r)])
        out[static_cast<std::size_t>(r)].push_back(
            octree::WireOctant(elements_[static_cast<std::size_t>(e)]));
    std::vector<std::vector<octree::WireOctant>> in = comm.alltoallv(out);
    halo_.recv_idx.assign(static_cast<std::size_t>(p), {});
    for (int r = 0; r < p; ++r)
      for (const octree::WireOctant& w : in[static_cast<std::size_t>(r)]) {
        const Octant o = w.octant();
        auto it = std::lower_bound(ghosts_.begin(), ghosts_.end(), o,
                                   octree::sfc_less);
        if (it == ghosts_.end() || !(*it == o))
          throw std::runtime_error("DgAdvection: ghost handshake mismatch");
        halo_.recv_idx[static_cast<std::size_t>(r)].push_back(
            static_cast<std::int32_t>(it - ghosts_.begin()));
      }
  }
}

void DgAdvection::derivatives(std::span<const double> u,
                              std::span<double> dx, std::span<double> dy,
                              std::span<double> dz) const {
  if (use_matrix_kernel_) {
    kernel_.apply_matrix(u, dx, dy, dz);
    kernel_flops_ += kernel_.flops_matrix();
  } else {
    kernel_.apply_tensor(u, dx, dy, dz);
    kernel_flops_ += kernel_.flops_tensor();
  }
}

bool DgAdvection::locate(std::int32_t tree, std::array<double, 3> d2,
                         Located& out) const {
  const double extent = static_cast<double>(std::int64_t{2} << kMaxLevel);
  for (int attempt = 0; attempt < 4; ++attempt) {
    int axis = -1, side = 0;
    for (int d = 0; d < 3 && axis < 0; ++d) {
      // Strict inequalities: a point exactly on the domain boundary is
      // inside (tangential coordinates of face nodes land there).
      if (d2[static_cast<std::size_t>(d)] < 0.0) {
        axis = d;
        side = 0;
      } else if (d2[static_cast<std::size_t>(d)] > extent) {
        axis = d;
        side = 1;
      }
    }
    if (axis < 0) break;
    const int f = 2 * axis + side;
    const forest::FaceTransform& t = conn_->face(tree, f);
    if (t.nbr_tree < 0) return false;
    std::array<double, 3> mapped{};
    for (int r = 0; r < 3; ++r) {
      double acc = static_cast<double>(t.trans[static_cast<std::size_t>(r)]);
      for (int k = 0; k < 3; ++k)
        acc += t.rot[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)] *
               d2[static_cast<std::size_t>(k)];
      mapped[static_cast<std::size_t>(r)] = acc;
    }
    d2 = mapped;
    tree = t.nbr_tree;
  }
  // Integer cell containing the point.
  const coord_t nmax = (coord_t{1} << kMaxLevel) - 1;
  Octant cell;
  cell.tree = tree;
  cell.level = kMaxLevel;
  cell.x = static_cast<coord_t>(std::clamp(std::floor(d2[0] / 2.0), 0.0,
                                           static_cast<double>(nmax)));
  cell.y = static_cast<coord_t>(std::clamp(std::floor(d2[1] / 2.0), 0.0,
                                           static_cast<double>(nmax)));
  cell.z = static_cast<coord_t>(std::clamp(std::floor(d2[2] / 2.0), 0.0,
                                           static_cast<double>(nmax)));
  const SfcKey key = octree::key_of(cell);
  auto it = std::upper_bound(
      combined_.begin(), combined_.end(), key,
      [](const SfcKey& k, const Octant& l) { return k < octree::key_of(l); });
  if (it == combined_.begin()) return false;
  --it;
  if (!(it->tree == cell.tree && (*it == cell || it->is_ancestor_of(cell))))
    return false;
  const std::size_t ci = static_cast<std::size_t>(it - combined_.begin());
  out.slot = combined_slot_[ci];
  const Octant& leaf = combined_[ci];
  const double h = static_cast<double>(octant_len(leaf.level));
  out.ref = {(d2[0] / 2.0 - leaf.x) / h, (d2[1] / 2.0 - leaf.y) / h,
             (d2[2] / 2.0 - leaf.z) / h};
  for (int d = 0; d < 3; ++d) {
    double& r = out.ref[static_cast<std::size_t>(d)];
    if (r < 1e-6) r = 0.0;
    if (r > 1.0 - 1e-6) r = 1.0;
  }
  return true;
}

double DgAdvection::evaluate(const Located& loc, std::span<const double> c,
                             std::span<const double> ghosts) const {
  const std::int64_t n3 = nodes_per_elem();
  const std::int64_t ne = num_local_elements();
  std::span<const double> vals =
      loc.slot < ne
          ? c.subspan(static_cast<std::size_t>(loc.slot * n3),
                      static_cast<std::size_t>(n3))
          : ghosts.subspan(static_cast<std::size_t>((loc.slot - ne) * n3),
                           static_cast<std::size_t>(n3));
  return eval_poly(kernel_.rule(), vals, loc.ref);
}

std::vector<double> DgAdvection::interpolate(
    const std::function<double(const std::array<double, 3>&)>& f) const {
  const std::int64_t n3 = nodes_per_elem();
  std::vector<double> c(static_cast<std::size_t>(num_local_elements() * n3));
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = f({xyz_[3 * i], xyz_[3 * i + 1], xyz_[3 * i + 2]});
  return c;
}

std::array<double, 3> DgAdvection::node_xyz(std::int64_t e,
                                            std::int64_t n) const {
  const std::size_t b = static_cast<std::size_t>((e * nodes_per_elem() + n) * 3);
  return {xyz_[b], xyz_[b + 1], xyz_[b + 2]};
}

void DgAdvection::rhs(par::Comm& comm, std::span<const double> c, double t,
                      std::span<double> out) const {
  const std::int64_t ne = num_local_elements();
  const std::int64_t n3 = nodes_per_elem();
  std::vector<double> ghosts(ghosts_.size() * static_cast<std::size_t>(n3), 0.0);
  halo_.forward<double>(comm, c, ghosts, static_cast<int>(n3));
  const std::int64_t n1 = kernel_.n1d();
  const LglRule& rule = kernel_.rule();
  const double w0 = rule.weights.front();
  const double nn = static_cast<double>(coord_t{1} << kMaxLevel);

  std::vector<double> dx(static_cast<std::size_t>(n3)),
      dy(static_cast<std::size_t>(n3)), dz(static_cast<std::size_t>(n3));
  for (std::int64_t e = 0; e < ne; ++e) {
    const Octant& o = elements_[static_cast<std::size_t>(e)];
    const double h = static_cast<double>(octant_len(o.level));
    derivatives(c.subspan(static_cast<std::size_t>(e * n3),
                          static_cast<std::size_t>(n3)),
                dx, dy, dz);
    // Volume term: -u . grad c.
    for (std::int64_t nidx = 0; nidx < n3; ++nidx) {
      const std::size_t xb = static_cast<std::size_t>((e * n3 + nidx) * 3);
      const std::array<double, 3> x = {xyz_[xb], xyz_[xb + 1], xyz_[xb + 2]};
      const auto u = velocity_(x, t);
      const double* gi = dxidx_.data() + (e * n3 + nidx) * 9;
      double s = 0.0;
      const double dref[3] = {dx[static_cast<std::size_t>(nidx)],
                              dy[static_cast<std::size_t>(nidx)],
                              dz[static_cast<std::size_t>(nidx)]};
      for (int a = 0; a < 3; ++a) {
        const double ua =
            u[0] * gi[a * 3 + 0] + u[1] * gi[a * 3 + 1] + u[2] * gi[a * 3 + 2];
        s += ua * dref[a];
      }
      out[static_cast<std::size_t>(e * n3 + nidx)] = -s;
    }
    // Face terms: upwind penalty at inflow nodes.
    for (int f = 0; f < 6; ++f) {
      const int axis = f / 2, side = f % 2;
      Octant nb;
      const bool interior = conn_->neighbor_across(o, f, nb);
      for (std::int64_t b = 0; b < n1; ++b)
        for (std::int64_t a = 0; a < n1; ++a) {
          std::int64_t idx[3];
          idx[axis] = side ? n1 - 1 : 0;
          idx[(axis + 1) % 3] = a;
          idx[(axis + 2) % 3] = b;
          const std::int64_t nidx = (idx[2] * n1 + idx[1]) * n1 + idx[0];
          const std::size_t xb = static_cast<std::size_t>((e * n3 + nidx) * 3);
          const std::array<double, 3> x = {xyz_[xb], xyz_[xb + 1], xyz_[xb + 2]};
          const auto u = velocity_(x, t);
          const double* gi = dxidx_.data() + (e * n3 + nidx) * 9;
          const double ga[3] = {gi[axis * 3 + 0], gi[axis * 3 + 1],
                                gi[axis * 3 + 2]};
          const double glen =
              std::sqrt(ga[0] * ga[0] + ga[1] * ga[1] + ga[2] * ga[2]);
          const double sign = side ? 1.0 : -1.0;
          const double un =
              sign * (u[0] * ga[0] + u[1] * ga[1] + u[2] * ga[2]) / glen;
          if (un >= 0.0) continue;  // outflow: nothing to do
          const double cint = c[static_cast<std::size_t>(e * n3 + nidx)];
          double cext = 0.0;  // boundary inflow value
          if (interior) {
            const std::array<double, 3> ref = {
                (o.x + rule.nodes[static_cast<std::size_t>(idx[0])] * h),
                (o.y + rule.nodes[static_cast<std::size_t>(idx[1])] * h),
                (o.z + rule.nodes[static_cast<std::size_t>(idx[2])] * h)};
            std::array<double, 3> d2 = {2.0 * ref[0], 2.0 * ref[1],
                                        2.0 * ref[2]};
            d2[static_cast<std::size_t>(axis)] += sign * kNudge;
            Located loc;
            if (locate(o.tree, d2, loc))
              cext = evaluate(loc, c, ghosts);
            else
              cext = cint;  // cone point fallback: no jump
          }
          out[static_cast<std::size_t>(e * n3 + nidx)] +=
              (glen / w0) * un * (cint - cext);
        }
    }
    (void)nn;
  }
}

void DgAdvection::step(par::Comm& comm, std::span<double> c, double t,
                       double dt) const {
  std::vector<double> res(c.size(), 0.0), k(c.size());
  for (int s = 0; s < 5; ++s) {
    rhs(comm, c, t + kRkC[s] * dt, k);
    for (std::size_t i = 0; i < c.size(); ++i) {
      res[i] = kRkA[s] * res[i] + dt * k[i];
      c[i] += kRkB[s] * res[i];
    }
  }
}

double DgAdvection::stable_dt(par::Comm& comm, double t, double cfl) const {
  const std::int64_t ne = num_local_elements();
  const std::int64_t n3 = nodes_per_elem();
  double dt = 1e300;
  for (std::int64_t e = 0; e < ne; ++e) {
    double umax = 1e-12;
    for (std::int64_t nidx = 0; nidx < n3; ++nidx) {
      const std::size_t xb = static_cast<std::size_t>((e * n3 + nidx) * 3);
      const auto u = velocity_({xyz_[xb], xyz_[xb + 1], xyz_[xb + 2]}, t);
      umax = std::max(umax,
                      std::sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]));
    }
    const double p1 = kernel_.order() + 1;
    dt = std::min(dt, hmin_[static_cast<std::size_t>(e)] / (umax * p1 * p1));
  }
  return cfl * comm.allreduce_min(dt);
}

double DgAdvection::integral(par::Comm& comm, std::span<const double> c) const {
  const std::int64_t ne = num_local_elements();
  const std::int64_t n1 = kernel_.n1d();
  const LglRule& rule = kernel_.rule();
  double s = 0.0;
  for (std::int64_t e = 0; e < ne; ++e)
    for (std::int64_t k = 0; k < n1; ++k)
      for (std::int64_t j = 0; j < n1; ++j)
        for (std::int64_t i = 0; i < n1; ++i) {
          const std::int64_t nidx = (k * n1 + j) * n1 + i;
          const double w = rule.weights[static_cast<std::size_t>(i)] *
                           rule.weights[static_cast<std::size_t>(j)] *
                           rule.weights[static_cast<std::size_t>(k)];
          s += w * detj_[static_cast<std::size_t>(e * nodes_per_elem() + nidx)] *
               c[static_cast<std::size_t>(e * nodes_per_elem() + nidx)];
        }
  return comm.allreduce_sum(s);
}

std::vector<double> DgAdvection::indicator(std::span<const double> c) const {
  const std::int64_t ne = num_local_elements();
  const std::int64_t n3 = nodes_per_elem();
  std::vector<double> eta(static_cast<std::size_t>(ne));
  std::vector<double> dx(static_cast<std::size_t>(n3)),
      dy(static_cast<std::size_t>(n3)), dz(static_cast<std::size_t>(n3));
  for (std::int64_t e = 0; e < ne; ++e) {
    kernel_.apply_tensor(c.subspan(static_cast<std::size_t>(e * n3),
                                   static_cast<std::size_t>(n3)),
                         dx, dy, dz);
    kernel_flops_ += kernel_.flops_tensor();
    double g2 = 0.0;
    for (std::int64_t nidx = 0; nidx < n3; ++nidx) {
      const double* gi = dxidx_.data() + (e * n3 + nidx) * 9;
      double gx = 0, gy = 0, gz = 0;
      const double dref[3] = {dx[static_cast<std::size_t>(nidx)],
                              dy[static_cast<std::size_t>(nidx)],
                              dz[static_cast<std::size_t>(nidx)]};
      for (int a = 0; a < 3; ++a) {
        gx += gi[a * 3 + 0] * dref[a];
        gy += gi[a * 3 + 1] * dref[a];
        gz += gi[a * 3 + 2] * dref[a];
      }
      g2 += gx * gx + gy * gy + gz * gz;
    }
    const double h = hmin_[static_cast<std::size_t>(e)];
    eta[static_cast<std::size_t>(e)] =
        std::pow(h, 1.5) * std::sqrt(g2 / static_cast<double>(n3));
  }
  return eta;
}

std::vector<double> dg_interpolate_element_values(
    int order, std::span<const Octant> old_leaves,
    std::span<const Octant> new_leaves, const Correspondence& corr,
    std::span<const double> old_vals) {
  const LglRule rule = lgl_rule(order);
  const std::int64_t n1 = order + 1;
  const std::int64_t n3 = n1 * n1 * n1;
  std::vector<double> out(new_leaves.size() * static_cast<std::size_t>(n3));
  for (std::size_t j = 0; j < new_leaves.size(); ++j) {
    const Correspondence::Entry& en = corr.entries[j];
    const Octant& nw = new_leaves[j];
    if (en.kind == Correspondence::Kind::kSame) {
      std::copy(old_vals.begin() + en.old_begin * n3,
                old_vals.begin() + (en.old_begin + 1) * n3,
                out.begin() + static_cast<std::ptrdiff_t>(j) * n3);
      continue;
    }
    for (std::int64_t k = 0; k < n1; ++k)
      for (std::int64_t jj = 0; jj < n1; ++jj)
        for (std::int64_t i = 0; i < n1; ++i) {
          const std::int64_t nidx = (k * n1 + jj) * n1 + i;
          const std::array<double, 3> xi = {
              rule.nodes[static_cast<std::size_t>(i)],
              rule.nodes[static_cast<std::size_t>(jj)],
              rule.nodes[static_cast<std::size_t>(k)]};
          double v;
          if (en.kind == Correspondence::Kind::kRefined) {
            const Octant& od = old_leaves[static_cast<std::size_t>(en.old_begin)];
            const double ho = static_cast<double>(octree::octant_len(od.level));
            const double hn = static_cast<double>(octree::octant_len(nw.level));
            const std::array<double, 3> r = {
                (nw.x - od.x + xi[0] * hn) / ho, (nw.y - od.y + xi[1] * hn) / ho,
                (nw.z - od.z + xi[2] * hn) / ho};
            v = eval_poly(rule,
                          old_vals.subspan(
                              static_cast<std::size_t>(en.old_begin * n3),
                              static_cast<std::size_t>(n3)),
                          r);
          } else {  // kCoarsened: evaluate the covering child's polynomial
            const int qx = xi[0] > 0.5 ? 1 : 0;
            const int qy = xi[1] > 0.5 ? 1 : 0;
            const int qz = xi[2] > 0.5 ? 1 : 0;
            const std::int64_t child = en.old_begin + (qz * 4 + qy * 2 + qx);
            const std::array<double, 3> r = {2.0 * xi[0] - qx, 2.0 * xi[1] - qy,
                                             2.0 * xi[2] - qz};
            v = eval_poly(rule,
                          old_vals.subspan(static_cast<std::size_t>(child * n3),
                                           static_cast<std::size_t>(n3)),
                          r);
          }
          out[j * static_cast<std::size_t>(n3) + static_cast<std::size_t>(nidx)] = v;
        }
  }
  return out;
}

}  // namespace alps::dg
