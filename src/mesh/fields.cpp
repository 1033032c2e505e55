#include "mesh/fields.hpp"

#include <cassert>
#include <stdexcept>

namespace alps::mesh {

namespace {

double trilinear(std::span<const double> corner_vals, double xi, double eta,
                 double zeta) {
  double v = 0.0;
  for (int k = 0; k < 8; ++k) {
    const double w = ((k & 1) ? xi : 1.0 - xi) * ((k & 2) ? eta : 1.0 - eta) *
                     ((k & 4) ? zeta : 1.0 - zeta);
    v += w * corner_vals[static_cast<std::size_t>(k)];
  }
  return v;
}

}  // namespace

std::vector<double> to_element_values(const Mesh& m,
                                      std::span<const double> nodal) {
  if (static_cast<std::int64_t>(nodal.size()) != m.n_local)
    throw std::invalid_argument("to_element_values: nodal size mismatch");
  std::vector<double> evals(m.elements.size() * 8);
  for (std::size_t e = 0; e < m.elements.size(); ++e)
    for (std::size_t c = 0; c < 8; ++c)
      evals[8 * e + c] = gather(m.corners[e][c], nodal);
  return evals;
}

std::vector<double> from_element_values(par::Comm& comm, const Mesh& m,
                                        std::span<const double> evals) {
  if (evals.size() != m.elements.size() * 8)
    throw std::invalid_argument("from_element_values: size mismatch");
  std::vector<double> nodal(static_cast<std::size_t>(m.n_local), 0.0);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    for (int c = 0; c < 8; ++c) {
      const Corner& cc = m.corners[e][static_cast<std::size_t>(c)];
      if (cc.hanging) continue;
      nodal[static_cast<std::size_t>(cc.dof[0])] =
          evals[8 * e + static_cast<std::size_t>(c)];
    }
  }
  m.exchange(comm, nodal);
  return nodal;
}

std::vector<double> interpolate_element_values(
    std::span<const Octant> old_leaves, std::span<const Octant> new_leaves,
    const Correspondence& corr, std::span<const double> old_vals) {
  if (old_vals.size() != old_leaves.size() * 8)
    throw std::invalid_argument("interpolate: old values size mismatch");
  if (corr.entries.size() != new_leaves.size())
    throw std::invalid_argument("interpolate: correspondence size mismatch");
  std::vector<double> out(new_leaves.size() * 8);
  for (std::size_t j = 0; j < new_leaves.size(); ++j) {
    const Correspondence::Entry& en = corr.entries[j];
    const Octant& nw = new_leaves[j];
    switch (en.kind) {
      case Correspondence::Kind::kSame: {
        const std::size_t b = static_cast<std::size_t>(en.old_begin) * 8;
        for (int c = 0; c < 8; ++c)
          out[8 * j + static_cast<std::size_t>(c)] =
              old_vals[b + static_cast<std::size_t>(c)];
        break;
      }
      case Correspondence::Kind::kRefined: {
        const Octant& od = old_leaves[static_cast<std::size_t>(en.old_begin)];
        const double h_old = static_cast<double>(octree::octant_len(od.level));
        const double h_new = static_cast<double>(octree::octant_len(nw.level));
        const std::span<const double> ov =
            old_vals.subspan(static_cast<std::size_t>(en.old_begin) * 8, 8);
        for (int c = 0; c < 8; ++c) {
          const double xi =
              (static_cast<double>(nw.x - od.x) + ((c & 1) ? h_new : 0.0)) /
              h_old;
          const double eta =
              (static_cast<double>(nw.y - od.y) + ((c & 2) ? h_new : 0.0)) /
              h_old;
          const double zeta =
              (static_cast<double>(nw.z - od.z) + ((c & 4) ? h_new : 0.0)) /
              h_old;
          out[8 * j + static_cast<std::size_t>(c)] = trilinear(ov, xi, eta, zeta);
        }
        break;
      }
      case Correspondence::Kind::kCoarsened: {
        // Single-level coarsening: corner c of the parent is corner c of
        // child c, and children are stored in Morton (== child id) order.
        if (en.old_end - en.old_begin != 8)
          throw std::runtime_error("interpolate: non-8 coarsening group");
        for (int c = 0; c < 8; ++c) {
          const std::size_t child =
              static_cast<std::size_t>(en.old_begin) + static_cast<std::size_t>(c);
          out[8 * j + static_cast<std::size_t>(c)] =
              old_vals[8 * child + static_cast<std::size_t>(c)];
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace alps::mesh
