// Per-step physics diagnostics (src/rhea/diagnostics.cpp): exact Gauss
// integrals on adapted meshes with hanging nodes, bit identity of the
// energy assembly's quadrature weights and of the two entry points on
// adapted non-affine shell caps, and agreement of the driver's telemetry with a
// standalone evaluation. Every test runs at P = 1, 2 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "energy/energy.hpp"
#include "fem/operators.hpp"
#include "obs/telemetry.hpp"
#include "octree/balance.hpp"
#include "par/runtime.hpp"
#include "rhea/diagnostics.hpp"
#include "rhea/simulation.hpp"
#include "telemetry_guard.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;
using par::Comm;
using rhea::PhysicsDiagnostics;

constexpr int kRankCounts[] = {1, 2, 4};

// Refine every leaf whose center lies within sqrt(r2) of `center` (up to
// `max_level`), then balance.
void refine_near(Comm& c, Forest& f, const std::array<double, 3>& center,
                 double r2, int max_level) {
  const auto& conn = f.connectivity();
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const octree::Octant& o = f.tree().leaves()[i];
    const octree::coord_t h = octree::octant_len(o.level);
    const auto p =
        conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
    double d2 = 0.0;
    for (std::size_t k = 0; k < 3; ++k)
      d2 += (p[k] - center[k]) * (p[k] - center[k]);
    if (d2 < r2 && o.level < max_level) flags[i] = 1;
  }
  f.tree().adapt(flags, 0, max_level);
  f.balance(c, octree::Adjacency::kFaceEdge);
}

// Uniform at `level`, refined twice around `center`, balanced and evenly
// partitioned.
Forest adapted_forest(Comm& c, Connectivity conn, int level,
                      const std::array<double, 3>& center, double r2) {
  Forest f = Forest::new_uniform(c, std::move(conn), level);
  refine_near(c, f, center, r2, level + 2);
  refine_near(c, f, center, 0.3 * r2, level + 2);
  f.tree().update_ranges(c);
  f.partition(c);
  return f;
}

// The weights the connectivity entry point computes on every call.
std::vector<std::array<double, fem::kQuad>> mapped_jxw(
    const Mesh& m, const Connectivity& conn) {
  std::vector<std::array<double, fem::kQuad>> jxw(m.elements.size());
  for (std::size_t e = 0; e < jxw.size(); ++e)
    jxw[e] = fem::map_element(fem::element_geometry(m, conn, e)).jxw;
  return jxw;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bits(const PhysicsDiagnostics& a,
                      const PhysicsDiagnostics& b) {
  EXPECT_TRUE(same_bits(a.nusselt, b.nusselt)) << a.nusselt << " " << b.nusselt;
  EXPECT_TRUE(same_bits(a.v_rms, b.v_rms)) << a.v_rms << " " << b.v_rms;
  EXPECT_TRUE(same_bits(a.t_min, b.t_min)) << a.t_min << " " << b.t_min;
  EXPECT_TRUE(same_bits(a.t_max, b.t_max)) << a.t_max << " " << b.t_max;
  EXPECT_TRUE(same_bits(a.t_mean, b.t_mean)) << a.t_mean << " " << b.t_mean;
}

// On box-shaped elements T = 1 - z and u = (0, 0, z) lie in the trilinear
// space (hanging nodes included), and the 2x2x2 Gauss rule integrates T,
// u_z T and |u|^2 exactly: <T> = 1/2, <u_z T> = 1/6 and <|u|^2> = 1/3 on
// any box with z in [0, 1]. The weights are the energy assembly's, as in
// the driver.
void expect_exact_integrals(Comm& c, Connectivity conn) {
  SCOPED_TRACE("P = " + std::to_string(c.size()));
  const Forest f =
      adapted_forest(c, std::move(conn), 2, {0.5, 0.5, 0.5}, 0.1);
  const Mesh m = mesh::extract_mesh(c, f);
  std::int64_t hanging = 0;
  for (const auto& corners : m.corners)
    for (const mesh::Corner& cc : corners) hanging += cc.hanging;
  ASSERT_GT(c.allreduce_sum(hanging), 0);

  const std::vector<double> t = fem::interpolate(
      m, [](const std::array<double, 3>& p) { return 1.0 - p[2]; });
  std::vector<double> sol(static_cast<std::size_t>(m.n_local) * 4, 0.0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.n_local); ++i)
    sol[4 * i + 2] = m.dof_coords[i][2];
  const energy::EnergySolver es(c, m, f.connectivity(), sol,
                                energy::EnergyOptions{});
  const double kappa = 0.25;
  const PhysicsDiagnostics d = rhea::compute_physics_diagnostics(
      c, m, es.element_jxw(), t, sol, kappa);
  EXPECT_NEAR(d.t_mean, 0.5, 1e-12);
  EXPECT_NEAR(d.v_rms, std::sqrt(1.0 / 3.0), 1e-12);
  EXPECT_NEAR(d.nusselt, 1.0 + (1.0 / 6.0) / kappa, 1e-12);
  EXPECT_NEAR(d.t_min, 0.0, 1e-12);
  EXPECT_NEAR(d.t_max, 1.0, 1e-12);
}

TEST(Diagnostics, ExactIntegralsOnAdaptedUnitCube) {
  for (const int p : kRankCounts)
    alps::par::run(p, [](Comm& c) {
      expect_exact_integrals(c, Connectivity::unit_cube());
    });
}

TEST(Diagnostics, ExactIntegralsOnTwoTreeBrick) {
  for (const int p : kRankCounts)
    alps::par::run(p, [](Comm& c) {
      expect_exact_integrals(c, Connectivity::brick(2, 1, 1));
    });
}

// The +x, +y and +z caps of Connectivity::cubed_sphere_shell(): its 12
// trees with the same corners. Their trilinear maps are non-affine and
// their frames are rotated against each other. The other three caps are
// left-handed under the trilinear map (negative Jacobian), which
// fem::map_element does not accept.
Connectivity positive_shell_caps() {
  std::vector<forest::TreeCorners> corners;
  for (int axis = 0; axis < 3; ++axis) {
    const int b = (axis + 1) % 3, cax = (axis + 2) % 3;
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 2; ++i) {
        forest::TreeCorners tc{};
        for (int k = 0; k < 8; ++k) {
          std::array<int, 3> q{};
          q[static_cast<std::size_t>(axis)] = 2;
          q[static_cast<std::size_t>(b)] = -2 + 2 * i + ((k & 1) ? 2 : 0);
          q[static_cast<std::size_t>(cax)] = -2 + 2 * j + ((k & 2) ? 2 : 0);
          const int scale = (k & 4) ? 2 : 1;
          tc[static_cast<std::size_t>(k)] = {scale * q[0], scale * q[1],
                                             scale * q[2]};
        }
        corners.push_back(tc);
      }
  }
  return Connectivity::from_corners(corners);
}

// Both weight sources evaluate the same map_element call per element, so
// this pins the data flow (one row per element, in element order, kept
// by the energy assembly and consumed by the kernel), not the geometry.
TEST(Diagnostics, WeightsAndEntryPointsAreBitIdentical) {
  for (const int p : kRankCounts)
    alps::par::run(p, [](Comm& c) {
      SCOPED_TRACE("P = " + std::to_string(c.size()));
      const Forest f =
          adapted_forest(c, positive_shell_caps(), 1, {3.0, 1.0, 1.0}, 1.0);
      const Mesh m = mesh::extract_mesh(c, f);
      const Connectivity& conn = f.connectivity();
      std::vector<double> sol(static_cast<std::size_t>(m.n_local) * 4, 0.0);
      for (std::size_t i = 0; i < static_cast<std::size_t>(m.n_local); ++i) {
        const std::array<double, 3>& x = m.dof_coords[i];
        sol[4 * i] = -0.3 * x[1];
        sol[4 * i + 1] = 0.3 * x[0];
        sol[4 * i + 2] = 0.1 * x[2];
      }
      const std::vector<double> t =
          fem::interpolate(m, [](const std::array<double, 3>& x) {
            return std::exp(-0.1 * (x[0] * x[0] + x[1] * x[1])) *
                   (1.0 + 0.2 * x[2]);
          });

      const energy::EnergySolver es(c, m, conn, sol, energy::EnergyOptions{});
      const auto cached = es.element_jxw();
      const auto mapped = mapped_jxw(m, conn);
      std::size_t differ = cached.size() == mapped.size() ? 0 : 1;
      std::int64_t non_affine = 0;
      for (std::size_t e = 0; e < std::min(cached.size(), mapped.size()); ++e) {
        differ += std::memcmp(cached[e].data(), mapped[e].data(),
                              sizeof mapped[e]) != 0;
        const auto [lo, hi] = std::minmax_element(mapped[e].begin(),
                                                  mapped[e].end());
        non_affine += *lo > 0.0 && *hi > *lo * (1.0 + 1e-9);
      }
      EXPECT_EQ(differ, 0u);
      EXPECT_EQ(c.allreduce_sum(non_affine),
                c.allreduce_sum(static_cast<std::int64_t>(mapped.size())));

      const double kappa = 0.5;
      const PhysicsDiagnostics d =
          rhea::compute_physics_diagnostics(c, m, cached, t, sol, kappa);
      expect_same_bits(
          d, rhea::compute_physics_diagnostics(c, m, conn, t, sol, kappa));
      EXPECT_GT(d.v_rms, 0.0);
      EXPECT_NE(d.nusselt, 1.0);
      EXPECT_LT(d.t_min, d.t_max);
    });
}

// Whether the record carries `key` as the telemetry writer renders `v`.
bool has_field(const std::string& rec, const char* key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  const std::string f = "\"" + std::string(key) + "\": " + buf;
  return rec.find(f + ",") != std::string::npos ||
         rec.find(f + "}") != std::string::npos;
}

TEST(Diagnostics, TelemetryMatchesStandaloneEvaluation) {
  const test::TelemetryOn telemetry("diagnostics.jsonl");
  for (const int p : kRankCounts)
    alps::par::run(p, [](Comm& c) {
      SCOPED_TRACE("P = " + std::to_string(c.size()));
      rhea::SimConfig cfg;
      cfg.init_level = 2;
      cfg.min_level = 2;
      cfg.max_level = 4;
      cfg.initial_adapt_rounds = 1;
      cfg.adapt_every = 3;  // the last record follows an adaptation
      cfg.energy.kappa = 1e-2;
      cfg.energy.dirichlet_faces = 0b111111;
      cfg.prescribed_velocity = [](const std::array<double, 3>& x, double) {
        return std::array<double, 3>{0.5, 0.0, 0.4 * x[0]};
      };
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& x) {
        const double dx = x[0] - 0.35, dy = x[1] - 0.5, dz = x[2] - 0.5;
        return std::exp(-30.0 * (dx * dx + dy * dy + dz * dz));
      });
      sim.run(4);
      EXPECT_EQ(sim.adapt_history().size(), 1u);

      const PhysicsDiagnostics d = rhea::compute_physics_diagnostics(
          c, sim.mesh(), sim.forest().connectivity(), sim.temperature(),
          sim.solution(), cfg.energy.kappa);
      EXPECT_NE(d.nusselt, 1.0);
      if (c.rank() != 0) return;
      const std::vector<std::string> tail = obs::telemetry_tail();
      ASSERT_FALSE(tail.empty());
      const std::string& rec = tail.back();
      EXPECT_NE(rec.find("\"step\": 4,"), std::string::npos) << rec;
      EXPECT_TRUE(has_field(rec, "nusselt", d.nusselt)) << rec;
      EXPECT_TRUE(has_field(rec, "v_rms", d.v_rms)) << rec;
      EXPECT_TRUE(has_field(rec, "t_min", d.t_min)) << rec;
      EXPECT_TRUE(has_field(rec, "t_max", d.t_max)) << rec;
      EXPECT_TRUE(has_field(rec, "t_mean", d.t_mean)) << rec;
    });
}

}  // namespace
