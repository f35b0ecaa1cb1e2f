// Tests for the thermal solver: conservation/physics sanity on analytic
// configurations, input validation, the tolerance contract against a
// closed form and an independent direct solve, stack construction, and the
// Fig. 5 operating points.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ppa/floorplan.hpp"
#include "thermal/grid.hpp"
#include "thermal/stack.hpp"

namespace {

using namespace h3dfact;
using namespace h3dfact::thermal;

GridConfig tiny_config() {
  GridConfig cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.width_mm = 1.0;
  cfg.height_mm = 1.0;
  cfg.h_top_W_m2K = 1000.0;
  cfg.h_bottom_W_m2K = 0.0;  // adiabatic bottom for analytic checks
  cfg.ambient_C = 25.0;
  return cfg;
}

TEST(ThermalGrid, NoPowerMeansAmbient) {
  std::vector<Layer> layers{{"die", 100.0, 120.0, {}}};
  ThermalGrid grid(tiny_config(), layers);
  auto sol = grid.solve();
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.layers[0].mean_C, 25.0, 1e-6);
  EXPECT_NEAR(sol.layers[0].max_C, sol.layers[0].min_C, 1e-6);
}

TEST(ThermalGrid, UniformPowerMatchesAnalyticConvection) {
  // With uniform power P over area A and only a convective top boundary,
  // steady state sits at T = T_amb + P / (h A).
  auto cfg = tiny_config();
  const double P = 0.05;  // W
  std::vector<double> power(cfg.nx * cfg.ny, P / 64.0);
  std::vector<Layer> layers{{"die", 100.0, 120.0, power}};
  ThermalGrid grid(cfg, layers);
  auto sol = grid.solve();
  const double area_m2 = 1e-3 * 1e-3;
  const double expect = 25.0 + P / (cfg.h_top_W_m2K * area_m2);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.layers[0].mean_C, expect, expect * 0.01);
}

TEST(ThermalGrid, SeriesLayersAddResistance) {
  auto cfg = tiny_config();
  const double P = 0.02;
  std::vector<double> power(cfg.nx * cfg.ny, P / 64.0);
  // Power injected below an insulating layer: the die runs hotter than with
  // a conductive one.
  std::vector<Layer> good{{"tim", 100.0, 40.0, {}}, {"die", 100.0, 120.0, power}};
  std::vector<Layer> bad{{"tim", 100.0, 0.05, {}}, {"die", 100.0, 120.0, power}};
  auto sol_good = ThermalGrid(cfg, good).solve();
  auto sol_bad = ThermalGrid(cfg, bad).solve();
  EXPECT_GT(sol_bad.layer("die").mean_C, sol_good.layer("die").mean_C + 0.5);
}

TEST(ThermalGrid, HotspotSpreadsMonotonically) {
  auto cfg = tiny_config();
  std::vector<double> power(cfg.nx * cfg.ny, 0.0);
  power[3 * cfg.nx + 3] = 0.02;  // point source
  std::vector<Layer> layers{{"die", 200.0, 120.0, power}};
  auto sol = ThermalGrid(cfg, layers).solve();
  const auto& T = sol.layers[0].cells_C;
  // Temperature decays away from the source.
  EXPECT_GT(T[3 * cfg.nx + 3], T[3 * cfg.nx + 6]);
  EXPECT_GT(T[3 * cfg.nx + 3], T[7 * cfg.nx + 3]);
  // Everything is above ambient.
  for (double t : T) EXPECT_GT(t, 25.0 - 1e-9);
}

TEST(ThermalGrid, DeeperLayerHotterThanSurface) {
  // Heat escapes through the top: a powered bottom layer sits hotter than
  // the unpowered top layer.
  auto cfg = tiny_config();
  std::vector<double> power(cfg.nx * cfg.ny, 0.0003);
  std::vector<Layer> layers{{"top", 100.0, 120.0, {}},
                            {"mid", 100.0, 120.0, {}},
                            {"bottom", 100.0, 120.0, power}};
  auto sol = ThermalGrid(cfg, layers).solve();
  EXPECT_GT(sol.layer("bottom").mean_C, sol.layer("top").mean_C);
  EXPECT_GT(sol.layer("mid").mean_C, sol.layer("top").mean_C);
  EXPECT_DOUBLE_EQ(sol.hottest_C(), sol.layer("bottom").max_C);
}

TEST(ThermalGrid, ValidatesInputs) {
  auto cfg = tiny_config();
  EXPECT_THROW(ThermalGrid(cfg, {}), std::invalid_argument);
  std::vector<Layer> bad_thickness{{"die", -1.0, 100.0, {}}};
  EXPECT_THROW(ThermalGrid(cfg, bad_thickness), std::invalid_argument);
  std::vector<Layer> bad_power{{"die", 100.0, 100.0, std::vector<double>(3, 0.0)}};
  EXPECT_THROW(ThermalGrid(cfg, bad_power), std::invalid_argument);
  GridConfig empty = cfg;
  empty.nx = 0;
  EXPECT_THROW(ThermalGrid(empty, {{"die", 100.0, 100.0, {}}}),
               std::invalid_argument);
  // Boundaries: no path to ambient (singular), or an indefinite network.
  const std::vector<Layer> die{{"die", 100.0, 100.0, {}}};
  GridConfig insulated = cfg;
  insulated.h_top_W_m2K = 0.0;
  insulated.h_bottom_W_m2K = 0.0;
  EXPECT_THROW(ThermalGrid(insulated, die), std::invalid_argument);
  GridConfig negative = cfg;
  negative.h_top_W_m2K = -1000.0;
  EXPECT_THROW(ThermalGrid(negative, die), std::invalid_argument);
  GridConfig nan_bottom = cfg;
  nan_bottom.h_bottom_W_m2K = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ThermalGrid(nan_bottom, die), std::invalid_argument);
  GridConfig inf_top = cfg;
  inf_top.h_top_W_m2K = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ThermalGrid(inf_top, die), std::invalid_argument);
  // One open face is enough.
  GridConfig bottom_only = cfg;
  bottom_only.h_top_W_m2K = 0.0;
  bottom_only.h_bottom_W_m2K = 20.0;
  EXPECT_NO_THROW(ThermalGrid(bottom_only, die));
}

// --- tolerance contract -----------------------------------------------------
//
// GridConfig::tolerance_C bounds every cell's error, checked against
// solutions computed without the solver: a closed form, and an independent
// direct solve of the same conductance network.

TEST(ThermalTolerance, UniformPowerColumnMatchesClosedForm) {
  // A laterally uniform power layer under an adiabatic bottom: no lateral
  // flux, so each column is a series chain. Every layer at or above the
  // power layer sits P·(1/g_top + the vertical resistances above it) over
  // ambient; the layers below float at the power layer's temperature.
  GridConfig cfg;
  cfg.nx = 12;
  cfg.ny = 12;
  cfg.width_mm = 2.5;
  cfg.height_mm = 2.5;
  cfg.h_top_W_m2K = 1000.0;
  cfg.h_bottom_W_m2K = 0.0;
  const std::size_t nc = cfg.nx * cfg.ny;
  const double P = 0.4 / static_cast<double>(nc);  // W per cell
  const std::vector<Layer> layers{{"tim", 20.0, 4.0, {}},
                                  {"die-top", 100.0, 120.0, {}},
                                  {"bond", 3.0, 2.5, {}},
                                  {"die-hot", 100.0, 120.0,
                                   std::vector<double>(nc, P)},
                                  {"tsv", 10.0, 2.5, {}},
                                  {"package", 1000.0, 15.0, {}}};
  const std::size_t hot = 3;
  const double area = cfg.width_mm * cfg.height_mm * 1e-6 /
                      static_cast<double>(nc);
  auto half_R = [&](const Layer& l) {
    return l.thickness_um * 1e-6 / (2.0 * l.k_W_mK * area);
  };
  std::vector<double> expect(layers.size());
  expect[0] = P / (cfg.h_top_W_m2K * area);
  for (std::size_t l = 1; l < layers.size(); ++l) {
    expect[l] = expect[l - 1];
    if (l <= hot) expect[l] += P * (half_R(layers[l - 1]) + half_R(layers[l]));
  }

  const auto sol = ThermalGrid(cfg, layers).solve();
  ASSERT_TRUE(sol.converged);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (double t : sol.layers[l].cells_C) {
      EXPECT_NEAR(t, cfg.ambient_C + expect[l], cfg.tolerance_C)
          << layers[l].name;
    }
  }
}

/// Temperatures (solver layout, layer-major) of `grid` by an independent
/// direct solve: the conductance network assembled from the layer
/// parameters, a banded Cholesky factorization, and iterative refinement
/// to a 1e-13 relative true residual.
std::vector<double> reference_temperatures(const ThermalGrid& grid) {
  const GridConfig& cfg = grid.config();
  const std::vector<Layer>& layers = grid.layers();
  const std::size_t nx = cfg.nx, ny = cfg.ny, nl = layers.size();
  const std::size_t nc = nx * ny, n = nc * nl;
  // Column-major unknowns (all layers of a lateral cell adjacent) keep the
  // bandwidth at nx·nl.
  auto id = [&](std::size_t l, std::size_t ix, std::size_t iy) {
    return (iy * nx + ix) * nl + l;
  };
  const double dx = cfg.width_mm * 1e-3 / static_cast<double>(nx);
  const double dy = cfg.height_mm * 1e-3 / static_cast<double>(ny);

  struct Edge {
    std::size_t i, j;  // j < i
    double g;
  };
  std::vector<Edge> edges;
  std::vector<double> diag(n, 0.0), b(n, 0.0);
  auto couple = [&](std::size_t a, std::size_t c, double g) {
    edges.push_back({std::max(a, c), std::min(a, c), g});
    diag[a] += g;
    diag[c] += g;
  };
  for (std::size_t l = 0; l < nl; ++l) {
    const double t = layers[l].thickness_um * 1e-6, k = layers[l].k_W_mK;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = id(l, ix, iy);
        if (ix + 1 < nx) couple(i, id(l, ix + 1, iy), k * dy * t / dx);
        if (iy + 1 < ny) couple(i, id(l, ix, iy + 1), k * dx * t / dy);
        if (l + 1 < nl) {
          const double t2 = layers[l + 1].thickness_um * 1e-6;
          const double k2 = layers[l + 1].k_W_mK;
          couple(i, id(l + 1, ix, iy),
                 dx * dy / (t / (2 * k) + t2 / (2 * k2)));
        }
        if (l == 0) diag[i] += cfg.h_top_W_m2K * dx * dy;
        if (l + 1 == nl) diag[i] += cfg.h_bottom_W_m2K * dx * dy;
        if (!layers[l].power_W.empty()) b[i] = layers[l].power_W[iy * nx + ix];
      }
    }
  }

  // Lower band, row-major: L(i, j) at i*(w+1) + w - (i - j), i - j <= w.
  const std::size_t w = nx * nl;
  std::vector<double> L((w + 1) * n, 0.0);
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return L[i * (w + 1) + w - (i - j)];
  };
  for (std::size_t i = 0; i < n; ++i) at(i, i) = diag[i];
  for (const Edge& e : edges) at(e.i, e.j) = -e.g;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j0 = i > w ? i - w : 0;
    for (std::size_t j = j0; j <= i; ++j) {
      double s = at(i, j);
      for (std::size_t k = std::max(j0, j > w ? j - w : 0); k < j; ++k) {
        s -= at(i, k) * at(j, k);
      }
      at(i, j) = i == j ? std::sqrt(s) : s / at(j, j);
    }
  }
  auto cholesky_solve = [&](std::vector<double> v) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = i > w ? i - w : 0; k < i; ++k) v[i] -= at(i, k) * v[k];
      v[i] /= at(i, i);
    }
    for (std::size_t i = n; i-- > 0;) {
      v[i] /= at(i, i);
      for (std::size_t k = i > w ? i - w : 0; k < i; ++k) v[k] -= at(i, k) * v[i];
    }
    return v;
  };

  // Refine until the normwise backward error ‖b − A·x‖∞ / (‖A‖∞‖x‖∞ +
  // ‖b‖∞) is 1e-13 or less. (Relative to ‖b‖ alone the true residual
  // floors near 1e-12: computing A·x cancels terms that are ~1e3× larger.)
  std::vector<double> row_sum = diag;
  for (const Edge& e : edges) {
    row_sum[e.i] += e.g;
    row_sum[e.j] += e.g;
  }
  const double a_norm = *std::max_element(row_sum.begin(), row_sum.end());
  double b_norm = 0.0;
  for (double v : b) b_norm = std::max(b_norm, std::abs(v));
  std::vector<double> x(n, 0.0), r = b;
  double backward_error = 1.0;
  for (int round = 0; round < 3 && backward_error > 1e-13; ++round) {
    const std::vector<double> step = cholesky_solve(r);
    for (std::size_t i = 0; i < n; ++i) x[i] += step[i];
    r = b;
    for (std::size_t i = 0; i < n; ++i) r[i] -= diag[i] * x[i];
    for (const Edge& e : edges) {
      r[e.i] += e.g * x[e.j];
      r[e.j] += e.g * x[e.i];
    }
    double r_norm = 0.0, x_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r_norm = std::max(r_norm, std::abs(r[i]));
      x_norm = std::max(x_norm, std::abs(x[i]));
    }
    backward_error = r_norm / (a_norm * x_norm + b_norm);
  }
  EXPECT_LE(backward_error, 1e-13) << "reference solve did not converge";

  std::vector<double> T(n);
  for (std::size_t l = 0; l < nl; ++l) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        T[l * nc + iy * nx + ix] = cfg.ambient_C + x[id(l, ix, iy)];
      }
    }
  }
  return T;
}

double max_error_vs_reference(const ThermalGrid& grid) {
  const auto sol = grid.solve();
  EXPECT_TRUE(sol.converged);
  const std::vector<double> ref = reference_temperatures(grid);
  const std::size_t nc = grid.config().nx * grid.config().ny;
  double err = 0.0;
  for (std::size_t l = 0; l < sol.layers.size(); ++l) {
    for (std::size_t c = 0; c < nc; ++c) {
      err = std::max(err, std::abs(sol.layers[l].cells_C[c] - ref[l * nc + c]));
    }
  }
  return err;
}

TEST(ThermalTolerance, Fig5StacksWithinToleranceOfReference) {
  for (const auto kind :
       {arch::DesignKind::kH3dThreeTier, arch::DesignKind::kHybrid2D}) {
    const auto grid =
        build_stack(ppa::build_floorplan(arch::make_design(kind)));
    EXPECT_LE(max_error_vs_reference(grid), grid.config().tolerance_C)
        << (kind == arch::DesignKind::kH3dThreeTier ? "h3d" : "2d");
  }
}

TEST(Stack, BuildsExpectedLayerOrder) {
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto fp = ppa::build_floorplan(d);
  auto grid = build_stack(fp);
  auto sol = grid.solve();
  // TIMs on top, then tier-3/bond/tier-2/tsv/tier-1, bumps, package, pcb.
  ASSERT_EQ(sol.layers.size(), 10u);
  EXPECT_EQ(sol.layers[0].name, "tim2");
  EXPECT_EQ(sol.layers[2].name, "die-tier3");
  EXPECT_EQ(sol.layers[3].name, "bond-f2f");
  EXPECT_EQ(sol.layers[4].name, "die-tier2");
  EXPECT_EQ(sol.layers[5].name, "tsv-f2b");
  EXPECT_EQ(sol.layers[6].name, "die-tier1");
  EXPECT_EQ(sol.layers.back().name, "pcb");
}

TEST(Stack, PowerConservedIntoSolver) {
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto fp = ppa::build_floorplan(d);
  auto grid = build_stack(fp);
  double fp_power = 0.0;
  for (const auto& t : fp) fp_power += t.total_power_W();
  EXPECT_NEAR(grid.total_power_W(), fp_power, fp_power * 0.02);
}

TEST(Stack, Fig5OperatingPointH3d) {
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto fp = ppa::build_floorplan(d);
  auto sol = build_stack(fp).solve();
  ASSERT_TRUE(sol.converged);
  auto dies = die_temps(sol);
  ASSERT_EQ(dies.size(), 3u);
  // Paper: tiers range 46.8–47.8 C at 25 C ambient.
  for (const auto& die : dies) {
    EXPECT_GT(die.mean_C, 43.0) << die.name;
    EXPECT_LT(die.mean_C, 52.0) << die.name;
  }
  // RRAM retention is safe (< 100 C, Sec. V-C).
  EXPECT_LT(sol.hottest_C(), 100.0);
}

TEST(Stack, TwoDRunsCooler) {
  auto h3d = build_stack(ppa::build_floorplan(
                             arch::make_design(arch::DesignKind::kH3dThreeTier)))
                 .solve();
  auto flat = build_stack(ppa::build_floorplan(
                              arch::make_design(arch::DesignKind::kHybrid2D)))
                  .solve();
  ASSERT_TRUE(h3d.converged);
  ASSERT_TRUE(flat.converged);
  // Fig. 5: the 2D design sits ~3–4 C cooler than the 3D stack.
  EXPECT_LT(die_temps(flat)[0].mean_C, die_temps(h3d)[0].mean_C);
}

TEST(Stack, SouthernGradientVisible) {
  // Fig. 5: power density is higher toward the die's southern region.
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto sol = build_stack(ppa::build_floorplan(d)).solve();
  const auto dies = die_temps(sol);
  const auto& t1 = dies.back();  // tier-1 carries the ADC band
  EXPECT_GT(t1.max_C - t1.min_C, 0.02);
}

TEST(Stack, HigherHtcCoolsChip) {
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto fp = ppa::build_floorplan(d);
  StackParams strong;
  strong.h_top_W_m2K = 4000.0;
  auto weak_sol = build_stack(fp).solve();
  auto strong_sol = build_stack(fp, strong).solve();
  EXPECT_LT(strong_sol.hottest_C(), weak_sol.hottest_C() - 5.0);
}

TEST(Stack, LayerLookupThrowsOnUnknown) {
  auto d = arch::make_design(arch::DesignKind::kHybrid2D);
  auto sol = build_stack(ppa::build_floorplan(d)).solve();
  EXPECT_THROW((void)sol.layer("nonexistent"), std::out_of_range);
}

}  // namespace
