#pragma once
// Steady-state 3D finite-volume heat solver (HotSpot-equivalent, Sec. V-C).
//
// The chip stack is discretized into nx×ny cells per layer. Each cell
// exchanges heat laterally within its layer and vertically with the layers
// above/below through series thermal conductances; the top (TIM → heat
// transfer coefficient) and bottom (PCB → ambient) faces are convective
// boundaries. The conductance network (the physics HotSpot's grid model
// integrates) is solved by conjugate gradients, preconditioned with an exact
// tridiagonal solve down each lateral column, until the recomputed true
// residual shows GridConfig::tolerance_C bounds every cell's error.

#include <cstddef>
#include <string>
#include <vector>

namespace h3dfact::thermal {

/// One layer of the stack (die, bond, TIM, package, PCB, ...).
struct Layer {
  std::string name;
  double thickness_um = 100.0;
  double k_W_mK = 100.0;            ///< thermal conductivity
  std::vector<double> power_W;      ///< optional nx*ny heat injection (W/cell)
};

/// Solver configuration.
struct GridConfig {
  std::size_t nx = 24, ny = 24;
  double width_mm = 1.0, height_mm = 1.0;
  double h_top_W_m2K = 1000.0;      ///< convective coefficient at the top face
  double h_bottom_W_m2K = 20.0;     ///< PCB underside
  double ambient_C = 25.0;
  /// Accuracy of solve(): the bound on each cell's temperature error. The
  /// solve stops once ‖M⁻¹(P − A·θ)‖∞ ≤ tolerance_C / 100.
  double tolerance_C = 2e-6;
};

/// Per-layer temperature summary.
struct LayerTemps {
  std::string name;
  double min_C = 0.0, max_C = 0.0, mean_C = 0.0;
  std::vector<double> cells_C;  ///< nx*ny map (row-major, iy*nx+ix; iy=0 south)
};

/// Solution of one solve() call.
struct ThermalSolution {
  std::vector<LayerTemps> layers;
  std::size_t sweeps = 0;    ///< conjugate-gradient iterations run
  double residual_C = 0.0;   ///< final ‖M⁻¹(P − A·θ)‖∞, recomputed (°C)
  bool converged = false;    ///< residual_C ≤ tolerance_C / 100

  [[nodiscard]] const LayerTemps& layer(const std::string& name) const;
  [[nodiscard]] double hottest_C() const;
};

/// The solver.
class ThermalGrid {
 public:
  /// Throws std::invalid_argument for an invalid grid, layer or power map,
  /// and for boundary coefficients that are negative, non-finite or both
  /// zero (no path to ambient).
  ThermalGrid(GridConfig config, std::vector<Layer> layers);

  [[nodiscard]] const GridConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }

  /// Steady-state solve; deterministic for a given configuration.
  [[nodiscard]] ThermalSolution solve() const;

  /// Total injected power (W) — sanity check against the design's budget.
  [[nodiscard]] double total_power_W() const;

 private:
  GridConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace h3dfact::thermal
