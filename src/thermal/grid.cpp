#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::thermal {

const LayerTemps& ThermalSolution::layer(const std::string& name) const {
  for (const auto& l : layers) {
    if (l.name == name) return l;
  }
  throw std::out_of_range("no such layer: " + name);
}

double ThermalSolution::hottest_C() const {
  double t = -1e30;
  for (const auto& l : layers) t = std::max(t, l.max_C);
  return t;
}

ThermalGrid::ThermalGrid(GridConfig config, std::vector<Layer> layers)
    : config_(std::move(config)), layers_(std::move(layers)) {
  if (layers_.empty()) throw std::invalid_argument("empty layer stack");
  if (config_.nx == 0 || config_.ny == 0) {
    throw std::invalid_argument("grid must be non-empty");
  }
  // A negative or non-finite coefficient makes the network indefinite; two
  // zero ones leave it no path to ambient, so it has no steady state.
  const double h_top = config_.h_top_W_m2K, h_bottom = config_.h_bottom_W_m2K;
  if (!(h_top >= 0 && h_bottom >= 0 && std::isfinite(h_top + h_bottom) &&
        h_top + h_bottom > 0)) {
    throw std::invalid_argument(
        "boundary coefficients must be finite, non-negative, not both zero");
  }
  const std::size_t n = config_.nx * config_.ny;
  for (auto& l : layers_) {
    if (l.thickness_um <= 0 || l.k_W_mK <= 0) {
      throw std::invalid_argument("layer needs positive thickness/conductivity");
    }
    if (!l.power_W.empty() && l.power_W.size() != n) {
      throw std::invalid_argument("power map size mismatch in layer " + l.name);
    }
  }
}

double ThermalGrid::total_power_W() const {
  double p = 0.0;
  for (const auto& l : layers_) {
    for (double w : l.power_W) p += w;
  }
  return p;
}

ThermalSolution ThermalGrid::solve() const {
  const std::size_t nx = config_.nx, ny = config_.ny, nc = nx * ny;
  const std::size_t nl = layers_.size(), n = nl * nc;
  const double dx = config_.width_mm * 1e-3 / static_cast<double>(nx);
  const double dy = config_.height_mm * 1e-3 / static_cast<double>(ny);

  // Conductances. Layer 0 is the TOP of the stack; gz[l] couples layer l to
  // the layer above it (gz[0]: the top face to ambient) and gz[nl] is the
  // bottom face to ambient. Vertical neighbours sit in series half-cells.
  std::vector<double> gx(nl), gy(nl), gz(nl + 1);
  for (std::size_t l = 0; l < nl; ++l) {
    const double t = layers_[l].thickness_um * 1e-6, k = layers_[l].k_W_mK;
    gx[l] = k * dy * t / dx;  // east-west
    gy[l] = k * dx * t / dy;  // north-south
    if (l > 0) {
      const double t_up = layers_[l - 1].thickness_um * 1e-6;
      gz[l] = dx * dy / (t_up / (2 * layers_[l - 1].k_W_mK) + t / (2 * k));
    }
  }
  gz[0] = config_.h_top_W_m2K * dx * dy;
  gz[nl] = config_.h_bottom_W_m2K * dx * dy;

  // out = A·v on rises above ambient, layer-major (l*nc + iy*nx + ix), with
  // adiabatic side walls.
  auto apply = [&](const std::vector<double>& v, std::vector<double>& out) {
    for (std::size_t l = 0, i = 0; l < nl; ++l) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix, ++i) {
          double acc = (gz[l] + gz[l + 1]) * v[i];
          if (l > 0) acc -= gz[l] * v[i - nc];
          if (l + 1 < nl) acc -= gz[l + 1] * v[i + nc];
          if (ix > 0) acc += gx[l] * (v[i] - v[i - 1]);
          if (ix + 1 < nx) acc += gx[l] * (v[i] - v[i + 1]);
          if (iy > 0) acc += gy[l] * (v[i] - v[i - nx]);
          if (iy + 1 < ny) acc += gy[l] * (v[i] - v[i + nx]);
          out[i] = acc;
        }
      }
    }
  };

  // Preconditioner M: the exact tridiagonal block of A for each lateral
  // column through the stack. A column's diagonal depends only on how many
  // east-west and north-south neighbours it has (0-2 each), so the Thomas
  // factors of nine column kinds (kind = 3·ew + ns) cover the grid.
  std::vector<double> inv_pivot(9 * nl), ratio(9 * nl);
  for (std::size_t kind = 0; kind < 9; ++kind) {
    const std::size_t ew = kind / 3, ns = kind % 3;
    double prev = 0.0;  // ratio of the layer above
    for (std::size_t l = 0; l < nl; ++l) {
      const double pivot = static_cast<double>(ew) * gx[l] +
                           static_cast<double>(ns) * gy[l] + gz[l] +
                           gz[l + 1] - gz[l] * prev;
      inv_pivot[kind * nl + l] = 1.0 / pivot;
      prev = ratio[kind * nl + l] = gz[l + 1] / pivot;
    }
  }
  // Preconditioned CG on A·θ = P from θ = 0. Working set: x (θ), r (the
  // residual), p (the direction) and s, which holds A·p and then M⁻¹·r in
  // each iteration.
  std::vector<double> x(n, 0.0), r(n), p(n), s(n);
  auto true_residual = [&] {  // r = P − A·x
    apply(x, r);
    for (std::size_t l = 0; l < nl; ++l) {
      const std::vector<double>& power = layers_[l].power_W;
      for (std::size_t c = 0; c < nc; ++c) {
        r[l * nc + c] = (power.empty() ? 0.0 : power[c]) - r[l * nc + c];
      }
    }
  };
  auto precondition_r = [&] {  // s = M⁻¹·r; returns ‖s‖∞ (°C)
    s = r;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t kind =
            3 * ((ix > 0) + (ix + 1 < nx)) + (iy > 0) + (iy + 1 < ny);
        const double* ip = inv_pivot.data() + kind * nl;
        const double* ra = ratio.data() + kind * nl;
        double* col = s.data() + iy * nx + ix;
        double prev = 0.0;
        for (std::size_t l = 0; l < nl; ++l) {
          prev = col[l * nc] = (col[l * nc] + gz[l] * prev) * ip[l];
        }
        for (std::size_t l = nl - 1; l-- > 0;) {
          col[l * nc] += ra[l] * col[(l + 1) * nc];
        }
      }
    }
    double m = 0.0;
    for (double v : s) m = std::max(m, std::abs(v));
    return m;
  };
  auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
  };

  // Stop on the recomputed true residual in temperature units; the CG
  // recurrence only triggers the check. A converged stack solve's max-cell
  // error measures a few times this quantity, so the factor 100 keeps it
  // well inside tolerance_C.
  const double stop = config_.tolerance_C / 100.0;
  true_residual();
  double z_norm = precondition_r();
  p = s;
  double rz = dot(r, s);
  std::size_t iterations = 0;
  while (z_norm > stop && iterations < n) {  // exact CG ends within n steps
    apply(p, s);
    const double pap = dot(p, s);
    if (!(pap > 0)) break;
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * s[i];
    }
    ++iterations;
    z_norm = precondition_r();
    if (z_norm <= stop) {
      // Check the true residual; on a miss, restart from it.
      true_residual();
      z_norm = precondition_r();
      p = s;
      rz = dot(r, s);
      continue;
    }
    const double rz_next = dot(r, s);
    for (std::size_t i = 0; i < n; ++i) p[i] = s[i] + rz_next / rz * p[i];
    rz = rz_next;
  }
  true_residual();

  ThermalSolution sol;
  sol.sweeps = iterations;
  sol.residual_C = precondition_r();
  sol.converged = sol.residual_C <= stop;
  for (std::size_t l = 0; l < nl; ++l) {
    LayerTemps lt;
    lt.name = layers_[l].name;
    lt.cells_C.assign(x.begin() + l * nc, x.begin() + (l + 1) * nc);
    for (double& t : lt.cells_C) t += config_.ambient_C;
    const auto& T = lt.cells_C;
    lt.min_C = *std::min_element(T.begin(), T.end());
    lt.max_C = *std::max_element(T.begin(), T.end());
    lt.mean_C = std::accumulate(T.begin(), T.end(), 0.0) / static_cast<double>(nc);
    sol.layers.push_back(std::move(lt));
  }
  return sol;
}

}  // namespace h3dfact::thermal
