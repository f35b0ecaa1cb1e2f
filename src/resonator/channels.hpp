#pragma once
// Similarity-path channels (Sec. III-C, Sec. IV-B).
//
// In hardware the similarity vector a = Xᵀu is read out of the RRAM crossbar
// as an analog current and digitized by a SAR ADC. That path is noisy
// (programming variation + read noise + PVT, Fig. 2b) and low-precision
// (4-bit, Fig. 6a). A SimilarityChannel models the transformation applied to
// the exact similarity values before the projection MVM consumes them.
// The resonator's sign() activation is scale-invariant, so channels may
// return values in any positively-scaled unit (e.g. raw ADC codes).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace h3dfact::resonator {

/// Transformation of an exact similarity vector into what the projection
/// tier actually receives.
class SimilarityChannel {
 public:
  virtual ~SimilarityChannel() = default;

  /// exact[m] ∈ [−D, D]; returns the (noisy/quantized) coefficients.
  [[nodiscard]] virtual std::vector<int> apply(const std::vector<int>& exact,
                                               util::Rng& rng) const = 0;

  /// True if the channel is deterministic (identity of randomness unused).
  [[nodiscard]] virtual bool deterministic() const { return false; }

  /// Human-readable description for reports.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Pass-through (ideal digital readout) — the deterministic baseline [9].
class ExactChannel final : public SimilarityChannel {
 public:
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] std::string describe() const override { return "exact"; }
};

/// Additive i.i.d. Gaussian noise with stddev `sigma` (in similarity counts):
/// models aggregated RRAM read noise / PVT variation (Fig. 2b).
class GaussianChannel final : public SimilarityChannel {
 public:
  explicit GaussianChannel(double sigma);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double sigma() const { return sigma_; }

  /// The count read for exact count x under standard-normal draw z.
  [[nodiscard]] int read(int x, double z) const;

 private:
  double sigma_;
};

/// Mid-tread uniform quantizer emulating a `bits`-bit SAR ADC. In signed
/// mode the full scale covers ±clip; in unsigned mode (the H3DFact
/// similarity path, whose activations are rectified) it covers [0, clip]
/// with 2^bits − 1 positive codes. Values inside one step of zero quantize
/// to 0 — coarse ADCs therefore *sparsify* the similarity vector, which is
/// the quantization stochasticity exploited in Fig. 6a.
class AdcChannel final : public SimilarityChannel {
 public:
  AdcChannel(int bits, double clip, bool signed_range = true);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] double clip() const { return clip_; }
  [[nodiscard]] int max_code() const { return max_code_; }
  [[nodiscard]] bool signed_range() const { return signed_; }

  /// Quantize one value to a code in [−max_code, max_code] (signed mode)
  /// or [0, max_code] (unsigned mode).
  [[nodiscard]] int quantize(double v) const;

 private:
  int bits_;
  double clip_;
  bool signed_;
  int max_code_;
  double step_;
};

/// Zero out entries with |a| below `threshold` counts (sense-amp VTGT
/// thresholding; sparsifies like [15]'s in-memory factorizer).
class ThresholdChannel final : public SimilarityChannel {
 public:
  explicit ThresholdChannel(double threshold);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] std::string describe() const override;

  /// 0 if |v| is below the threshold, else v.
  [[nodiscard]] int gate(int v) const;

 private:
  double threshold_;
};

/// Keep only the k largest entries (winner-take-all sensing, an alternative
/// sparsifying nonlinearity to the VTGT threshold; implementable with a
/// current-mode WTA circuit instead of a fixed reference). Ties at the k-th
/// value keep the lower index.
class TopKChannel final : public SimilarityChannel {
 public:
  explicit TopKChannel(std::size_t k);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::size_t k_;
};

/// Applies a sequence of channels in order (e.g. Gaussian → ADC).
class CompositeChannel final : public SimilarityChannel {
 public:
  explicit CompositeChannel(std::vector<std::shared_ptr<const SimilarityChannel>> stages);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::shared_ptr<const SimilarityChannel>> stages_;
};

/// The H3DFact similarity path in one stage: Gaussian read noise of stddev
/// `sigma` counts, then the sense threshold at `threshold` counts, then a
/// `bits`-bit unsigned ADC clipped at `clip` counts.
///
/// Exactness contract: for every input and every generator state, apply()
/// returns the same codes as CompositeChannel{GaussianChannel(sigma),
/// ThresholdChannel(threshold), AdcChannel(bits, clip, unsigned)}, consumes
/// the same draws, and leaves the generator in the same util::RngState,
/// including the stale Box–Muller cache that save_state() serializes.
///
/// Fast path: the code is monotone in the noise, so each exact count x in
/// [−dim, dim] keeps its noiseless code c0(x) for any noise below a radius
/// R(x) (tabulated at construction, less 1e-6 counts of margin). Entries
/// go in Box–Muller pairs; a pair whose radius √(−2 ln u1) is below both
/// entries' R — tested as u1 > exp(−R²/2), with no log, sqrt, sin or cos —
/// takes c0 for both. Everything else runs Rng::gaussian()'s arithmetic:
/// pairs with a larger radius, inputs outside [−dim, dim], a cached draw
/// pending on entry (it feeds entry 0), an odd tail (it leaves the sin half
/// cached) and the last pair of every call (it sets the stale cache).
class H3dfactChannel final : public SimilarityChannel {
 public:
  H3dfactChannel(std::size_t dim, double sigma, double threshold, int bits,
                 double clip);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// Threshold then ADC of the integer the noise stage produced.
  [[nodiscard]] int code(int noisy) const;
  /// Code of exact count x read with standard-normal draw z.
  [[nodiscard]] int noisy_code(int x, double z) const;
  /// Table row of x: x + dim inside [−dim, dim], else the sentinel row.
  [[nodiscard]] std::size_t row(int x) const;

  GaussianChannel noise_;
  ThresholdChannel threshold_;
  AdcChannel adc_;
  std::int64_t dim_;
  std::vector<int> c0_;      ///< noiseless code per row
  std::vector<double> cut_;  ///< u1 above this cannot move the code
};

/// The H3DFact analog similarity path for dimension D: Gaussian read noise
/// of stddev `sigma_frac·√D`, a sense threshold at `threshold_sigmas·√D`
/// (entries below it read as zero — the VTGT decision of Fig. 2), and a
/// `bits`-bit unsigned ADC clipped at `clip_sigmas·√D` counts. The defaults
/// reproduce the paper's configuration: 4-bit ADC, device noise at half the
/// inter-vector crosstalk floor (√D), threshold at 1.5 crosstalk sigmas.
/// Returns the fused H3dfactChannel.
std::shared_ptr<const SimilarityChannel> make_h3dfact_channel(
    std::size_t dim, int adc_bits = 4, double sigma_frac = 0.5,
    double clip_sigmas = 4.0, double threshold_sigmas = 1.5);

}  // namespace h3dfact::resonator
