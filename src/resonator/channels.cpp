#include "resonator/channels.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::resonator {

std::vector<int> ExactChannel::apply(const std::vector<int>& exact,
                                     util::Rng&) const {
  return exact;
}

GaussianChannel::GaussianChannel(double sigma) : sigma_(sigma) {
  if (!(std::isfinite(sigma) && sigma >= 0.0)) {
    throw std::invalid_argument("noise sigma must be finite and >= 0");
  }
}

std::vector<int> GaussianChannel::apply(const std::vector<int>& exact,
                                        util::Rng& rng) const {
  std::vector<int> out(exact.size());
  for (std::size_t m = 0; m < exact.size(); ++m) {
    out[m] = read(exact[m], rng.gaussian());
  }
  return out;
}

int GaussianChannel::read(int x, double z) const {
  // Rng::gaussian(0.0, sigma_)'s arithmetic, so the fused H3dfactChannel
  // and this stage round the same sums.
  return static_cast<int>(std::lround(x + (0.0 + sigma_ * z)));
}

std::string GaussianChannel::describe() const {
  std::ostringstream ss;
  ss << "gaussian(sigma=" << sigma_ << ")";
  return ss.str();
}

AdcChannel::AdcChannel(int bits, double clip, bool signed_range)
    : bits_(bits), clip_(clip), signed_(signed_range) {
  if (bits < 1 || bits > 16) throw std::invalid_argument("ADC bits out of range");
  if (!(std::isfinite(clip) && clip > 0.0)) {
    throw std::invalid_argument("ADC clip must be finite and positive");
  }
  max_code_ = signed_ ? (1 << (bits - 1)) - 1   // e.g. 7 for 4-bit signed
                      : (1 << bits) - 1;        // e.g. 15 for 4-bit unsigned
  step_ = clip_ / static_cast<double>(max_code_);
}

int AdcChannel::quantize(double v) const {
  const double code = std::round(v / step_);
  const double lo = signed_ ? -max_code_ : 0;
  return static_cast<int>(std::clamp<double>(code, lo, max_code_));
}

std::vector<int> AdcChannel::apply(const std::vector<int>& exact,
                                   util::Rng&) const {
  std::vector<int> out(exact.size());
  for (std::size_t m = 0; m < exact.size(); ++m) out[m] = quantize(exact[m]);
  return out;
}

std::string AdcChannel::describe() const {
  std::ostringstream ss;
  ss << "adc(bits=" << bits_ << ", clip=" << clip_
     << (signed_ ? ", signed" : ", unsigned") << ")";
  return ss.str();
}

ThresholdChannel::ThresholdChannel(double threshold) : threshold_(threshold) {
  if (!(std::isfinite(threshold) && threshold >= 0.0)) {
    throw std::invalid_argument("threshold must be finite and >= 0");
  }
}

std::vector<int> ThresholdChannel::apply(const std::vector<int>& exact,
                                         util::Rng&) const {
  std::vector<int> out(exact.size());
  for (std::size_t m = 0; m < exact.size(); ++m) out[m] = gate(exact[m]);
  return out;
}

int ThresholdChannel::gate(int v) const {
  return std::abs(static_cast<double>(v)) < threshold_ ? 0 : v;
}

std::string ThresholdChannel::describe() const {
  std::ostringstream ss;
  ss << "threshold(theta=" << threshold_ << ")";
  return ss.str();
}

TopKChannel::TopKChannel(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("top-k channel needs k >= 1");
}

std::vector<int> TopKChannel::apply(const std::vector<int>& exact,
                                    util::Rng&) const {
  if (exact.size() <= k_) return exact;
  // Find the k-th largest value via a partial copy (M is small).
  std::vector<int> sorted = exact;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
                   sorted.end(), std::greater<int>());
  const int kth = sorted[k_ - 1];
  std::vector<int> out(exact.size(), 0);
  std::size_t kept = 0;
  for (std::size_t m = 0; m < exact.size() && kept < k_; ++m) {
    if (exact[m] > kth) {
      out[m] = exact[m];
      ++kept;
    }
  }
  for (std::size_t m = 0; m < exact.size() && kept < k_; ++m) {
    if (exact[m] == kth && out[m] == 0) {
      out[m] = exact[m];
      ++kept;
    }
  }
  return out;
}

std::string TopKChannel::describe() const {
  std::ostringstream ss;
  ss << "topk(k=" << k_ << ")";
  return ss.str();
}

CompositeChannel::CompositeChannel(
    std::vector<std::shared_ptr<const SimilarityChannel>> stages)
    : stages_(std::move(stages)) {
  if (stages_.empty()) throw std::invalid_argument("empty composite channel");
  for (const auto& s : stages_) {
    if (!s) throw std::invalid_argument("null stage in composite channel");
  }
}

std::vector<int> CompositeChannel::apply(const std::vector<int>& exact,
                                         util::Rng& rng) const {
  std::vector<int> v = exact;
  for (const auto& s : stages_) v = s->apply(v, rng);
  return v;
}

bool CompositeChannel::deterministic() const {
  return std::all_of(stages_.begin(), stages_.end(),
                     [](const auto& s) { return s->deterministic(); });
}

std::string CompositeChannel::describe() const {
  std::string out;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) out += " -> ";
    out += stages_[i]->describe();
  }
  return out;
}

H3dfactChannel::H3dfactChannel(std::size_t dim, double sigma,
                               double threshold, int bits, double clip)
    : noise_(sigma),
      threshold_(threshold),
      adc_(bits, clip, /*signed_range=*/false),
      dim_(static_cast<std::int64_t>(dim)) {
  // One row per exact count in [−dim, dim] plus a sentinel row for inputs
  // outside it, whose cut of 1.0 no u1 in (0, 1] exceeds.
  const std::size_t rows = 2 * dim + 1;
  c0_.resize(rows + 1, 0);
  cut_.resize(rows + 1, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    c0_[i] = code(static_cast<int>(static_cast<std::int64_t>(i) - dim_));
  }
  // The code is monotone in the noisy count, so the counts sharing x's code
  // form one run [lo, hi], and noise of magnitude below
  // min(x − lo, hi − x) + 0.5 keeps lround(x + noise) inside it. The run of
  // code 0 at the bottom edge and of the top code at the top edge continue
  // forever; a run cut by any other edge is treated as ending there. Two
  // run-length passes: distance down first, then up.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMarginCounts = 1e-6;
  std::vector<double> down(rows);
  std::size_t lo = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (c0_[i] != c0_[lo]) lo = i;
    down[i] = lo == 0 && c0_[i] == 0 ? kInf : static_cast<double>(i - lo) + 0.5;
  }
  std::size_t hi = rows - 1;
  for (std::size_t i = rows; i-- > 0;) {
    if (c0_[i] != c0_[hi]) hi = i;
    const double up = hi == rows - 1 && c0_[i] == adc_.max_code()
                          ? kInf
                          : static_cast<double>(hi - i) + 0.5;
    const double radius = (std::min(down[i], up) - kMarginCounts) / sigma;
    cut_[i] = std::exp(-0.5 * radius * radius);
  }
}

int H3dfactChannel::code(int noisy) const {
  return adc_.quantize(threshold_.gate(noisy));
}

int H3dfactChannel::noisy_code(int x, double z) const {
  return code(noise_.read(x, z));
}

std::size_t H3dfactChannel::row(int x) const {
  const std::int64_t i = static_cast<std::int64_t>(x) + dim_;
  return i >= 0 && i <= 2 * dim_ ? static_cast<std::size_t>(i)
                                 : c0_.size() - 1;
}

std::vector<int> H3dfactChannel::apply(const std::vector<int>& exact,
                                       util::Rng& rng) const {
  const std::size_t n = exact.size();
  std::vector<int> out(n);
  std::size_t i = 0;
  if (n > 0 && rng.has_cached_gaussian()) {
    out[0] = noisy_code(exact[0], rng.gaussian());
    i = 1;
  }
  const std::size_t pairs_end = i + (n - i) / 2 * 2;
  for (; i < pairs_end; i += 2) {
    const util::Rng::BoxMullerDraw draw = rng.box_muller_draw();
    const std::size_t a = row(exact[i]);
    const std::size_t b = row(exact[i + 1]);
    if (i + 2 < pairs_end && draw.u1 > std::max(cut_[a], cut_[b])) {
      out[i] = c0_[a];
      out[i + 1] = c0_[b];
      continue;
    }
    out[i] = noisy_code(exact[i], rng.box_muller(draw));
    out[i + 1] = noisy_code(exact[i + 1], rng.gaussian());
  }
  if (i < n) out[i] = noisy_code(exact[i], rng.gaussian());
  return out;
}

std::string H3dfactChannel::describe() const {
  return noise_.describe() + " -> " + threshold_.describe() + " -> " +
         adc_.describe();
}

std::shared_ptr<const SimilarityChannel> make_h3dfact_channel(
    std::size_t dim, int adc_bits, double sigma_frac, double clip_sigmas,
    double threshold_sigmas) {
  // Rectified similarity path → unsigned ADC codes (Sec. IV-B).
  const double crosstalk = std::sqrt(static_cast<double>(dim));
  return std::make_shared<H3dfactChannel>(
      dim, sigma_frac * crosstalk, threshold_sigmas * crosstalk, adc_bits,
      clip_sigmas * crosstalk);
}

}  // namespace h3dfact::resonator
