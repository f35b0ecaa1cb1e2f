#pragma once
// Deterministic, fast PRNG for all stochastic simulation in H3DFact.
//
// All randomness in the repository flows through util::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded via SplitMix64 so that nearby seeds
// produce uncorrelated streams.

#include <array>
#include <cstdint>

namespace h3dfact::util {

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Complete serializable state of an Rng: the four xoshiro256** words plus
/// the Box-Muller pair cache. restore_state() of a save_state() resumes the
/// stream bit-identically, including a pending cached gaussian draw.
struct RngState {
  std::array<std::uint64_t, 4> s{};
  double cached_gauss = 0.0;
  bool has_cached_gauss = false;

  bool operator==(const RngState&) const = default;
};

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  /// Derive an independent child stream (e.g. one per trial or per thread).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) {
    std::uint64_t mix = next() ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
    return Rng{mix};
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Unbiased (rejection).
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Random bipolar value, -1 or +1 with equal probability.
  int bipolar() { return (next() & 1) ? 1 : -1; }

  /// 64 independent random bits.
  std::uint64_t bits64() { return next(); }

  /// Standard normal via Box-Muller (cached pair).
  double gaussian();

  /// True when the next gaussian() returns the cached half of a pair.
  [[nodiscard]] bool has_cached_gaussian() const { return has_cached_gauss_; }

  /// The two uniforms of one Box-Muller pair.
  struct BoxMullerDraw {
    double u1;  ///< in (0, 1]; the radius is sqrt(-2 ln u1)
    double u2;  ///< in [0, 1); the angle is 2 pi u2
  };

  /// Draw the uniforms of the next pair in gaussian()'s order. Together with
  /// box_muller() this splits an uncached gaussian() call in two, so a
  /// caller can inspect the radius before paying for log/sqrt/sin/cos.
  BoxMullerDraw box_muller_draw() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return {u1, u2};
  }

  /// Finish a pair exactly as gaussian() does: cache the sin half and
  /// return the cos half.
  double box_muller(BoxMullerDraw draw);

  /// Normal with mean mu, stddev sigma.
  double gaussian(double mu, double sigma) { return mu + sigma * gaussian(); }

  /// Lognormal with given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Snapshot the full generator state (checkpointing / io::ResonatorSnapshot).
  [[nodiscard]] RngState save_state() const {
    return RngState{state_, cached_gauss_, has_cached_gauss_};
  }

  /// Resume from a snapshot; the stream continues bit-identically.
  void restore_state(const RngState& st) {
    state_ = st.s;
    cached_gauss_ = st.cached_gauss;
    has_cached_gauss_ = st.has_cached_gauss;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gauss_ = 0.0;
  bool has_cached_gauss_ = false;
};

}  // namespace h3dfact::util
