// Tests for the resonator network: channels, convergence of the deterministic
// baseline on small problems, stochastic escape from limit cycles, trial
// runner statistics, and profiling.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "resonator/channels.hpp"
#include "resonator/limit_cycle.hpp"
#include "resonator/problem.hpp"
#include "resonator/profiler.hpp"
#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;
using resonator::AdcChannel;
using resonator::ExactChannel;
using resonator::FactorizationProblem;
using resonator::GaussianChannel;
using resonator::H3dfactChannel;
using resonator::ProblemGenerator;
using resonator::ResonatorNetwork;
using resonator::ResonatorOptions;
using resonator::ThresholdChannel;
using util::Rng;

TEST(Channels, ExactIsIdentity) {
  Rng rng(1);
  ExactChannel ch;
  std::vector<int> a{3, -7, 0, 100};
  EXPECT_EQ(ch.apply(a, rng), a);
  EXPECT_TRUE(ch.deterministic());
}

TEST(Channels, GaussianAddsCalibratedNoise) {
  Rng rng(2);
  GaussianChannel ch(10.0);
  std::vector<int> zeros(20000, 0);
  auto out = ch.apply(zeros, rng);
  double mean = 0, var = 0;
  for (int v : out) mean += v;
  mean /= static_cast<double>(out.size());
  for (int v : out) var += (v - mean) * (v - mean);
  var /= static_cast<double>(out.size());
  EXPECT_NEAR(mean, 0.0, 0.5);
  EXPECT_NEAR(std::sqrt(var), 10.0, 0.5);
  EXPECT_FALSE(ch.deterministic());
}

TEST(Channels, GaussianZeroSigmaIsExact) {
  Rng rng(3);
  GaussianChannel ch(0.0);
  std::vector<int> a{5, -3, 2};
  EXPECT_EQ(ch.apply(a, rng), a);
}

TEST(Channels, GaussianRejectsNegativeSigma) {
  EXPECT_THROW(GaussianChannel(-1.0), std::invalid_argument);
}

TEST(Channels, RejectNonFiniteParams) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(GaussianChannel{nan}, std::invalid_argument);
  EXPECT_THROW(GaussianChannel{inf}, std::invalid_argument);
  EXPECT_THROW(ThresholdChannel{nan}, std::invalid_argument);
  EXPECT_THROW(ThresholdChannel{inf}, std::invalid_argument);
  EXPECT_THROW(ThresholdChannel{-1.0}, std::invalid_argument);
  EXPECT_THROW(AdcChannel(4, nan), std::invalid_argument);
  EXPECT_THROW(AdcChannel(4, inf), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(64, nan, 12.0, 4, 32.0), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(64, 4.0, nan, 4, 32.0), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(64, 4.0, 12.0, 4, nan), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(64, 4.0, 12.0, 4, 0.0), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(64, 4.0, 12.0, 0, 32.0), std::invalid_argument);
}

TEST(Channels, AdcQuantizesAndSaturates) {
  AdcChannel adc(4, 70.0);  // max code 7, step 10
  EXPECT_EQ(adc.max_code(), 7);
  EXPECT_EQ(adc.quantize(0.0), 0);
  EXPECT_EQ(adc.quantize(4.9), 0);   // below half step
  EXPECT_EQ(adc.quantize(5.1), 1);
  EXPECT_EQ(adc.quantize(-23.0), -2);
  EXPECT_EQ(adc.quantize(1000.0), 7);   // saturation
  EXPECT_EQ(adc.quantize(-1000.0), -7);
}

TEST(Channels, AdcHigherBitsFinerSteps) {
  AdcChannel a4(4, 128.0), a8(8, 128.0);
  // 8-bit resolves a value that 4-bit flattens to zero.
  EXPECT_EQ(a4.quantize(6.0), 0);
  EXPECT_GT(a8.quantize(6.0), 0);
}

TEST(Channels, AdcInvalidParamsThrow) {
  EXPECT_THROW(AdcChannel(0, 10.0), std::invalid_argument);
  EXPECT_THROW(AdcChannel(17, 10.0), std::invalid_argument);
  EXPECT_THROW(AdcChannel(4, 0.0), std::invalid_argument);
}

TEST(Channels, ThresholdZeroesSmallEntries) {
  Rng rng(4);
  ThresholdChannel ch(10.0);
  std::vector<int> a{3, -9, 10, -11, 100};
  auto out = ch.apply(a, rng);
  EXPECT_EQ(out, (std::vector<int>{0, 0, 10, -11, 100}));
}

TEST(Channels, CompositeAppliesInOrder) {
  Rng rng(5);
  std::vector<std::shared_ptr<const resonator::SimilarityChannel>> stages;
  stages.push_back(std::make_shared<ThresholdChannel>(5.0));
  stages.push_back(std::make_shared<AdcChannel>(4, 70.0));
  resonator::CompositeChannel comp(stages);
  std::vector<int> a{3, 40};
  auto out = comp.apply(a, rng);
  EXPECT_EQ(out[0], 0);  // thresholded before quantization
  EXPECT_EQ(out[1], 4);  // 40 / step10 = 4
  EXPECT_TRUE(comp.deterministic());
}

// The three-stage reference the fused H3dfactChannel must reproduce.
resonator::CompositeChannel h3dfact_composite(double sigma, double threshold,
                                              int bits, double clip) {
  return resonator::CompositeChannel(
      {std::make_shared<GaussianChannel>(sigma),
       std::make_shared<ThresholdChannel>(threshold),
       std::make_shared<AdcChannel>(bits, clip, /*signed_range=*/false)});
}

// Apply both channels to `in` from equal generator states; the codes and the
// full RngState (stale Box–Muller cache included) must come out equal.
void expect_same_call(const resonator::SimilarityChannel& fused,
                      const resonator::SimilarityChannel& ref,
                      const std::vector<int>& in, Rng& fused_rng,
                      Rng& ref_rng) {
  ASSERT_EQ(fused_rng.save_state(), ref_rng.save_state());
  ASSERT_EQ(fused.apply(in, fused_rng), ref.apply(in, ref_rng))
      << "size " << in.size();
  ASSERT_EQ(fused_rng.save_state(), ref_rng.save_state())
      << "size " << in.size();
}

TEST(Channels, H3dfactFactoryMatchesComposite) {
  auto ch = resonator::make_h3dfact_channel(1024, 4, 1.0, 4.0);
  ASSERT_NE(ch, nullptr);
  EXPECT_FALSE(ch->deterministic());
  const auto ref = h3dfact_composite(32.0, 48.0, 4, 128.0);
  EXPECT_EQ(ch->describe(), ref.describe());
  Rng gen(17), fused_rng(18), ref_rng(18);
  std::vector<int> in(512);
  for (int call = 0; call < 50; ++call) {
    for (auto& v : in) v = std::max(0, static_cast<int>(gen.gaussian(0.0, 32.0)));
    in[call % in.size()] = 1024;  // one matching code word
    expect_same_call(*ch, ref, in, fused_rng, ref_rng);
  }
}

// Randomized identity of the fused channel against the composite: sizes 0,
// 1, 2 and odd; a cached draw pending on entry; sigma 0; 1-, 4- and 8-bit
// ADCs; negative inputs (no rectification); inputs outside [−D, D]; and
// several D.
TEST(Channels, H3dfactFusedMatchesCompositeBitForBit) {
  Rng gen(2024);
  const std::size_t sizes[] = {0, 1, 2, 3, 5, 17, 64, 255, 512};
  for (std::size_t dim : {1, 7, 64, 1024}) {
    const double crosstalk = std::sqrt(static_cast<double>(dim));
    const int d = static_cast<int>(dim);
    for (int bits : {1, 4, 8}) {
      for (double sigma_frac : {0.0, 0.25, 0.5, 2.0}) {
        for (double theta_sigmas : {0.0, 1.5}) {
          const double sigma = sigma_frac * crosstalk;
          const double theta = theta_sigmas * crosstalk;
          const double clip = 4.0 * crosstalk;
          const resonator::H3dfactChannel fused(dim, sigma, theta, bits, clip);
          const auto ref = h3dfact_composite(sigma, theta, bits, clip);
          const std::uint64_t seed = gen.next();
          Rng fused_rng(seed), ref_rng(seed);
          for (int call = 0; call < 40; ++call) {
            std::vector<int> in(sizes[gen.below(std::size(sizes))]);
            const auto mode = gen.below(4);
            for (auto& v : in) {
              if (mode == 0) {  // the resonator's clipped crosstalk
                v = std::max(0, static_cast<int>(gen.gaussian(0.0, crosstalk)));
              } else if (mode == 1) {  // signed crosstalk, no clipping
                v = static_cast<int>(gen.gaussian(0.0, crosstalk));
              } else if (mode == 2) {  // every count in [−D, D]
                v = static_cast<int>(gen.range(-d, d));
              } else {  // reaching past the table on both sides
                v = static_cast<int>(gen.range(-3 * d - 2, 3 * d + 2));
              }
            }
            if (gen.bernoulli(0.3) && !fused_rng.has_cached_gaussian()) {
              // Leave the second half of a pair pending on entry.
              (void)fused_rng.gaussian();
              (void)ref_rng.gaussian();
            }
            expect_same_call(fused, ref, in, fused_rng, ref_rng);
          }
        }
      }
    }
  }
}

TEST(Channels, TopKKeepsLargestEntries) {
  Rng rng(6);
  resonator::TopKChannel ch(2);
  std::vector<int> a{5, -3, 9, 1, 9};
  auto out = ch.apply(a, rng);
  EXPECT_EQ(out, (std::vector<int>{0, 0, 9, 0, 9}));
  EXPECT_TRUE(ch.deterministic());
}

TEST(Channels, TopKTieAtBoundaryKeepsExactlyK) {
  Rng rng(7);
  resonator::TopKChannel ch(2);
  std::vector<int> a{4, 4, 4, 1};
  auto out = ch.apply(a, rng);
  int kept = 0;
  for (int v : out) kept += (v != 0);
  EXPECT_EQ(kept, 2);
  EXPECT_EQ(out[0], 4);  // lower index wins the tie
  EXPECT_EQ(out[1], 4);
}

TEST(Channels, TopKPassThroughWhenSmall) {
  Rng rng(8);
  resonator::TopKChannel ch(10);
  std::vector<int> a{1, 2, 3};
  EXPECT_EQ(ch.apply(a, rng), a);
  EXPECT_THROW(resonator::TopKChannel(0), std::invalid_argument);
}

TEST(Channels, TopKSolvesAsAlternativeSparsifier) {
  // WTA sensing is a drop-in alternative to the VTGT threshold.
  Rng rng(9);
  ProblemGenerator gen(1024, 3, 64, rng);
  ResonatorOptions opts;
  opts.max_iterations = 3000;
  opts.detect_limit_cycles = false;
  std::vector<std::shared_ptr<const resonator::SimilarityChannel>> stages;
  stages.push_back(std::make_shared<GaussianChannel>(16.0));
  stages.push_back(std::make_shared<resonator::TopKChannel>(4));
  opts.channel = std::make_shared<resonator::CompositeChannel>(std::move(stages));
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(7000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    ok += (r.solved && p.is_correct(r.decoded));
  }
  EXPECT_GE(ok, 8);
}

TEST(LimitCycleDetector, DetectsRevisit) {
  resonator::LimitCycleDetector det;
  EXPECT_FALSE(det.observe(100, 0).has_value());
  EXPECT_FALSE(det.observe(200, 1).has_value());
  auto info = det.observe(100, 2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->first_seen, 0u);
  EXPECT_EQ(info->revisit, 2u);
  EXPECT_EQ(info->length(), 2u);
}

TEST(LimitCycleDetector, ResetClearsState) {
  resonator::LimitCycleDetector det;
  det.observe(1, 0);
  det.reset();
  EXPECT_FALSE(det.observe(1, 0).has_value());
}

TEST(Problem, CleanQueryMatchesComposition) {
  Rng rng(10);
  ProblemGenerator gen(512, 3, 8, rng);
  auto p = gen.make({1, 2, 3});
  EXPECT_TRUE(p.query == gen.codebooks().compose({1, 2, 3}));
  EXPECT_TRUE(p.is_correct({1, 2, 3}));
  EXPECT_FALSE(p.is_correct({1, 2, 4}));
}

TEST(Problem, NoisyQueryHasExpectedFlipRate) {
  Rng rng(11);
  ProblemGenerator gen(8192, 3, 4, rng);
  auto p = gen.sample_noisy(0.2, rng);
  auto clean = gen.codebooks().compose(p.ground_truth);
  EXPECT_NEAR(clean.hamming(p.query), 0.2, 0.03);
  EXPECT_DOUBLE_EQ(p.query_noise, 0.2);
}

TEST(Problem, SampleIndicesInRange) {
  Rng rng(12);
  ProblemGenerator gen(128, 4, 6, rng);
  for (int i = 0; i < 50; ++i) {
    auto p = gen.sample(rng);
    for (auto idx : p.ground_truth) EXPECT_LT(idx, 6u);
  }
}

TEST(Resonator, BaselineSolvesTinyProblem) {
  Rng rng(20);
  ProblemGenerator gen(1024, 3, 8, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 100);
  int solved = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(1000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 19);  // ~99%+ at this size per Table II
}

TEST(Resonator, SolvedResultComposesToQuery) {
  Rng rng(21);
  ProblemGenerator gen(512, 3, 4, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 100);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  ASSERT_TRUE(r.solved);
  EXPECT_TRUE(gen.codebooks().compose(r.decoded) == p.query);
}

TEST(Resonator, StochasticSolvesTinyProblem) {
  Rng rng(22);
  ProblemGenerator gen(1024, 3, 8, rng);
  auto net = resonator::make_h3dfact(gen.codebooks_ptr(), 300);
  int solved = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(2000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 19);
}

TEST(Resonator, SynchronousModeAlsoSolves) {
  Rng rng(23);
  ProblemGenerator gen(1024, 2, 6, rng);
  ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kSynchronous;
  opts.max_iterations = 200;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  int solved = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(3000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 9);
}

TEST(Resonator, DeterministicRunsAreReproducible) {
  Rng rng(24);
  ProblemGenerator gen(512, 3, 16, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 50);
  auto p = gen.sample(rng);
  Rng r1(7), r2(7);
  auto a = net.run(p, r1);
  auto b = net.run(p, r2);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.decoded, b.decoded);
}

TEST(Resonator, BaselineHitsLimitCyclesAtScale) {
  // The classic resonator dynamics [9] — raw bipolar similarities, fully
  // deterministic tie-breaks — form a map on a finite state space whose
  // non-converging trajectories fall into limit cycles (Fig. 2b). The
  // rectifying cleanup disabled here is what the sparse H3DFact similarity
  // path provides in hardware.
  Rng rng(25);
  ProblemGenerator gen(256, 4, 16, rng);
  ResonatorOptions opts;
  opts.max_iterations = 500;
  opts.random_tie_break = false;
  opts.clip_negative_similarity = false;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  int cycles = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(4000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.cycle.has_value()) ++cycles;
  }
  EXPECT_GT(cycles, 5);
}

TEST(Resonator, RecordCorrectTraceLengthMatchesIterations) {
  Rng rng(26);
  ProblemGenerator gen(512, 3, 8, rng);
  ResonatorOptions opts;
  opts.max_iterations = 60;
  opts.record_correct_trace = true;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  // One pre-iteration entry (index 0 = decode of the initial state) plus
  // one entry per executed iteration.
  EXPECT_EQ(r.correct_trace.size(), r.iterations + 1);
}

TEST(Resonator, IterationCapReported) {
  Rng rng(27);
  ProblemGenerator gen(256, 4, 128, rng);
  ResonatorOptions opts;
  opts.max_iterations = 3;
  opts.detect_limit_cycles = false;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  if (!r.solved) {
    EXPECT_TRUE(r.hit_iteration_cap);
    EXPECT_EQ(r.iterations, 3u);
  }
}

TEST(Resonator, NoisyQueryNeedsLowerThreshold) {
  Rng rng(28);
  ProblemGenerator gen(2048, 3, 4, rng);
  ResonatorOptions opts;
  opts.max_iterations = 100;
  opts.success_threshold = 0.5;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample_noisy(0.1, rng);
  auto r = net.run(p, rng);
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(p.is_correct(r.decoded));
}

TEST(Resonator, ProfilerAccumulatesAllPhases) {
  Rng rng(29);
  ProblemGenerator gen(1024, 3, 32, rng);
  resonator::PhaseProfiler prof;
  ResonatorOptions opts;
  opts.max_iterations = 50;
  opts.profiler = &prof;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  (void)net.run(p, rng);
  EXPECT_GT(prof.total_ops(), 0u);
  EXPECT_GT(prof.ops(resonator::Phase::kSimilarity), 0u);
  EXPECT_GT(prof.ops(resonator::Phase::kProjection), 0u);
  // MVM dominates op count (Fig. 1c shows ~80%).
  EXPECT_GT(prof.mvm_ops_fraction(), 0.7);
}

TEST(Profiler, FractionsSumToOne) {
  resonator::PhaseProfiler prof;
  prof.add_time(resonator::Phase::kSimilarity, 80);
  prof.add_time(resonator::Phase::kUnbind, 20);
  EXPECT_DOUBLE_EQ(prof.time_fraction(resonator::Phase::kSimilarity), 0.8);
  EXPECT_DOUBLE_EQ(prof.time_fraction(resonator::Phase::kUnbind), 0.2);
}

TEST(Profiler, MergeAddsCounters) {
  resonator::PhaseProfiler a, b;
  a.add_ops(resonator::Phase::kUnbind, 5);
  b.add_ops(resonator::Phase::kUnbind, 7);
  a.merge(b);
  EXPECT_EQ(a.ops(resonator::Phase::kUnbind), 12u);
  a.reset();
  EXPECT_EQ(a.total_ops(), 0u);
}

TEST(TrialRunner, BaselineSmallProblemNearPerfect) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = 16;
  cfg.trials = 60;
  cfg.max_iterations = 200;
  cfg.seed = 99;
  auto stats = resonator::run_trials(cfg);
  EXPECT_EQ(stats.trials, 60u);
  // Table II: ~99% at this size; our baseline measures 93-100% over small
  // trial counts, so bound well below the fluctuation band.
  EXPECT_GE(stats.accuracy(), 0.9);
  EXPECT_GT(stats.median_iterations(), 0.0);
}

TEST(TrialRunner, ReproducibleAcrossRuns) {
  resonator::TrialConfig cfg;
  cfg.dim = 512;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.trials = 10;
  cfg.max_iterations = 100;
  cfg.seed = 5;
  cfg.threads = 2;
  auto a = resonator::run_trials(cfg);
  auto b = resonator::run_trials(cfg);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.solved, b.solved);
}

TEST(TrialRunner, StochasticFactoryUsed) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = 16;
  cfg.trials = 20;
  cfg.max_iterations = 500;
  cfg.seed = 17;
  cfg.factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                   const resonator::TrialConfig& c) {
    return resonator::make_h3dfact(std::move(s), c);
  };
  auto stats = resonator::run_trials(cfg);
  EXPECT_GE(stats.accuracy(), 0.9);
}

TEST(TrialRunner, TraceHistogramMonotone) {
  resonator::TrialConfig cfg;
  cfg.dim = 512;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.trials = 10;
  cfg.max_iterations = 50;
  cfg.seed = 23;
  cfg.record_correct_trace = true;
  auto stats = resonator::run_trials(cfg);
  ASSERT_EQ(stats.correct_by_iteration.size(), cfg.max_iterations + 1);
  for (std::size_t k = 1; k < stats.correct_by_iteration.size(); ++k) {
    EXPECT_GE(stats.correct_by_iteration[k], stats.correct_by_iteration[k - 1]);
  }
  EXPECT_GE(stats.accuracy_at(cfg.max_iterations), stats.accuracy_at(1));
}

TEST(TrialRunner, QuantileSemantics) {
  resonator::TrialStats s;
  s.trials = 4;
  s.iteration_samples = {1.0, 2.0, 3.0};
  // 3 of 4 trials converged; the 0.75 quantile over ALL trials needs 3 samples.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.75), 3.0);
  // 99% of 4 trials = 4 > 3 converged -> fail marker.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.99), -1.0);
}

TEST(TrialRunner, ZeroTrialsThrows) {
  resonator::TrialConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW((void)resonator::run_trials(cfg), std::invalid_argument);
}

// Property sweep: ADC codes are monotone in the input for every precision
// (a non-monotone quantizer would corrupt the similarity ordering).
class AdcMonotoneSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcMonotoneSweep, CodesMonotoneInInput) {
  AdcChannel adc(GetParam(), 128.0, /*signed_range=*/false);
  int prev = 0;
  for (int v = 0; v <= 200; v += 3) {
    const int code = adc.quantize(v);
    EXPECT_GE(code, prev);
    prev = code;
  }
  EXPECT_EQ(adc.quantize(1000.0), adc.max_code());
}

TEST_P(AdcMonotoneSweep, ScaleInvarianceOfArgmax) {
  // The resonator decode relies on argmax; quantization must never promote
  // a smaller similarity above a larger one.
  AdcChannel adc(GetParam(), 96.0, /*signed_range=*/false);
  Rng rng(900 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const double a = rng.uniform(0.0, 150.0);
    const double b = rng.uniform(0.0, 150.0);
    if (a >= b) {
      EXPECT_GE(adc.quantize(a), adc.quantize(b));
    } else {
      EXPECT_LE(adc.quantize(a), adc.quantize(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcMonotoneSweep, ::testing::Values(2, 4, 6, 8));

// Property sweep: the baseline solves and is reproducible across F.
class FactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorSweep, BaselineSolvesSmallCodebooks) {
  const std::size_t F = GetParam();
  Rng rng(500 + F);
  ProblemGenerator gen(1024, F, 4, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 300);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(600 + 10 * F + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    ok += (r.solved && p.is_correct(r.decoded));
  }
  EXPECT_GE(ok, 9);
}

// F=5 at this dimension sits beyond the baseline's operational capacity
// (each factor's similarity signal scales as D·cos^{F-1}); the paper's
// evaluation stops at F=4.
INSTANTIATE_TEST_SUITE_P(Factors, FactorSweep, ::testing::Values(2, 3, 4));

}  // namespace
