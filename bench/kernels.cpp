// Microbenches of the hot kernels: packed binding, codebook similarity
// (XOR+popcount), integer projection, sign activation, the device-level
// crossbar MVM, and the batched-vs-per-call MVM paths of the batched
// engine. These quantify why MVMs dominate (Fig. 1c), track kernel
// regressions, and show the batched amortization (compare the *PerCall /
// *Batch pairs at equal {M, B} arguments). Runs under google-benchmark
// when the system library is present, else under the internal minibench
// harness — kernel timings always build and run.
//
// `--json=FILE` writes the same machine-readable artifact from either
// harness (see docs/kernels.md for the schema): benchmark names, ns/op,
// items/s and the active kernel backend id. CI's kernel-baseline job diffs
// that artifact against bench/baselines/ to gate kernel regressions.

#if defined(H3DFACT_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#else
#include "minibench.hpp"
#endif
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cim/crossbar.hpp"
#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/capability.hpp"
#include "resonator/batched.hpp"
#include "resonator/channels.hpp"
#include "resonator/resonator.hpp"
#include "util/rng.hpp"

using namespace h3dfact;

namespace {

std::vector<hdc::BipolarVector> random_queries(std::size_t dim, std::size_t n,
                                               util::Rng& rng) {
  std::vector<hdc::BipolarVector> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    us.push_back(hdc::BipolarVector::random(dim, rng));
  }
  return us;
}

void BM_Bind(benchmark::State& state) {
  util::Rng rng(1);
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = hdc::BipolarVector::random(dim, rng);
  auto b = hdc::BipolarVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.bind(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bind)->Arg(1024)->Arg(8192);

void BM_Similarity(benchmark::State& state) {
  util::Rng rng(2);
  const auto m = static_cast<std::size_t>(state.range(0));
  hdc::Codebook cb(1024, m, rng);
  auto u = hdc::BipolarVector::random(1024, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.similarity(u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 1024);
}
BENCHMARK(BM_Similarity)->Arg(16)->Arg(256)->Arg(512);

void BM_Projection(benchmark::State& state) {
  util::Rng rng(3);
  const auto m = static_cast<std::size_t>(state.range(0));
  hdc::Codebook cb(1024, m, rng);
  std::vector<int> coeffs(m);
  for (auto& c : coeffs) c = static_cast<int>(rng.range(-7, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.project(coeffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 1024);
}
BENCHMARK(BM_Projection)->Arg(16)->Arg(256)->Arg(512);

// --- batched vs per-call MVM paths (args: {M, batch}) ---------------------

void BM_SimilarityPerCall(benchmark::State& state) {
  util::Rng rng(7);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  auto us = random_queries(1024, batch, rng);
  for (auto _ : state) {
    for (const auto& u : us) benchmark::DoNotOptimize(cb.similarity(u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_SimilarityPerCall)->Args({256, 16})->Args({512, 16});

void BM_SimilarityBatch(benchmark::State& state) {
  util::Rng rng(7);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  auto us = random_queries(1024, batch, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.similarity_batch(us));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_SimilarityBatch)->Args({256, 16})->Args({512, 16});

void BM_ProjectionPerCall(benchmark::State& state) {
  util::Rng rng(8);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  std::vector<std::vector<int>> items(batch, std::vector<int>(m));
  for (auto& item : items) {
    for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
  }
  for (auto _ : state) {
    for (const auto& item : items) benchmark::DoNotOptimize(cb.project(item));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_ProjectionPerCall)->Args({256, 16})->Args({512, 16});

void BM_ProjectionBatch(benchmark::State& state) {
  util::Rng rng(8);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  std::vector<std::vector<int>> items(batch, std::vector<int>(m));
  for (auto& item : items) {
    for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
  }
  const hdc::CoeffBlock coeffs = hdc::CoeffBlock::from_items(items);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.project_batch(coeffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_ProjectionBatch)->Args({256, 16})->Args({512, 16});

// End-to-end: B concurrent factorizations through one exact engine — either
// sequentially on the default per-call (asynchronous) path, i.e. the
// pre-batching pipeline, or through the BatchedFactorizer. A success
// threshold above cosine 1 pins every run to exactly `cap` iterations, and
// random init keeps setup cost off the measurement, so both paths execute
// the same number of MVMs and the difference is the MVM path itself.
resonator::ResonatorOptions fixed_work_options(std::size_t cap,
                                               resonator::UpdateMode mode) {
  resonator::ResonatorOptions opts;
  opts.update = mode;
  opts.max_iterations = cap;
  opts.success_threshold = 2.0;
  opts.detect_limit_cycles = false;
  opts.random_init = true;
  return opts;
}

void BM_FactorizeSequential(benchmark::State& state) {
  util::Rng rng(9);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  auto set = std::make_shared<hdc::CodebookSet>(1024, 3, m, rng);
  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems;
  for (std::size_t i = 0; i < batch; ++i) problems.push_back(gen.sample(rng));
  resonator::ResonatorNetwork net(
      set, fixed_work_options(5, resonator::UpdateMode::kAsynchronous));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      util::Rng run_rng(100 + i);
      benchmark::DoNotOptimize(net.run(problems[i], run_rng));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_FactorizeSequential)->Args({256, 16});

void BM_FactorizeBatched(benchmark::State& state) {
  util::Rng rng(9);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  auto set = std::make_shared<hdc::CodebookSet>(1024, 3, m, rng);
  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems;
  for (std::size_t i = 0; i < batch; ++i) problems.push_back(gen.sample(rng));
  resonator::BatchedFactorizer factorizer(
      set, fixed_work_options(5, resonator::UpdateMode::kSynchronous));
  for (auto _ : state) {
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < batch; ++i) rngs.emplace_back(100 + i);
    util::Rng device_rng(1);
    benchmark::DoNotOptimize(factorizer.run(problems, rngs, device_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_FactorizeBatched)->Args({256, 16});

void BM_SignActivation(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<int> y(1024);
  for (auto& v : y) v = static_cast<int>(rng.range(-100, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::sign_of(y));
  }
}
BENCHMARK(BM_SignActivation);

// The H3DFact similarity channel at D = 1024 on what the resonator feeds
// it: crosstalk similarities ~ N(0, D) clipped at zero, plus one matching
// word at D. BM_H3dChannel runs the fused make_h3dfact_channel;
// BM_H3dChannelComposite runs the three-stage reference it reproduces bit
// for bit, so the pair is a same-host before/after of the fusion. Items are
// similarity entries.
constexpr std::size_t kChannelDim = 1024;

void run_h3d_channel(benchmark::State& state,
                     const resonator::SimilarityChannel& channel) {
  util::Rng rng(5);
  const double crosstalk = std::sqrt(static_cast<double>(kChannelDim));
  std::vector<int> sims(static_cast<std::size_t>(state.range(0)));
  for (auto& s : sims) {
    s = std::max(0, static_cast<int>(rng.gaussian(0.0, crosstalk)));
  }
  sims.front() = static_cast<int>(kChannelDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.apply(sims, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_H3dChannel(benchmark::State& state) {
  run_h3d_channel(state, *resonator::make_h3dfact_channel(kChannelDim));
}
BENCHMARK(BM_H3dChannel)->Arg(256)->Arg(512);

void BM_H3dChannelComposite(benchmark::State& state) {
  // make_h3dfact_channel's defaults, stage by stage.
  const double crosstalk = std::sqrt(static_cast<double>(kChannelDim));
  const resonator::CompositeChannel channel(
      {std::make_shared<resonator::GaussianChannel>(0.5 * crosstalk),
       std::make_shared<resonator::ThresholdChannel>(1.5 * crosstalk),
       std::make_shared<resonator::AdcChannel>(4, 4.0 * crosstalk,
                                               /*signed_range=*/false)});
  run_h3d_channel(state, channel);
}
BENCHMARK(BM_H3dChannelComposite)->Arg(256)->Arg(512);

void BM_CrossbarMvm(benchmark::State& state) {
  util::Rng rng(6);
  const auto rows = static_cast<std::size_t>(state.range(0));
  cim::RramCrossbar xb(rows, rows, device::default_rram_40nm(), rng);
  std::vector<std::int8_t> w(rows * rows);
  for (auto& x : w) x = static_cast<std::int8_t>(rng.bipolar());
  xb.program(w, rng);
  std::vector<std::int8_t> input(rows);
  for (auto& x : input) x = static_cast<std::int8_t>(rng.bipolar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.mvm_bipolar(input, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CrossbarMvm)->Arg(64)->Arg(256);

// --- --json artifact (shared schema across both harnesses) ----------------

struct KernelTiming {
  std::string name;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;  // 0 when the bench reports no item count
};

// Hand-rolled writer (matching the sweep emitters' style): a flat object
// with provenance fields plus one row per timed benchmark. The `backend`
// field is the kernel backend every hdc-layer bench ran through, which is
// what makes two artifacts comparable.
void write_json(const std::string& path, const char* harness,
                const std::vector<KernelTiming>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open --json output file: " + path);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"backend\": \"%s\",\n",
               h3dfact::hdc::kernels::active().name);
  std::fprintf(f, "  \"harness\": \"%s\",\n", harness);
  std::fprintf(f, "  \"benchmarks\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelTiming& r = rows[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"iterations\": %zu, "
                 "\"ns_per_op\": %.6g, \"items_per_sec\": %.6g}",
                 i == 0 ? "" : ",", r.name.c_str(), r.iterations, r.ns_per_op,
                 r.items_per_sec);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu benchmark timings to %s (backend: %s)\n",
              rows.size(), path.c_str(),
              h3dfact::hdc::kernels::active().name);
}

// Pull our own flags out of argv (both harnesses reject flags they don't
// know) and return the remaining argc.
int extract_own_flags(int argc, char** argv, std::string* json_path,
                      bool* list_backends) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      *json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--list-backends") == 0) {
      *list_backends = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

// `--list-backends`: machine-greppable probe for CI — one backend name per
// line plus the detected capability set, then exit. The avx512 CI leg runs
// this to decide between a real forced-avx512 pass and a loud skip.
int print_backends() {
  for (const auto* b : h3dfact::hdc::kernels::available()) {
    std::printf("%s\n", b->name);
  }
  std::printf("capabilities: %s\n",
              h3dfact::hdc::kernels::probe().to_string().c_str());
  return 0;
}

}  // namespace

#if defined(H3DFACT_HAVE_GBENCH)

namespace {

// Collects every run for the --json artifact while delegating the normal
// console output to the base reporter.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      KernelTiming t;
      t.name = run.benchmark_name();
      t.iterations = static_cast<std::size_t>(run.iterations);
      t.ns_per_op = run.iterations == 0
                        ? 0.0
                        : 1e9 * run.real_accumulated_time /
                              static_cast<double>(run.iterations);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) t.items_per_sec = it->second;
      rows.push_back(std::move(t));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<KernelTiming> rows;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool list_backends = false;
  argc = extract_own_flags(argc, argv, &json_path, &list_backends);
  if (list_backends) return print_backends();
  benchmark::Initialize(&argc, argv);
  // A typoed flag (e.g. --jsn=, or --json with a space) must fail up front,
  // not after a multi-minute run that silently writes no artifact.
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("kernel backend: %s\n", h3dfact::hdc::kernels::active().name);
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) write_json(json_path, "google-benchmark", reporter.rows);
  benchmark::Shutdown();
  return 0;
}

#else  // minibench harness

int main(int argc, char** argv) {
  std::string json_path;
  bool list_backends = false;
  argc = extract_own_flags(argc, argv, &json_path, &list_backends);
  if (list_backends) return print_backends();
  if (argc > 1) {
    std::fprintf(stderr, "unrecognized argument: %s (minibench harness only "
                 "accepts --json=FILE and --list-backends)\n", argv[1]);
    return 1;
  }
  std::printf("kernel backend: %s\n", h3dfact::hdc::kernels::active().name);
  const std::vector<benchmark::internal::Result> results =
      benchmark::internal::run_all();
  if (!json_path.empty()) {
    std::vector<KernelTiming> rows;
    rows.reserve(results.size());
    for (const auto& r : results) {
      rows.push_back(KernelTiming{r.name, r.iterations, r.ns_per_op,
                                  r.items_per_sec});
    }
    write_json(json_path, "minibench", rows);
  }
  return 0;
}

#endif
