#pragma once
// Shared pieces of the benchmark workloads: run arguments, the environment
// stamp, sweep passes with completion times, and the TrialStats digest the
// traced-vs-untraced determinism check compares.

#include <cstdint>
#include <string>
#include <vector>

#include "json.hpp"
#include "sweep/runner.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< directory for files a workload writes
};

/// Logical CPUs: the shard and fleet size of every workload.
unsigned nproc();

/// Paces a run's repetitions to --seconds: each repetition is timed as it
/// runs, and another one starts while fewer than `min_reps` have run or the
/// time left exceeds half the mean repetition so far.
class Pacer {
 public:
  Pacer(double seconds, std::size_t min_reps)
      : seconds_(seconds), min_reps_(min_reps) {}
  [[nodiscard]] bool more() const;
  /// Runs `rep` once and books its time.
  template <typename Rep>
  void run(Rep rep) {
    const auto t0 = Clock::now();
    rep();
    rep_s_ += seconds_between(t0, Clock::now());
    ++reps_;
  }

 private:
  double seconds_;
  std::size_t min_reps_;
  Clock::time_point start_ = Clock::now();
  std::size_t reps_ = 0;
  double rep_s_ = 0.0;
};

/// host, nproc, compiler, build type, active kernel backend, KernelPool size.
void write_env(JsonWriter& w);

/// One SweepRunner::run with per-cell completion times (seconds after start).
struct SweepPass {
  double wall_s = 0.0;
  unsigned workers = 0;
  std::vector<h3dfact::sweep::CellResult> cells;  ///< sorted by index
  std::vector<double> done_s;                     ///< parallel to `cells`
};
SweepPass run_pass(const h3dfact::sweep::SweepSpec& spec,
                   h3dfact::sweep::SweepOptions options);

/// Solved and capped iterations: iterations of solved trials plus capped
/// trials at their cap. Trials stopped by a detected limit cycle
/// (deterministic baseline only) carry no iteration count in TrialStats and
/// add nothing; the traced run counts every trial's iterations at the
/// engine decorator instead ("resonator.iter").
std::uint64_t trial_iterations(const h3dfact::sweep::CellResult& cell);

/// FNV-1a over every cell's index and full TrialStats, as hex.
std::string stats_digest(const std::vector<h3dfact::sweep::CellResult>& cells);

/// Writes {"wall_s", "workers", "digest", "cells": [...]} for a pass.
void write_pass(JsonWriter& w, const SweepPass& pass);

/// Writes the tracer's spans and aggregates under "spans" / "aggregates".
void write_trace(JsonWriter& w, const Tracer& tracer);

}  // namespace perfbench
