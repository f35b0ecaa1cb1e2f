#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using h3dfact::sweep::CellResult;

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

bool Pacer::more() const {
  if (reps_ < min_reps_) return true;
  const double mean = reps_ ? rep_s_ / static_cast<double>(reps_) : 0.0;
  return seconds_between(start_, Clock::now()) + 0.5 * mean < seconds_;
}

void write_env(JsonWriter& w) {
  char host[256] = {0};
  if (::gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  w.key("env").begin_object();
  w.field("host", std::string(host));
  w.field("nproc", nproc());
  w.field("compiler", compiler);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("kernel_backend", h3dfact::hdc::kernels::active().name);
  w.field("kernel_threads", h3dfact::hdc::kernels::kernel_threads());
  w.end_object();
}

SweepPass run_pass(const h3dfact::sweep::SweepSpec& spec,
                   h3dfact::sweep::SweepOptions options) {
  h3dfact::util::Mutex mutex;
  std::map<std::size_t, double> done;
  const auto t0 = Clock::now();
  options.progress = [&](const CellResult& r, std::size_t, std::size_t) {
    const double t = seconds_between(t0, Clock::now());
    h3dfact::util::MutexLock lock(mutex);
    done[r.index] = t;
  };
  SweepPass pass;
  pass.workers = options.shards;
  pass.cells = h3dfact::sweep::SweepRunner(spec, options).run();
  pass.wall_s = seconds_between(t0, Clock::now());
  h3dfact::util::MutexLock lock(mutex);
  for (const CellResult& c : pass.cells) pass.done_s.push_back(done[c.index]);
  return pass;
}

std::uint64_t trial_iterations(const CellResult& cell) {
  const auto& s = cell.stats;
  double solved = 0.0;
  for (double x : s.iteration_samples) solved += x;
  const std::size_t capped = s.trials - s.solved - std::min(s.cycles, s.trials - s.solved);
  return static_cast<std::uint64_t>(solved) +
         static_cast<std::uint64_t>(capped) * cell.max_iterations;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

}  // namespace

std::string stats_digest(const std::vector<CellResult>& cells) {
  Fnv f;
  for (const CellResult& c : cells) {
    const auto& s = c.stats;
    for (std::uint64_t v : {static_cast<std::uint64_t>(c.index),
                            static_cast<std::uint64_t>(s.trials),
                            static_cast<std::uint64_t>(s.solved),
                            static_cast<std::uint64_t>(s.correct),
                            static_cast<std::uint64_t>(s.cycles),
                            static_cast<std::uint64_t>(s.iterations_solved.count())}) {
      f.add(v);
    }
    f.add(s.iterations_solved.mean());
    f.add(s.iterations_solved.variance());
    for (double x : s.iteration_samples) f.add(x);
    for (std::size_t x : s.correct_by_iteration) f.add(static_cast<std::uint64_t>(x));
    for (std::size_t x : s.correct_raw_by_iteration) {
      f.add(static_cast<std::uint64_t>(x));
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(f.h));
  return buf;
}

void write_pass(JsonWriter& w, const SweepPass& pass) {
  w.begin_object();
  w.field("wall_s", pass.wall_s);
  w.field("workers", pass.workers);
  w.field("digest", stats_digest(pass.cells));
  w.key("cells").begin_array();
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const CellResult& c = pass.cells[i];
    std::string label;
    for (const auto& [axis, point] : c.coordinates) {
      label += (label.empty() ? "" : " ") + axis + "=" + point;
    }
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(c.index));
    w.field("label", label);
    w.field("trials", static_cast<std::uint64_t>(c.stats.trials));
    w.field("correct", static_cast<std::uint64_t>(c.stats.correct));
    w.field("iterations", trial_iterations(c));
    w.field("iters_p99", c.stats.iterations_quantile(0.99));
    w.field("wall_seconds", c.wall_seconds);
    w.field("done_s", pass.done_s[i]);
    w.key("meta").begin_object();
    for (const auto& [k, v] : c.meta) w.field(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_trace(JsonWriter& w, const Tracer& tracer) {
  w.key("spans").begin_array();
  for (const Span& s : tracer.spans()) {
    w.begin_object();
    w.field("id", s.id).field("parent", s.parent).field("name", s.name);
    w.field("t0", s.t0).field("t1", s.t1).field("rid", s.rid);
    w.end_object();
  }
  w.end_array();
  w.key("aggregates").begin_array();
  for (const Aggregate& a : tracer.aggregates()) {
    w.begin_object();
    w.field("name", a.name).field("parent", a.parent).field("calls", a.calls);
    w.field("seconds", a.seconds).field("items", a.items).field("work", a.work);
    w.end_object();
  }
  w.end_array();
}

}  // namespace perfbench
