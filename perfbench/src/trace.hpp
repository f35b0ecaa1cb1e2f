#pragma once
// In-memory span recording for the benchmark's traced runs.
//
// Every span is recorded from the benchmark's own code: around calls into a
// layer's public functions, or by decorators wrapped around the MVM engine
// and similarity channel a grid factory builds. Nothing inside src/ is
// instrumented. Spans stay in memory and are written out when the run ends.
//
// Hot decorators (one engine call per factor per iteration) would produce
// millions of spans, so they fold their calls into one aggregate per parent
// span instead: count, seconds, items and work units. The aggregate's time
// is a sum of disjoint calls on the parent's own thread, which is what
// self-time subtraction needs.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "resonator/channels.hpp"
#include "resonator/resonator.hpp"
#include "sweep/spec.hpp"
#include "util/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One closed interval of work: [t0, t1] in seconds since the tracer's
/// origin. `rid` is the request id for serve spans (0 elsewhere).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t rid = 0;
};

/// Calls folded under one parent span.
struct Aggregate {
  std::string name;
  std::uint64_t parent = 0;
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::uint64_t items = 0;  ///< problems carried by the calls
  double work = 0.0;        ///< layer work units (codebook words, MACs)
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }
  /// Record a finished span; returns its id.
  std::uint64_t record(std::string name, std::uint64_t parent, double t0,
                       double t1, std::uint64_t rid = 0);
  /// Reserve an id for a span whose interval is only known later.
  std::uint64_t reserve();
  /// Fill in a reserved span (or widen it: the interval becomes the hull of
  /// every call for the same id).
  void widen(std::uint64_t id, const std::string& name, std::uint64_t parent,
             double t0, double t1);
  /// Merge calls into the (name, parent) aggregate.
  void add(const Aggregate& a);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<Aggregate> aggregates() const;

 private:
  Clock::time_point origin_;
  mutable h3dfact::util::Mutex mutex_;
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, Span> spans_ GUARDED_BY(mutex_);
  std::map<std::pair<std::string, std::uint64_t>, Aggregate> aggs_
      GUARDED_BY(mutex_);
};

/// Counters of one trial block (one factory call on one worker thread).
/// Shared by the engine and channel decorators of that block; the last one
/// destroyed records the block span and flushes the aggregates.
class BlockProbe {
 public:
  /// `t0` is the block's start on the tracer clock (before the factory).
  /// The cell span becomes the hull of its blocks.
  BlockProbe(Tracer& tracer, std::uint64_t sweep_span, std::uint64_t cell_span,
             double t0, std::string mvm_layer);
  ~BlockProbe();
  BlockProbe(const BlockProbe&) = delete;
  BlockProbe& operator=(const BlockProbe&) = delete;

  Aggregate mvm;      ///< engine calls (name "<layer>.mvm")
  Aggregate channel;  ///< similarity-channel calls ("resonator.channel")
  Aggregate program;  ///< the wrapped factory itself ("<layer>.build")
  /// Problem-iterations ("resonator.iter"): every iteration of every problem
  /// makes one factor-0 similarity item, whether the trial then solves,
  /// caps or stops on a limit cycle. `items` holds the count.
  Aggregate iters;

 private:
  Tracer& tracer_;
  std::uint64_t sweep_span_;
  std::uint64_t cell_span_;
  std::uint64_t block_span_;
  double t0_;
};

/// MvmEngine decorator: forwards every call to the wrapped engine and times
/// it. Work per item is M×D/64 codebook words (hdc) or M×D MACs (cim).
class TimedEngine final : public h3dfact::resonator::MvmEngine {
 public:
  TimedEngine(std::shared_ptr<MvmEngine> inner,
              std::shared_ptr<BlockProbe> probe, double work_per_item);

  std::vector<int> similarity(std::size_t factor,
                              const h3dfact::hdc::BipolarVector& u,
                              h3dfact::util::Rng& rng) override;
  std::vector<int> project(std::size_t factor, const std::vector<int>& coeffs,
                           h3dfact::util::Rng& rng) override;
  h3dfact::hdc::CoeffBlock similarity_batch(
      std::size_t factor, std::span<const h3dfact::hdc::BipolarVector> us,
      h3dfact::util::Rng& rng) override;
  h3dfact::hdc::CoeffBlock project_batch(std::size_t factor,
                                         const h3dfact::hdc::CoeffBlock& coeffs,
                                         h3dfact::util::Rng& rng) override;

 private:
  void count(Clock::time_point t0, std::size_t items);
  void count_iterations(std::size_t factor, std::size_t items);

  std::shared_ptr<MvmEngine> inner_;
  std::shared_ptr<BlockProbe> probe_;
  double work_per_item_;
};

/// SimilarityChannel decorator (same forwarding contract).
class TimedChannel final : public h3dfact::resonator::SimilarityChannel {
 public:
  TimedChannel(std::shared_ptr<const SimilarityChannel> inner,
               std::shared_ptr<BlockProbe> probe);

  std::vector<int> apply(const std::vector<int>& exact,
                         h3dfact::util::Rng& rng) const override;
  bool deterministic() const override { return inner_->deterministic(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::shared_ptr<const SimilarityChannel> inner_;
  std::shared_ptr<BlockProbe> probe_;
};

/// Cell index -> span id, shared by every block of the cell.
class CellSpans {
 public:
  explicit CellSpans(Tracer& tracer, std::uint64_t parent)
      : tracer_(tracer), parent_(parent) {}
  std::uint64_t id(std::size_t cell);
  [[nodiscard]] std::uint64_t parent() const { return parent_; }

 private:
  Tracer& tracer_;
  std::uint64_t parent_;
  h3dfact::util::Mutex mutex_;
  std::map<std::size_t, std::uint64_t> ids_ GUARDED_BY(mutex_);
};

/// Wrap a grid's factory so every network it builds runs through timed
/// decorators. The decorated network is bit-identical in behaviour: the
/// decorators only forward. Engines that are CimMvmEngine are booked under
/// the "cim" layer, everything else under "hdc".
void trace_factory(h3dfact::sweep::SweepSpec& spec, Tracer& tracer,
                   std::shared_ptr<CellSpans> cells);

}  // namespace perfbench
