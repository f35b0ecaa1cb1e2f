#include "trace.hpp"

#include <algorithm>
#include <utility>

#include "cim/engine.hpp"

namespace perfbench {

using h3dfact::util::MutexLock;

std::uint64_t Tracer::record(std::string name, std::uint64_t parent,
                             double t0, double t1, std::uint64_t rid) {
  MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  spans_[id] = Span{id, parent, std::move(name), t0, t1, rid};
  return id;
}

std::uint64_t Tracer::reserve() {
  MutexLock lock(mutex_);
  return next_id_++;
}

void Tracer::widen(std::uint64_t id, const std::string& name,
                   std::uint64_t parent, double t0, double t1) {
  MutexLock lock(mutex_);
  auto [it, fresh] = spans_.try_emplace(id, Span{id, parent, name, t0, t1, 0});
  if (!fresh) {
    it->second.t0 = std::min(it->second.t0, t0);
    it->second.t1 = std::max(it->second.t1, t1);
  }
}

void Tracer::add(const Aggregate& a) {
  if (a.calls == 0) return;
  MutexLock lock(mutex_);
  Aggregate& into = aggs_[{a.name, a.parent}];
  into.name = a.name;
  into.parent = a.parent;
  into.calls += a.calls;
  into.seconds += a.seconds;
  into.items += a.items;
  into.work += a.work;
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const auto& [id, s] : spans_) out.push_back(s);
  return out;
}

std::vector<Aggregate> Tracer::aggregates() const {
  MutexLock lock(mutex_);
  std::vector<Aggregate> out;
  out.reserve(aggs_.size());
  for (const auto& [key, a] : aggs_) out.push_back(a);
  return out;
}

BlockProbe::BlockProbe(Tracer& tracer, std::uint64_t sweep_span,
                       std::uint64_t cell_span, double t0,
                       std::string mvm_layer)
    : tracer_(tracer),
      sweep_span_(sweep_span),
      cell_span_(cell_span),
      block_span_(tracer.reserve()),
      t0_(t0) {
  mvm.name = mvm_layer + ".mvm";
  program.name = mvm_layer + ".build";
  channel.name = "resonator.channel";
  iters.name = "resonator.iter";
  for (Aggregate* a : {&mvm, &channel, &program, &iters}) {
    a->parent = block_span_;
  }
}

BlockProbe::~BlockProbe() {
  const double t1 = tracer_.now();
  tracer_.widen(block_span_, "resonator.block", cell_span_, t0_, t1);
  tracer_.widen(cell_span_, "sweep.cell", sweep_span_, t0_, t1);
  tracer_.add(mvm);
  tracer_.add(channel);
  tracer_.add(program);
  tracer_.add(iters);
}

TimedEngine::TimedEngine(std::shared_ptr<MvmEngine> inner,
                         std::shared_ptr<BlockProbe> probe,
                         double work_per_item)
    : inner_(std::move(inner)),
      probe_(std::move(probe)),
      work_per_item_(work_per_item) {}

void TimedEngine::count(Clock::time_point t0, std::size_t items) {
  Aggregate& a = probe_->mvm;
  a.calls += 1;
  a.seconds += seconds_between(t0, Clock::now());
  a.items += items;
  a.work += work_per_item_ * static_cast<double>(items);
}

void TimedEngine::count_iterations(std::size_t factor, std::size_t items) {
  if (factor != 0) return;
  probe_->iters.calls += 1;
  probe_->iters.items += items;
}

std::vector<int> TimedEngine::similarity(std::size_t factor,
                                         const h3dfact::hdc::BipolarVector& u,
                                         h3dfact::util::Rng& rng) {
  const auto t0 = Clock::now();
  std::vector<int> out = inner_->similarity(factor, u, rng);
  count(t0, 1);
  count_iterations(factor, 1);
  return out;
}

std::vector<int> TimedEngine::project(std::size_t factor,
                                      const std::vector<int>& coeffs,
                                      h3dfact::util::Rng& rng) {
  const auto t0 = Clock::now();
  std::vector<int> out = inner_->project(factor, coeffs, rng);
  count(t0, 1);
  return out;
}

h3dfact::hdc::CoeffBlock TimedEngine::similarity_batch(
    std::size_t factor, std::span<const h3dfact::hdc::BipolarVector> us,
    h3dfact::util::Rng& rng) {
  const auto t0 = Clock::now();
  h3dfact::hdc::CoeffBlock out = inner_->similarity_batch(factor, us, rng);
  count(t0, us.size());
  count_iterations(factor, us.size());
  return out;
}

h3dfact::hdc::CoeffBlock TimedEngine::project_batch(
    std::size_t factor, const h3dfact::hdc::CoeffBlock& coeffs,
    h3dfact::util::Rng& rng) {
  const auto t0 = Clock::now();
  h3dfact::hdc::CoeffBlock out = inner_->project_batch(factor, coeffs, rng);
  count(t0, coeffs.batch);
  return out;
}

TimedChannel::TimedChannel(std::shared_ptr<const SimilarityChannel> inner,
                           std::shared_ptr<BlockProbe> probe)
    : inner_(std::move(inner)), probe_(std::move(probe)) {}

std::vector<int> TimedChannel::apply(const std::vector<int>& exact,
                                     h3dfact::util::Rng& rng) const {
  const auto t0 = Clock::now();
  std::vector<int> out = inner_->apply(exact, rng);
  Aggregate& a = probe_->channel;
  a.calls += 1;
  a.seconds += seconds_between(t0, Clock::now());
  a.items += 1;
  return out;
}

std::uint64_t CellSpans::id(std::size_t cell) {
  MutexLock lock(mutex_);
  auto it = ids_.find(cell);
  if (it == ids_.end()) it = ids_.emplace(cell, tracer_.reserve()).first;
  return it->second;
}

void trace_factory(h3dfact::sweep::SweepSpec& spec, Tracer& tracer,
                   std::shared_ptr<CellSpans> cells) {
  using h3dfact::resonator::ResonatorNetwork;
  auto inner = spec.factory;
  spec.factory = [inner, &tracer, cells](
                     std::shared_ptr<const h3dfact::hdc::CodebookSet> set,
                     const h3dfact::sweep::Cell& cell) {
    const std::uint64_t cell_span = cells->id(cell.index);
    const double t0 = tracer.now();
    ResonatorNetwork net = inner(set, cell);
    const double build_s = tracer.now() - t0;

    const bool cim = dynamic_cast<const h3dfact::cim::CimMvmEngine*>(
                         net.engine().get()) != nullptr;
    auto probe = std::make_shared<BlockProbe>(
        tracer, cells->parent(), cell_span, t0, cim ? "cim" : "hdc");
    probe->program.calls = 1;
    probe->program.seconds = build_s;
    const auto M = static_cast<double>(set->book(0).size());
    const auto D = static_cast<double>(set->dim());
    const double work_per_item = cim ? M * D : M * D / 64.0;

    h3dfact::resonator::ResonatorOptions opts = net.options();
    if (opts.channel) {
      opts.channel = std::make_shared<TimedChannel>(opts.channel, probe);
    }
    auto engine =
        std::make_shared<TimedEngine>(net.engine(), probe, work_per_item);
    return ResonatorNetwork(std::move(set), std::move(engine), opts);
  };
}

}  // namespace perfbench
