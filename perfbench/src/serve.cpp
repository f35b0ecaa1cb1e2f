// serve_open: an in-process ServeCoordinator with two serve workers that
// warm-start from an H3DA artifact packed at set-up, driven by the
// benchmark's own open-loop generator over a fixed ladder of rates, then a
// closed-loop bulk job (a fixed request set with a bounded window) whose
// wall time and replies give the workload's throughput and accuracy.
//
// Open-loop timing: every request is timed from the moment it was due, not
// from when the generator managed to send it, so a stall on either side
// shows up as latency of the requests queued behind it. The generator's own
// lateness (sent - due) is recorded beside it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/artifact.hpp"
#include "io/codec.hpp"
#include "resonator/batched.hpp"
#include "resonator/problem.hpp"
#include "serve/serving.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = h3dfact::serve;
namespace sw = h3dfact::sweep;
using h3dfact::util::Rng;

namespace {

// The problem and batching knobs of the ROADMAP's serving measurements.
constexpr std::size_t kDim = 512;
constexpr std::size_t kFactors = 3;
constexpr std::size_t kCodebook = 8;
constexpr std::size_t kCap = 100;
// The served codebooks are the deployment's fixed model (ServeConfig's
// default seed); the run seed varies the requests. A codebook set sets how
// hard every query is, so a per-seed model would move the bulk job's work.
constexpr std::uint64_t kCodebookSeed = 1;
constexpr std::size_t kMaxBatch = 8;
constexpr std::int64_t kMaxDelayUs = 2000;
constexpr int kWorkers = 2;
constexpr double kFlip = 0.05;

struct Rung {
  const char* name;
  double qps;
  double seconds;
};
// `low` sits where batches rarely fill (latency ~ the max_delay wait);
// `high` keeps every batch full. The top rung stays at half the bulk-job
// throughput of a 4-core host (~23k/s), so a 85 ms stall still fits the
// 1024-request admission queue and no request is refused.
constexpr Rung kLadder[] = {
    {"low", 1000, 2.0}, {"2000", 2000, 1.0},   {"4000", 4000, 1.0},
    {"high", 8000, 2.0}, {"12000", 12000, 1.0},
};
constexpr int kTailMs = 5000;

// Closed-loop bulk job: kClosedRequests with at most kWindow outstanding.
constexpr std::size_t kClosedRequests = 24000;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kCheckSample = 64;

// Trial-index streams, disjoint per phase so no request repeats another.
constexpr std::uint64_t kWarmStream = 1ULL << 40;
constexpr std::uint64_t kLadderStream = 2ULL << 40;
constexpr std::uint64_t kClosedStream = 3ULL << 40;
constexpr std::uint64_t kRungStride = 1ULL << 32;

/// Half of the requests carry query noise, chosen per trial index.
double flip_for(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t s = seed ^ (index * 0x9e3779b97f4a7c15ULL);
  return (h3dfact::util::splitmix64(s) & 1) ? kFlip : 0.0;
}

sw::FactorRequestFrame make_request(std::uint64_t seed, std::uint64_t index,
                                    std::uint64_t id) {
  sw::FactorRequestFrame req;
  req.id = id;
  req.encoding = sw::QueryEncoding::kSeeded;
  req.trial_seed = serve::trial_stream_seed(seed, index);
  req.flip_prob = flip_for(seed, index);
  return req;
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// Coordinator thread plus worker threads; stop() drains them all.
struct Fleet {
  std::unique_ptr<serve::ServeCoordinator> coord;
  std::thread runner;
  std::vector<std::thread> workers;
  std::atomic<int> worker_errors{0};  ///< fleet threads that threw

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }

  [[nodiscard]] std::string addr() const {
    return "127.0.0.1:" + std::to_string(coord->listen_port());
  }
  void stop() {
    if (runner.joinable()) {
      coord->request_stop();  // Shutdown to every worker, then return
      runner.join();
    }
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
    workers.clear();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double pack_s = 0.0;
  double load_s = 0.0;
  double bind_s = 0.0;
};

/// Codebooks, artifact pack, artifact load, a worker-space bind, then the
/// coordinator and its warm-started fleet, up to the first served batch.
SetupTimes bring_up(const std::string& artifact, std::uint64_t codebook_seed,
                    std::uint64_t seed, Fleet& fleet,
                    std::unique_ptr<serve::ServeClient>& client) {
  SetupTimes t;
  const auto t0 = Clock::now();
  Rng master(codebook_seed);
  h3dfact::resonator::ProblemGenerator gen(kDim, kFactors, kCodebook, master);
  const std::uint64_t fingerprint = serve::codebook_fingerprint(gen.codebooks());

  auto t1 = Clock::now();
  h3dfact::io::ArtifactWriter writer;
  h3dfact::io::add_codebook_set(writer, gen.codebooks());
  writer.write(artifact);
  t.pack_s = since(t1);

  t1 = Clock::now();
  const h3dfact::io::LoadedCodebookSet loaded =
      h3dfact::io::load_codebook_set(artifact);
  t.load_s = since(t1);
  if (loaded.fingerprint != fingerprint) {
    throw std::runtime_error("artifact fingerprint differs from its codebooks");
  }

  sw::ServeInitFrame init;
  init.dim = kDim;
  init.factors = kFactors;
  init.codebook_size = kCodebook;
  init.max_iterations = kCap;
  init.seed = codebook_seed;
  init.artifact_path = artifact;
  init.artifact_fingerprint = fingerprint;
  t1 = Clock::now();
  serve::WorkerSpaceCache cache;
  const bool warm = cache.bind(init).from_artifact;
  t.bind_s = since(t1);
  if (!warm) throw std::runtime_error("worker space did not warm-start");

  serve::ServeConfig cfg;
  cfg.dim = kDim;
  cfg.factors = kFactors;
  cfg.codebook_size = kCodebook;
  cfg.max_iterations = kCap;
  cfg.seed = codebook_seed;
  cfg.artifact = artifact;
  cfg.max_batch = kMaxBatch;
  cfg.max_delay_us = kMaxDelayUs;
  fleet.coord = std::make_unique<serve::ServeCoordinator>(cfg);
  fleet.runner = std::thread([&fleet]() {
    try {
      fleet.coord->run();
    } catch (const std::exception&) {
      ++fleet.worker_errors;
    }
  });
  const std::string addr = fleet.addr();
  for (int i = 0; i < kWorkers; ++i) {
    fleet.workers.emplace_back([addr, &fleet]() {
      try {
        const int fd = sw::tcp_connect(addr, 100, 20);
        serve::serve_factor_worker(fd, fd);
      } catch (const std::exception&) {
        ++fleet.worker_errors;
      }
    });
  }
  client = std::make_unique<serve::ServeClient>(addr);
  // One full batch per worker proves the fleet is bound and serving.
  for (std::uint64_t i = 0; i < kWorkers * kMaxBatch; ++i) {
    if (!client->send(make_request(seed, kWarmStream + i, kWarmStream + i))) {
      throw std::runtime_error("coordinator closed during warm-up");
    }
  }
  for (std::uint64_t i = 0; i < kWorkers * kMaxBatch; ++i) {
    const auto reply = client->await_reply(30000);
    if (!reply || reply->status != sw::ReplyStatus::kOk) {
      throw std::runtime_error("warm-up request not served");
    }
  }
  t.total_s = since(t0);
  return t;
}

/// One reply slot of a request the generator sent.
struct Outcome {
  double due_s = 0.0;    ///< when it was due (seconds after phase start)
  double sent_s = -1.0;  ///< when the generator sent it
  double done_s = -1.0;  ///< when its reply arrived (-1: none)
  int status = -1;       ///< ReplyStatus, -1 = lost
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::uint64_t batch = 0;
  std::uint64_t iterations = 0;
  bool correct = false;
  std::vector<std::uint64_t> decoded;
};

/// Requests [first_id, first_id + n) in flight on one client. With a
/// tracer, each reply becomes a request span with its queue and solve
/// stages as children, recorded as the reply arrives.
class Phase {
 public:
  Phase(serve::ServeClient& client, std::uint64_t first_id, std::size_t n,
        Tracer* tracer = nullptr)
      : client_(client),
        first_id_(first_id),
        out_(n),
        tracer_(tracer),
        origin_(tracer ? tracer->now() : 0.0) {}

  Clock::time_point start = Clock::now();
  std::size_t completed = 0;  ///< replies of any status absorbed
  std::vector<Outcome>& outcomes() { return out_; }

  bool send(const sw::FactorRequestFrame& req, double due_s) {
    Outcome& o = out_.at(req.id - first_id_);
    o.due_s = due_s;
    o.sent_s = since(start);
    return client_.send(req);
  }
  /// Absorb replies for up to `timeout_ms`; false once disconnected.
  bool poll(int timeout_ms) {
    bool disconnected = false;
    while (auto reply = client_.poll_reply(timeout_ms, &disconnected)) {
      absorb(*reply);
      timeout_ms = 0;
    }
    return !disconnected;
  }

 private:
  void absorb(const sw::FactorReplyFrame& r) {
    if (r.id < first_id_ || r.id - first_id_ >= out_.size()) return;
    Outcome& o = out_[r.id - first_id_];
    if (o.status >= 0) return;  // duplicate
    o.done_s = since(start);
    o.status = static_cast<int>(r.status);
    o.queue_ms = static_cast<double>(r.queue_us) / 1000.0;
    o.solve_ms = static_cast<double>(r.solve_us) / 1000.0;
    o.batch = r.batch;
    o.iterations = r.iterations;
    o.correct = r.correct_known != 0 && r.correct != 0;
    o.decoded = r.decoded;
    ++completed;
    if (tracer_) {
      const double t0 = origin_ + o.sent_s;
      const std::uint64_t id =
          tracer_->record("serve.request", 0, t0, origin_ + o.done_s, r.id);
      const double q1 = t0 + o.queue_ms / 1000.0;
      tracer_->record("serve.queue", id, t0, q1, r.id);
      tracer_->record("serve.solve", id, q1, q1 + o.solve_ms / 1000.0, r.id);
    }
  }

  serve::ServeClient& client_;
  std::uint64_t first_id_;
  std::vector<Outcome> out_;
  Tracer* tracer_;
  double origin_;  ///< tracer time at `start`
};

/// Wait out the stragglers of a phase (bounded by kTailMs).
void drain_phase(Phase& p) {
  const auto until = Clock::now() + std::chrono::milliseconds(kTailMs);
  while (p.completed < p.outcomes().size() && Clock::now() < until) {
    if (!p.poll(10)) break;
  }
}

void write_rung(JsonWriter& w, const Rung& rung, Phase& p,
                const std::vector<std::pair<double, double>>& backlog) {
  std::vector<double> lat, late, queue, solve, batch;
  std::uint64_t rejected = 0, failed = 0, lost = 0;
  for (const Outcome& o : p.outcomes()) {
    late.push_back(1000.0 * (o.sent_s - o.due_s));
    if (o.status == static_cast<int>(sw::ReplyStatus::kOk)) {
      lat.push_back(1000.0 * (o.done_s - o.due_s));
      queue.push_back(o.queue_ms);
      solve.push_back(o.solve_ms);
      batch.push_back(static_cast<double>(o.batch));
    } else {
      lat.push_back(-1.0);  // a miss at any latency limit
      if (o.status < 0) ++lost;
      else if (o.status == static_cast<int>(sw::ReplyStatus::kRejected)) ++rejected;
      else ++failed;
    }
  }
  w.begin_object();
  w.field("name", rung.name).field("qps", rung.qps).field("seconds", rung.seconds);
  w.field("rejected", rejected).field("failed", failed).field("lost", lost);
  w.array("lat_ms", lat).array("late_ms", late);
  w.array("queue_ms", queue).array("solve_ms", solve).array("batch", batch);
  w.key("backlog").begin_array();
  for (const auto& [t, n] : backlog) w.begin_array().value(t).value(n).end_array();
  w.end_array();
  w.end_object();
}

/// Open loop at `rung.qps` for `rung.seconds`.
void run_rung(JsonWriter& w, serve::ServeClient& client, const Rung& rung,
              std::uint64_t seed, std::uint64_t first_index) {
  const auto n = static_cast<std::size_t>(std::llround(rung.qps * rung.seconds));
  Phase p(client, first_index, n);
  std::vector<std::pair<double, double>> backlog;
  std::size_t sent = 0;
  bool up = true;
  while (sent < n && up) {
    const double due = static_cast<double>(sent) / rung.qps;
    const double wait = due - since(p.start);
    if (wait <= 0.0) {
      if (!p.send(make_request(seed, first_index + sent, first_index + sent), due)) {
        break;
      }
      ++sent;
      if (sent % 64 == 0) {
        backlog.emplace_back(since(p.start),
                             static_cast<double>(sent - p.completed));
      }
      up = p.poll(0);
    } else if (wait >= 0.002) {
      // poll's millisecond timeout may overshoot by one tick; wake early.
      up = p.poll(static_cast<int>(wait * 1000.0) - 1);
    } else {
      up = p.poll(0);
      const double left = due - since(p.start);
      if (left > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(left));
    }
  }
  drain_phase(p);
  write_rung(w, rung, p, backlog);
}

/// A bulk job's totals. Only the checked sample of its replies is kept, so
/// the benchmark's own memory does not grow with the number of jobs a run
/// makes.
struct ClosedJob {
  double wall_s = 0.0;
  std::uint64_t requests = 0, ok = 0, correct = 0, iterations = 0;
  double solve_s = 0.0;         ///< summed batch solve time
  std::vector<Outcome> sample;  ///< the first kCheckSample replies
};

/// kClosedRequests with at most kWindow outstanding, traced when `tracer`
/// is set.
ClosedJob run_closed(serve::ServeClient& client, std::uint64_t seed,
                     Tracer* tracer) {
  Phase p(client, kClosedStream, kClosedRequests, tracer);
  std::size_t sent = 0;
  bool up = true;
  while (up && p.completed < kClosedRequests) {
    while (sent < kClosedRequests && sent - p.completed < kWindow) {
      // A closed loop sends when a window slot frees: due and sent coincide.
      if (!p.send(make_request(seed, kClosedStream + sent, kClosedStream + sent),
                  since(p.start))) {
        up = false;
        break;
      }
      ++sent;
    }
    const std::size_t before = p.completed;
    up = up && p.poll(kTailMs);
    if (p.completed == before) break;  // timed out: the rest are lost
  }
  ClosedJob job;
  job.wall_s = since(p.start);
  job.requests = p.outcomes().size();
  for (const Outcome& o : p.outcomes()) {
    if (o.status != static_cast<int>(sw::ReplyStatus::kOk)) continue;
    ++job.ok;
    job.correct += o.correct ? 1 : 0;
    job.iterations += o.iterations;
    // Every request of a batch reports the batch's solve time.
    job.solve_s += o.solve_ms / 1000.0 /
                   static_cast<double>(std::max<std::uint64_t>(1, o.batch));
  }
  job.sample.assign(p.outcomes().begin(),
                    p.outcomes().begin() + static_cast<std::ptrdiff_t>(
                                               std::min(kCheckSample, job.requests)));
  return job;
}

void write_closed(JsonWriter& w, const ClosedJob& job) {
  w.begin_object();
  w.field("wall_s", job.wall_s).field("requests", job.requests);
  w.field("ok", job.ok).field("correct", job.correct);
  w.field("iterations", job.iterations).field("solve_s", job.solve_s);
  w.end_object();
}

/// Replies of the first kCheckSample closed-job requests against a local
/// BatchedFactorizer over the same codebooks and per-trial streams.
std::uint64_t check_against_local(std::uint64_t seed, const ClosedJob& job) {
  Rng master(kCodebookSeed);
  h3dfact::resonator::ProblemGenerator gen(kDim, kFactors, kCodebook, master);
  h3dfact::resonator::ResonatorOptions opts;
  opts.max_iterations = kCap;
  const h3dfact::resonator::BatchedFactorizer local(gen.codebooks_ptr(), opts);
  std::vector<h3dfact::resonator::FactorizationProblem> problems;
  std::vector<Rng> rngs;
  for (std::uint64_t i = 0; i < kCheckSample; ++i) {
    const std::uint64_t index = kClosedStream + i;
    Rng r(serve::trial_stream_seed(seed, index));
    const double flip = flip_for(seed, index);
    problems.push_back(flip > 0.0 ? gen.sample_noisy(flip, r) : gen.sample(r));
    rngs.push_back(r);
  }
  Rng device(0);
  const auto results = local.run(problems, rngs, device);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < kCheckSample; ++i) {
    const Outcome& o = job.sample.at(i);
    const auto& r = results[i];
    const std::vector<std::uint64_t> want(r.decoded.begin(), r.decoded.end());
    if (o.status != static_cast<int>(sw::ReplyStatus::kOk) || o.decoded != want ||
        o.iterations != r.iterations ||
        o.correct != problems[i].is_correct(r.decoded)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

void serve_open(const RunArgs& a, JsonWriter& w) {
  const std::uint64_t seed = a.seed;
  const std::string artifact = a.work_dir + "/codebooks.h3da";

  Fleet fleet;
  std::unique_ptr<serve::ServeClient> client;
  std::vector<double> setup, pack, load, bind;
  serve::ServeStats stats;  // summed over every fleet of the run
  auto retire_fleet = [&] {
    client.reset();
    if (fleet.coord) {
      const serve::ServeStats s = fleet.coord->stats();
      for (auto field : {&serve::ServeStats::accepted, &serve::ServeStats::completed,
                         &serve::ServeStats::rejected, &serve::ServeStats::failed,
                         &serve::ServeStats::batches, &serve::ServeStats::requeues,
                         &serve::ServeStats::workers_dropped}) {
        stats.*field += s.*field;
      }
    }
    fleet.stop();
    fleet.coord.reset();
  };
  // Set-ups happen in pairs before every bulk job, so their median covers
  // the whole run; the last fleet brought up serves what follows.
  auto fresh_fleet = [&] {
    for (int k = 0; k < 2; ++k) {
      retire_fleet();
      const SetupTimes t = bring_up(artifact, kCodebookSeed, seed, fleet, client);
      setup.push_back(t.total_s);
      pack.push_back(t.pack_s);
      load.push_back(t.load_s);
      bind.push_back(t.bind_s);
    }
  };

  // Bulk jobs, each on a fresh fleet, run before the ladder and after every
  // rung, so their median covers the whole run on a host whose speed
  // drifts; more follow the ladder until --seconds have passed (untraced
  // runs). The ladder thus runs alike with and without tracing.
  std::vector<ClosedJob> jobs;
  Pacer pacer(a.seconds, 0);
  auto bulk_job = [&] {
    pacer.run([&] {
      fresh_fleet();
      jobs.push_back(run_closed(*client, seed, nullptr));
    });
  };
  bulk_job();
  w.key("ladder").begin_array();
  std::uint64_t first = kLadderStream;
  for (const Rung& rung : kLadder) {
    run_rung(w, *client, rung, seed, first);
    first += kRungStride;
    bulk_job();
  }
  w.end_array();
  while (!a.trace && pacer.more()) bulk_job();
  if (a.trace) {
    // Between two untraced twins on the same fleet (the last bulk job and
    // one more), so the overhead compares like with like.
    Tracer tracer;
    const ClosedJob traced = run_closed(*client, seed, &tracer);
    jobs.push_back(run_closed(*client, seed, nullptr));
    w.key("traced");
    write_closed(w, traced);
    w.key("trace").begin_object();
    write_trace(w, tracer);
    w.end_object();
  }
  w.array("setup_s", setup);
  w.array("io_pack_s", pack).array("io_load_s", load).array("serve_bind_s", bind);
  w.key("closed").begin_array();
  for (const ClosedJob& job : jobs) write_closed(w, job);
  w.end_array();
  w.field("check_sample", static_cast<std::uint64_t>(kCheckSample));
  w.field("check_mismatches", check_against_local(seed, jobs.front()));

  retire_fleet();
  w.key("stats").begin_object();
  w.field("accepted", stats.accepted).field("completed", stats.completed);
  w.field("rejected", stats.rejected).field("failed", stats.failed);
  w.field("batches", stats.batches).field("requeues", stats.requeues);
  w.field("workers_dropped", stats.workers_dropped);
  w.end_object();
  w.field("worker_errors", static_cast<std::int64_t>(fleet.worker_errors.load()));
  std::remove(artifact.c_str());
}

}  // namespace perfbench
