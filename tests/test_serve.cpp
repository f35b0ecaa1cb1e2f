// Serving-layer tests (docs/serving.md): the serve wire frames round-trip
// and reject truncation, the encode side enforces the same frame cap the
// parser does, and a real ServeCoordinator + serve-worker fleet on TCP
// loopback serves requests bit-identically to sequential solves, absorbs
// late-joining workers, requeues batches off wedged workers within the
// configured deadline (also while other peers keep its loop busy) or when
// they close mid-batch, drops malformed clients without dying, drains to a
// clean shutdown, and serve workers refuse a mismatched HelloAck.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "resonator/problem.hpp"
#include "resonator/resonator.hpp"
#include "serve/serving.hpp"
#include "sweep/protocol.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;

// --- wire frames ------------------------------------------------------------

sweep::FactorRequestFrame sample_request() {
  sweep::FactorRequestFrame req;
  req.id = 42;
  req.deadline_us = 250000;
  req.encoding = sweep::QueryEncoding::kSeeded;
  req.trial_seed = 0xfeedfacecafebeefULL;
  req.flip_prob = 0.0625;
  req.solve_seed = 7;
  return req;
}

TEST(ServeProtocol, RequestRoundTripBothEncodings) {
  sweep::FactorRequestFrame req = sample_request();
  sweep::FactorRequestFrame d =
      sweep::decode_factor_request(sweep::encode_factor_request(req));
  EXPECT_EQ(d.id, req.id);
  EXPECT_EQ(d.deadline_us, req.deadline_us);
  EXPECT_EQ(d.encoding, sweep::QueryEncoding::kSeeded);
  EXPECT_EQ(d.trial_seed, req.trial_seed);
  EXPECT_EQ(d.flip_prob, req.flip_prob);
  EXPECT_EQ(d.solve_seed, req.solve_seed);
  EXPECT_TRUE(d.query_words.empty());

  req.encoding = sweep::QueryEncoding::kExplicit;
  req.query_words = {0x0123456789abcdefULL, ~0ULL, 0ULL, 1ULL};
  d = sweep::decode_factor_request(sweep::encode_factor_request(req));
  EXPECT_EQ(d.encoding, sweep::QueryEncoding::kExplicit);
  EXPECT_EQ(d.query_words, req.query_words);
}

TEST(ServeProtocol, ReplyRoundTripPreservesEveryField) {
  sweep::FactorReplyFrame reply;
  reply.id = 77;
  reply.status = sweep::ReplyStatus::kFailed;
  reply.error = "request lost by 3 workers in a row";
  reply.solved = 1;
  reply.correct_known = 1;
  reply.correct = 1;
  reply.decoded = {3, 0, 15};
  reply.iterations = 64;
  reply.queue_us = 1234;
  reply.solve_us = 5678;
  reply.batch = 8;
  const sweep::FactorReplyFrame d =
      sweep::decode_factor_reply(sweep::encode_factor_reply(reply));
  EXPECT_EQ(d.id, reply.id);
  EXPECT_EQ(d.status, reply.status);
  EXPECT_EQ(d.error, reply.error);
  EXPECT_EQ(d.solved, reply.solved);
  EXPECT_EQ(d.correct_known, reply.correct_known);
  EXPECT_EQ(d.correct, reply.correct);
  EXPECT_EQ(d.decoded, reply.decoded);
  EXPECT_EQ(d.iterations, reply.iterations);
  EXPECT_EQ(d.queue_us, reply.queue_us);
  EXPECT_EQ(d.solve_us, reply.solve_us);
  EXPECT_EQ(d.batch, reply.batch);
}

TEST(ServeProtocol, BatchAndInitRoundTrips) {
  sweep::ServeInitFrame init;
  init.dim = 2048;
  init.factors = 4;
  init.codebook_size = 32;
  init.max_iterations = 500;
  init.seed = 99;
  const sweep::ServeInitFrame di =
      sweep::decode_serve_init(sweep::encode_serve_init(init));
  EXPECT_EQ(di.dim, init.dim);
  EXPECT_EQ(di.factors, init.factors);
  EXPECT_EQ(di.codebook_size, init.codebook_size);
  EXPECT_EQ(di.max_iterations, init.max_iterations);
  EXPECT_EQ(di.seed, init.seed);

  sweep::ServeReadyFrame ready;
  ready.fingerprint = 0xabcdef0123456789ULL;
  EXPECT_EQ(sweep::decode_serve_ready(sweep::encode_serve_ready(ready))
                .fingerprint,
            ready.fingerprint);

  sweep::BatchTaskFrame task;
  task.batch_id = 5;
  task.requests = {sample_request(), sample_request()};
  task.requests[1].id = 43;
  const sweep::BatchTaskFrame dt =
      sweep::decode_batch_task(sweep::encode_batch_task(task));
  ASSERT_EQ(dt.requests.size(), 2u);
  EXPECT_EQ(dt.batch_id, 5u);
  EXPECT_EQ(dt.requests[0].id, 42u);
  EXPECT_EQ(dt.requests[1].id, 43u);

  sweep::BatchResultFrame result;
  result.batch_id = 5;
  result.replies.resize(2);
  result.replies[0].id = 42;
  result.replies[1].id = 43;
  result.replies[1].decoded = {1, 2, 3};
  const sweep::BatchResultFrame dr =
      sweep::decode_batch_result(sweep::encode_batch_result(result));
  ASSERT_EQ(dr.replies.size(), 2u);
  EXPECT_EQ(dr.batch_id, 5u);
  EXPECT_EQ(dr.replies[1].decoded, result.replies[1].decoded);
}

TEST(ServeProtocol, TruncatedAndTrailingBytesThrow) {
  sweep::FactorRequestFrame req = sample_request();
  req.encoding = sweep::QueryEncoding::kExplicit;
  req.query_words = {1, 2, 3};
  const std::string request = sweep::encode_factor_request(req);
  sweep::BatchTaskFrame task;
  task.batch_id = 1;
  task.requests = {sample_request()};
  const std::string batch = sweep::encode_batch_task(task);
  for (const std::string& payload : {request, batch}) {
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{5}, payload.size() / 2,
          payload.size() - 1}) {
      EXPECT_THROW((void)sweep::decode_factor_request(
                       std::string_view(payload.data(), cut)),
                   std::runtime_error);
    }
  }
  EXPECT_THROW((void)sweep::decode_factor_request(request + "x"),
               std::runtime_error);
  EXPECT_THROW((void)sweep::decode_batch_task(batch + "x"),
               std::runtime_error);
  EXPECT_THROW((void)sweep::decode_factor_reply("ab"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_serve_init("ab"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_serve_ready("ab"), std::runtime_error);
}

TEST(ServeProtocol, EncodeEnforcesTheSameFrameCapAsDecode) {
  // The 1 GiB cap used to exist only in the PARSER; a coordinator could
  // emit a frame every peer would then reject. encode_frame now refuses it
  // at the source with a typed error.
  std::string oversized(sweep::kMaxFramePayload + 1, '\0');
  EXPECT_THROW(
      (void)sweep::encode_frame(sweep::FrameKind::kBatchTask, oversized),
      std::length_error);
  oversized.resize(0);
  oversized.shrink_to_fit();
}

TEST(ServeProtocol, HelloCarriesPeerRole) {
  sweep::HelloFrame hello;
  EXPECT_EQ(hello.role,
            static_cast<std::uint32_t>(sweep::PeerRole::kSweepWorker));
  hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
  const sweep::HelloFrame d = sweep::decode_hello(sweep::encode_hello(hello));
  EXPECT_EQ(d.magic, sweep::kProtocolMagic);
  EXPECT_EQ(d.version, sweep::kProtocolVersion);
  EXPECT_EQ(d.role, static_cast<std::uint32_t>(sweep::PeerRole::kServeClient));
}

// --- live coordinator fixtures ----------------------------------------------

serve::ServeConfig small_config() {
  serve::ServeConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.dim = 256;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.max_iterations = 100;
  cfg.seed = 7;
  cfg.max_batch = 4;
  cfg.max_delay_us = 1000;
  cfg.max_queue = 64;
  cfg.worker_deadline_ms = 10000;
  return cfg;
}

/// A ServeCoordinator running on its own thread; stats are valid after
/// join() (triggered by a client Drain or request_stop()).
struct Daemon {
  std::unique_ptr<serve::ServeCoordinator> coord;
  std::thread runner;
  serve::ServeStats stats;

  explicit Daemon(serve::ServeConfig cfg)
      : coord(std::make_unique<serve::ServeCoordinator>(std::move(cfg))) {
    runner = std::thread([this]() { stats = coord->run(); });
  }
  ~Daemon() {
    if (runner.joinable()) {
      coord->request_stop();
      runner.join();
    }
  }
  [[nodiscard]] std::string addr() const {
    return "127.0.0.1:" + std::to_string(coord->listen_port());
  }
  void join() {
    if (runner.joinable()) runner.join();
  }
  /// Poll the live counters until `n` workers have handshaken (30 s cap).
  [[nodiscard]] bool await_workers(std::uint64_t n) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (coord->stats().workers_seen < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }
};

std::thread launch_serve_worker(const std::string& addr) {
  return std::thread([addr]() {
    const int fd = sweep::tcp_connect(addr, /*retries=*/40, /*retry_ms=*/50);
    serve::serve_factor_worker(fd, fd);
  });
}

/// What a sequential (unbatched, in-process) solve of served trial `t`
/// produces: ResonatorNetwork::run over the identical per-trial stream.
struct SequentialRef {
  resonator::ResonatorResult result;
  bool correct = false;
};

SequentialRef sequential_solve(const serve::ServeConfig& cfg, std::uint64_t t,
                               double flip) {
  util::Rng master(cfg.seed);
  resonator::ProblemGenerator gen(cfg.dim, cfg.factors, cfg.codebook_size,
                                  master);
  resonator::ResonatorOptions opts;
  opts.max_iterations = cfg.max_iterations;
  resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);
  util::Rng r(serve::trial_stream_seed(cfg.seed, t));
  const resonator::FactorizationProblem problem =
      flip > 0.0 ? gen.sample_noisy(flip, r) : gen.sample(r);
  SequentialRef ref;
  ref.result = net.run(problem, r);
  ref.correct = problem.is_correct(ref.result.decoded);
  return ref;
}

// --- end to end -------------------------------------------------------------

// Sixteen requests submitted at once (so the coordinator actually forms
// multi-request batches) come back with EXACTLY the solver trajectory a
// sequential in-process solve of the same trial produces — decoded indices,
// iteration count, solved flag and correctness all bit-identical.
TEST(ServeEndToEnd, BatchedRepliesBitIdenticalToSequentialSolves) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w1 = launch_serve_worker(daemon.addr());
  std::thread w2 = launch_serve_worker(daemon.addr());
  // Both workers handshake before any request: otherwise the first can
  // serve all of them and the drain can end the run before the second
  // worker's Hello is answered.
  ASSERT_TRUE(daemon.await_workers(2)) << "serve workers never handshook";

  constexpr std::uint64_t kRequests = 16;
  serve::ServeClient client(daemon.addr());
  std::map<std::uint64_t, double> flip_of;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    sweep::FactorRequestFrame req;
    req.id = t + 1;
    req.encoding = sweep::QueryEncoding::kSeeded;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, t);
    req.flip_prob = (t % 2 == 0) ? 0.0 : 0.02;  // mixed clean / noisy
    flip_of[req.id] = req.flip_prob;
    ASSERT_TRUE(client.send(req));
  }

  std::map<std::uint64_t, sweep::FactorReplyFrame> replies;
  while (replies.size() < kRequests) {
    auto reply = client.await_reply(30000);
    ASSERT_TRUE(reply.has_value()) << "coordinator disconnected";
    replies[reply->id] = *reply;
  }

  for (std::uint64_t t = 0; t < kRequests; ++t) {
    const sweep::FactorReplyFrame& reply = replies.at(t + 1);
    const SequentialRef ref = sequential_solve(cfg, t, flip_of.at(t + 1));
    ASSERT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;
    EXPECT_EQ(reply.solved != 0, ref.result.solved) << "trial " << t;
    EXPECT_EQ(reply.iterations, ref.result.iterations) << "trial " << t;
    ASSERT_EQ(reply.decoded.size(), ref.result.decoded.size());
    for (std::size_t f = 0; f < reply.decoded.size(); ++f) {
      EXPECT_EQ(reply.decoded[f], ref.result.decoded[f])
          << "trial " << t << " factor " << f;
    }
    EXPECT_EQ(reply.correct_known, 1u);
    EXPECT_EQ(reply.correct != 0, ref.correct) << "trial " << t;
    EXPECT_GE(reply.batch, 1u);
  }

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w1.join();
  w2.join();
  EXPECT_EQ(daemon.stats.completed, kRequests);
  EXPECT_EQ(daemon.stats.rejected, 0u);
  EXPECT_EQ(daemon.stats.failed, 0u);
  EXPECT_EQ(daemon.stats.workers_seen, 2u);
}

// An explicit (pre-encoded query) request factorizes to the indices the
// query was built from.
TEST(ServeEndToEnd, ExplicitQueryRoundTrip) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w = launch_serve_worker(daemon.addr());

  // The client reproduces the served codebooks from the shared seed and
  // builds a clean query for known indices.
  util::Rng master(cfg.seed);
  resonator::ProblemGenerator gen(cfg.dim, cfg.factors, cfg.codebook_size,
                                  master);
  const std::vector<std::size_t> truth = {3, 1, 5};
  const resonator::FactorizationProblem problem = gen.make(truth);

  sweep::FactorRequestFrame req;
  req.id = 9;
  req.encoding = sweep::QueryEncoding::kExplicit;
  req.solve_seed = 1234;
  req.query_words.assign(problem.query.data(),
                         problem.query.data() + problem.query.words());
  serve::ServeClient client(daemon.addr());
  const sweep::FactorReplyFrame reply = client.call(req, 30000);
  ASSERT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;
  EXPECT_EQ(reply.correct_known, 0u);  // server knows no ground truth
  EXPECT_NE(reply.solved, 0u);
  ASSERT_EQ(reply.decoded.size(), truth.size());
  for (std::size_t f = 0; f < truth.size(); ++f) {
    EXPECT_EQ(reply.decoded[f], truth[f]) << "factor " << f;
  }

  // A wrong-sized explicit query is rejected up front, not shipped.
  sweep::FactorRequestFrame bad = req;
  bad.id = 10;
  bad.query_words.pop_back();
  const sweep::FactorReplyFrame rejected = client.call(bad, 30000);
  EXPECT_EQ(rejected.status, sweep::ReplyStatus::kRejected);

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
}

// Requests submitted while NO worker is connected queue up and complete
// once the first worker joins, mid-run.
TEST(ServeEndToEnd, LateJoiningWorkerAbsorbsQueuedRequests) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);

  serve::ServeClient client(daemon.addr());
  constexpr std::uint64_t kRequests = 4;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    sweep::FactorRequestFrame req;
    req.id = t + 1;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, t);
    ASSERT_TRUE(client.send(req));
  }
  // No replies can exist yet: the fleet is empty.
  bool disconnected = false;
  EXPECT_FALSE(client.poll_reply(50, &disconnected).has_value());
  EXPECT_FALSE(disconnected);

  std::thread w = launch_serve_worker(daemon.addr());  // the late joiner
  std::size_t got = 0;
  while (got < kRequests) {
    auto reply = client.await_reply(30000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
    ++got;
  }

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
  EXPECT_EQ(daemon.stats.completed, kRequests);
}

// Handshake `ch` as a serve worker bound to `fingerprint` and wait for the
// first BatchTask. False (after recording a failure) if any step is off.
bool take_first_batch(sweep::WorkerChannel& ch, std::uint64_t fingerprint) {
  sweep::HelloFrame hello;
  hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeWorker);
  ch.send(sweep::FrameKind::kHello, sweep::encode_hello(hello));
  auto ack = ch.await_frame(10000);
  EXPECT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
  auto init = ch.await_frame(10000);
  EXPECT_TRUE(init && init->kind == sweep::FrameKind::kServeInit);
  sweep::ServeReadyFrame ready;
  ready.fingerprint = fingerprint;
  ch.send(sweep::FrameKind::kServeReady, sweep::encode_serve_ready(ready));
  auto task = ch.await_frame(10000);
  EXPECT_TRUE(task && task->kind == sweep::FrameKind::kBatchTask);
  return task && task->kind == sweep::FrameKind::kBatchTask;
}

// A worker that accepts a batch and then wedges — socket open, no answer —
// is dropped after worker_deadline_ms and its batch requeued onto a healthy
// worker; the reply still matches the sequential solve.
TEST(ServeEndToEnd, WedgedWorkerBatchRequeuedWithinDeadline) {
  serve::ServeConfig cfg = small_config();
  cfg.worker_deadline_ms = 300;
  Daemon daemon(cfg);
  const std::uint64_t fingerprint = daemon.coord->fingerprint();

  std::atomic<bool> wedged_got_batch{false};
  std::atomic<bool> release{false};
  std::thread wedged([&daemon, fingerprint, &wedged_got_batch, &release]() {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "wedged");
    // A convincing handshake...
    if (!take_first_batch(ch, fingerprint)) return;
    wedged_got_batch.store(true);
    // ...and then silence, with the socket held OPEN: only the batch
    // deadline can recover the requests.
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });

  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  ASSERT_TRUE(client.send(req));
  while (!wedged_got_batch.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Only now add the healthy worker, so the batch MUST travel through the
  // deadline-drop/requeue path to reach it.
  std::thread healthy = launch_serve_worker(daemon.addr());
  auto reply = client.await_reply(30000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
  const SequentialRef ref = sequential_solve(cfg, 0, 0.0);
  EXPECT_EQ(reply->iterations, ref.result.iterations);
  ASSERT_EQ(reply->decoded.size(), ref.result.decoded.size());
  for (std::size_t f = 0; f < reply->decoded.size(); ++f) {
    EXPECT_EQ(reply->decoded[f], ref.result.decoded[f]);
  }

  release.store(true);
  wedged.join();
  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  healthy.join();
  EXPECT_GE(daemon.stats.requeues, 1u);
  EXPECT_GE(daemon.stats.workers_dropped, 1u);
  EXPECT_EQ(daemon.stats.completed, 1u);
  EXPECT_EQ(daemon.stats.failed, 0u);
}

// A worker that closes its socket while it holds a batch is dropped on the
// EOF, and the batch is requeued onto the worker that joins afterwards.
TEST(ServeEndToEnd, WorkerClosingMidBatchIsRequeued) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::atomic<bool> deserted{false};
  std::thread deserter([&daemon, &deserted]() {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "deserter");
    (void)take_first_batch(ch, daemon.coord->fingerprint());
    ch.close_all();  // gone with the batch, no answer
    deserted.store(true);
  });

  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  ASSERT_TRUE(client.send(req));
  deserter.join();
  ASSERT_TRUE(deserted.load());

  std::thread healthy = launch_serve_worker(daemon.addr());
  auto reply = client.await_reply(30000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
  const SequentialRef ref = sequential_solve(cfg, 0, 0.0);
  EXPECT_EQ(reply->iterations, ref.result.iterations);
  ASSERT_EQ(reply->decoded.size(), ref.result.decoded.size());
  for (std::size_t f = 0; f < reply->decoded.size(); ++f) {
    EXPECT_EQ(reply->decoded[f], ref.result.decoded[f]);
  }

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  healthy.join();
  EXPECT_EQ(daemon.stats.requeues, 1u);
  EXPECT_EQ(daemon.stats.workers_dropped, 1u);
  EXPECT_EQ(daemon.stats.completed, 1u);
}

// Deadlines expire on every wake of the coordinator's loop, not only on
// idle timeouts: while a second client floods it (its socket is readable on
// every wake), a wedged worker must still be dropped within its deadline
// and its batch requeued.
TEST(ServeEndToEnd, WedgedWorkerDroppedWhileClientsKeepTheLoopBusy) {
  serve::ServeConfig cfg = small_config();
  cfg.worker_deadline_ms = 300;
  Daemon daemon(cfg);

  std::atomic<bool> got_batch{false};
  std::atomic<bool> release{false};
  std::thread wedged([&daemon, &got_batch, &release]() {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "wedged");
    got_batch.store(take_first_batch(ch, daemon.coord->fingerprint()));
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  ASSERT_TRUE(client.send(req));
  while (!got_batch.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The flood: a client streaming Drain frames (idempotent after the
  // first; the coordinator ignores their padding) far faster than one pump
  // per wake consumes them. The drain it requests completes once the
  // requeued batch is answered, and the coordinator's hang-up ends the
  // flood.
  const int flood_fd = sweep::tcp_connect(daemon.addr(), 40, 50);
  std::thread flood([flood_fd]() {
    sweep::HelloFrame hello;
    hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
    const std::string opening = sweep::encode_frame(
        sweep::FrameKind::kHello, sweep::encode_hello(hello));
    std::string drains;
    while (drains.size() < (1u << 18)) {
      drains += sweep::encode_frame(sweep::FrameKind::kDrain,
                                    std::string(64, 'x'));
    }
    if (::send(flood_fd, opening.data(), opening.size(), MSG_NOSIGNAL) < 0) {
      return;
    }
    while (::send(flood_fd, drains.data(), drains.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread healthy = launch_serve_worker(daemon.addr());
  const auto t0 = std::chrono::steady_clock::now();
  bool disconnected = false;
  std::optional<sweep::FactorReplyFrame> reply;
  while (!reply && !disconnected &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    reply = client.poll_reply(100, &disconnected);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  daemon.coord->request_stop();  // ends a flood the fix did not end
  daemon.join();
  release.store(true);
  wedged.join();
  flood.join();
  healthy.join();
  ::close(flood_fd);

  ASSERT_TRUE(reply.has_value()) << "the wedged worker's batch never came back";
  EXPECT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
  EXPECT_LT(elapsed, std::chrono::milliseconds(cfg.worker_deadline_ms + 3000));
  EXPECT_GE(daemon.stats.requeues, 1u);
  EXPECT_GE(daemon.stats.workers_dropped, 1u);
}

// A client whose stream turns malformed (a frame header announcing more
// than kMaxFramePayload bytes) is dropped on the header alone; the other
// clients keep being served.
TEST(ServeEndToEnd, OversizedFrameHeaderDropsOnlyThatClient) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w = launch_serve_worker(daemon.addr());
  serve::ServeClient client(daemon.addr());

  {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel garbler(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                                 "garbler");
    sweep::HelloFrame hello;
    hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
    garbler.send(sweep::FrameKind::kHello, sweep::encode_hello(hello));
    auto ack = garbler.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    std::string header;
    header.push_back(static_cast<char>(sweep::FrameKind::kFactorRequest));
    sweep::put_u64(header, sweep::kMaxFramePayload + 1);
    (void)!::write(fd, header.data(), header.size());
    EXPECT_FALSE(garbler.await_frame(10000).has_value());  // hung up on
  }

  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  const sweep::FactorReplyFrame reply = client.call(req, 30000);
  EXPECT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
  EXPECT_EQ(daemon.stats.clients_seen, 2u);
  EXPECT_EQ(daemon.stats.completed, 1u);
}

// A client that sends an undecodable FactorRequest is dropped; the
// coordinator survives and keeps serving other clients. A sweep worker
// dialing the serve port is turned away with an Error frame.
TEST(ServeEndToEnd, MalformedRequestDropsOnlyThatClient) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w = launch_serve_worker(daemon.addr());

  {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel vandal(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                                "vandal");
    sweep::HelloFrame hello;
    hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
    vandal.send(sweep::FrameKind::kHello, sweep::encode_hello(hello));
    auto ack = vandal.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    vandal.send(sweep::FrameKind::kFactorRequest, "not a request");
    // The coordinator hangs up on us (EOF), rather than crashing.
    auto frame = vandal.await_frame(10000);
    EXPECT_FALSE(frame.has_value());
  }

  {
    // A sweep worker (default Hello role) is rejected with an Error frame.
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel lost(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                              "lost-sweep-worker");
    lost.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto frame = lost.await_frame(10000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, sweep::FrameKind::kError);
  }

  // An honest client on the same coordinator still gets served.
  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  const sweep::FactorReplyFrame reply = client.call(req, 30000);
  EXPECT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
}

// Admission control: with no workers and a tiny queue, excess requests are
// rejected (not silently dropped), and a zero-budget deadline request that
// cannot dispatch in time is rejected with a deadline message.
TEST(ServeEndToEnd, AdmissionRejectsBeyondQueueBound) {
  serve::ServeConfig cfg = small_config();
  cfg.max_queue = 2;
  Daemon daemon(cfg);

  serve::ServeClient client(daemon.addr());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    sweep::FactorRequestFrame req;
    req.id = id;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, id);
    ASSERT_TRUE(client.send(req));
  }
  // Exactly the third request bounces off the full queue.
  auto reply = client.await_reply(30000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 3u);
  EXPECT_EQ(reply->status, sweep::ReplyStatus::kRejected);
  daemon.coord->request_stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.rejected, 3u);  // +2 pending killed by the stop
}

// --- serve worker handshake ------------------------------------------------

// The serve worker must check the HelloAck it receives, as sweep workers
// do: a coordinator answering with another protocol version is refused
// with exit code 2 instead of being served.
TEST(ServeWorker, RejectsMismatchedHelloAck) {
  const int listen_fd = sweep::tcp_listen("127.0.0.1:0");
  const std::uint16_t port = sweep::tcp_local_port(listen_fd);
  std::thread fake([listen_fd]() {
    const int fd = sweep::tcp_accept(listen_fd, 10000);
    if (fd < 0) return;
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "fake-coordinator");
    auto hello = ch.await_frame(10000);
    EXPECT_TRUE(hello && hello->kind == sweep::FrameKind::kHello);
    sweep::HelloFrame ack;
    ack.version = sweep::kProtocolVersion + 1;
    ch.send(sweep::FrameKind::kHelloAck, sweep::encode_hello(ack));
  });  // the channel closes as the thread ends
  const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port), 40,
                                    50);
  EXPECT_EQ(serve::serve_factor_worker(fd, fd), 2);
  fake.join();
  ::close(listen_fd);
}

}  // namespace
