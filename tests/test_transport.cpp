// Transport-layer tests: frame parsing against malformed/truncated input,
// the version handshake, the shared peer loop's loss rules, TCP loopback
// sweeps bit-identical to in-process execution, worker-disconnect,
// malformed-stream and confused-peer requeueing, spec fingerprint
// cross-checks, and the stdio (spawned subprocess) transport driving this
// very binary as the worker.
//
// This suite provides its own main: invoked with --serve-stdio it becomes a
// sweep worker speaking the framed protocol on stdin/stdout, which is how
// the StdioTransport test exercises the real exec path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "sweep/emit.hpp"
#include "sweep/peer_loop.hpp"
#include "sweep/protocol.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/transport.hpp"

namespace {

using namespace h3dfact;

constexpr const char* kUnitGrid = "unit-grid";
std::string g_self_exe;  // absolute path of this test binary (for stdio)

// The registered unit grid: a pure function of its params, so the
// in-process coordinator and the worker (thread or subprocess) resolve the
// identical spec.
sweep::SweepSpec build_unit_grid(const sweep::GridParams& p) {
  sweep::SweepSpec spec;
  spec.name = kUnitGrid;
  spec.base.dim = 256;
  spec.base.factors = 2;
  spec.base.trials = static_cast<std::size_t>(sweep::param_i64(p, "trials", 8));
  spec.base.max_iterations = 60;
  spec.base.seed = static_cast<std::uint64_t>(sweep::param_i64(p, "seed", 12345));
  spec.axes.push_back(sweep::Axis::codebook_size({4, 8}));
  spec.axes.push_back(sweep::Axis::query_noise({0.0, 0.05}));
  return spec;
}

void register_unit_grid() { sweep::register_grid(kUnitGrid, build_unit_grid); }

void expect_stats_equal(const resonator::TrialStats& a,
                        const resonator::TrialStats& b,
                        const std::string& context) {
  EXPECT_EQ(a.trials, b.trials) << context;
  EXPECT_EQ(a.solved, b.solved) << context;
  EXPECT_EQ(a.correct, b.correct) << context;
  EXPECT_EQ(a.cycles, b.cycles) << context;
  EXPECT_EQ(a.iteration_samples, b.iteration_samples) << context;
  EXPECT_EQ(a.correct_by_iteration, b.correct_by_iteration) << context;
  EXPECT_EQ(a.correct_raw_by_iteration, b.correct_raw_by_iteration) << context;
  EXPECT_EQ(a.iterations_solved.count(), b.iterations_solved.count())
      << context;
  EXPECT_EQ(a.iterations_solved.mean(), b.iterations_solved.mean()) << context;
}

// --- frame parser hardening -------------------------------------------------

TEST(FrameParser, ReassemblesSplitFrames) {
  const std::string frame =
      sweep::encode_frame(sweep::FrameKind::kTask,
                          sweep::encode_task({3, 4, 8}));
  sweep::FrameParser parser;
  // Feed one byte at a time: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    parser.feed(frame.data() + i, 1);
    EXPECT_FALSE(parser.next().has_value()) << "byte " << i;
  }
  parser.feed(frame.data() + frame.size() - 1, 1);
  auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, sweep::FrameKind::kTask);
  const sweep::TaskFrame task = sweep::decode_task(parsed->payload);
  EXPECT_EQ(task.cell, 3u);
  EXPECT_EQ(task.begin, 4u);
  EXPECT_EQ(task.end, 8u);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, RejectsUnknownKind) {
  sweep::FrameParser parser;
  std::string bogus(16, '\0');
  bogus[0] = static_cast<char>(0x7f);  // not a FrameKind
  parser.feed(bogus.data(), bogus.size());
  EXPECT_THROW((void)parser.next(), std::runtime_error);
}

TEST(FrameParser, RejectsOversizedPayloadLength) {
  std::string bogus;
  bogus.push_back(static_cast<char>(sweep::FrameKind::kResult));
  sweep::put_u64(bogus, sweep::kMaxFramePayload + 1);
  sweep::FrameParser parser;
  parser.feed(bogus.data(), bogus.size());
  // The length field alone condemns the stream: no need to wait for 1 GiB.
  EXPECT_THROW((void)parser.next(), std::runtime_error);
}

// The parser keeps a read offset instead of erasing each frame from the
// front: split points anywhere, feeds interleaved with partial drains, and
// a 1 MiB pump of empty frames must all come out in order, leaving
// buffered() at exactly the unread byte count.
TEST(FrameParser, ReadOffsetSurvivesSplitsInterleavingAndLongPumps) {
  std::string stream;
  std::vector<std::string> payloads;
  for (std::uint64_t i = 0; i < 6; ++i) {
    payloads.push_back(sweep::encode_task({i, i, i + 1}));
    stream += sweep::encode_frame(sweep::FrameKind::kTask, payloads.back());
  }
  stream += sweep::encode_frame(sweep::FrameKind::kDrain, "");
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    sweep::FrameParser parser;
    std::size_t popped = 0;
    auto drain = [&] {
      while (auto frame = parser.next()) {
        ASSERT_LT(popped, payloads.size() + 1) << "split " << split;
        if (popped < payloads.size()) {
          EXPECT_EQ(frame->kind, sweep::FrameKind::kTask);
          EXPECT_EQ(frame->payload, payloads[popped]) << "split " << split;
        } else {
          EXPECT_EQ(frame->kind, sweep::FrameKind::kDrain);
        }
        ++popped;
      }
    };
    parser.feed(stream.data(), split);
    drain();
    // The rest arrives in 5-byte dribbles, each drained right away.
    for (std::size_t at = split; at < stream.size(); at += 5) {
      parser.feed(stream.data() + at,
                  std::min<std::size_t>(5, stream.size() - at));
      drain();
    }
    EXPECT_EQ(popped, payloads.size() + 1) << "split " << split;
    EXPECT_EQ(parser.buffered(), 0u) << "split " << split;
  }

  const std::string empty = sweep::encode_frame(sweep::FrameKind::kDrain, "");
  std::string pump;
  while (pump.size() < (std::size_t{1} << 20)) pump += empty;
  sweep::FrameParser parser;
  parser.feed(pump.data(), pump.size());
  std::size_t popped = 0;
  while (auto frame = parser.next()) {
    ASSERT_EQ(frame->kind, sweep::FrameKind::kDrain);
    ++popped;
    ASSERT_EQ(parser.buffered(), pump.size() - popped * empty.size());
  }
  EXPECT_EQ(popped, pump.size() / empty.size());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Protocol, TruncatedPayloadsThrowTyped) {
  sweep::CellResult r;
  r.index = 1;
  r.stats.trials = 4;
  r.stats.iteration_samples = {2.0, 3.0};
  const std::string payload = sweep::encode_result(0, r);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(
        (void)sweep::decode_result(std::string_view(payload.data(), cut)),
        std::runtime_error)
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too, not silently ignored.
  EXPECT_THROW((void)sweep::decode_result(payload + "x"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_hello("abc"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_task("abc"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_spec_init("ab"), std::runtime_error);
}

TEST(Protocol, ResultRoundTripPreservesEveryField) {
  sweep::CellResult r;
  r.index = 7;
  r.coordinates = {{"M", "16"}, {"noise", "0.05"}};
  r.params["sigma"] = 0.5;
  r.meta["tag"] = "hello, \"world\"\n";
  r.dim = 1024;
  r.factors = 3;
  r.codebook_size = 16;
  r.trials = 12;
  r.max_iterations = 2824079;  // full-scale Table II cap survives
  r.query_flip_prob = 0.05;
  r.seed = 0xdeadbeefcafef00dULL;
  r.stats.trials = 12;
  r.stats.solved = 9;
  r.stats.correct = 10;
  r.stats.iteration_samples = {1.0, 2824079.0, 17.0};
  for (double x : r.stats.iteration_samples) r.stats.iterations_solved.add(x);
  r.stats.correct_by_iteration = {1, 2, 3};
  r.stats.correct_raw_by_iteration = {4, 5};
  r.wall_seconds = 1.25;

  auto [begin, d] = sweep::decode_result(sweep::encode_result(16, r));
  EXPECT_EQ(begin, 16u);
  EXPECT_EQ(d.index, r.index);
  EXPECT_EQ(d.coordinates, r.coordinates);
  EXPECT_EQ(d.params, r.params);
  EXPECT_EQ(d.meta, r.meta);
  EXPECT_EQ(d.max_iterations, r.max_iterations);
  EXPECT_EQ(d.seed, r.seed);
  EXPECT_EQ(d.wall_seconds, r.wall_seconds);
  expect_stats_equal(d.stats, r.stats, "wire round trip");
}

TEST(Protocol, SpecInitRoundTrip) {
  sweep::SpecInitFrame init;
  init.grid.name = "table2";
  init.grid.params = {{"rows", "2"}, {"seed", "99"}};
  init.cell_threads = 3;
  init.cell_count = 4;
  init.fingerprint = 0x1234abcd5678ULL;
  const sweep::SpecInitFrame d =
      sweep::decode_spec_init(sweep::encode_spec_init(init));
  EXPECT_EQ(d.grid.name, init.grid.name);
  EXPECT_EQ(d.grid.params, init.grid.params);
  EXPECT_EQ(d.cell_threads, init.cell_threads);
  EXPECT_EQ(d.cell_count, init.cell_count);
  EXPECT_EQ(d.fingerprint, init.fingerprint);
}

// --- registry + fingerprint -------------------------------------------------

TEST(GridRegistry, BuildsRegisteredGridsAndRejectsUnknown) {
  register_unit_grid();
  EXPECT_TRUE(sweep::grid_registered(kUnitGrid));
  const sweep::SweepSpec spec = sweep::build_grid({kUnitGrid, {}});
  EXPECT_EQ(spec.cell_count(), 4u);
  EXPECT_EQ(spec.name, kUnitGrid);
  EXPECT_THROW((void)sweep::build_grid({"no-such-grid", {}}),
               std::out_of_range);
}

TEST(GridRegistry, FingerprintSeparatesParamsAndMatchesRebuild) {
  register_unit_grid();
  const auto a = sweep::spec_fingerprint(sweep::build_grid({kUnitGrid, {}}));
  const auto a2 = sweep::spec_fingerprint(sweep::build_grid({kUnitGrid, {}}));
  const auto b = sweep::spec_fingerprint(
      sweep::build_grid({kUnitGrid, {{"seed", "999"}}}));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
}

// --- peer loop --------------------------------------------------------------

// Deadlines must expire on every wake, not only when poll() times out. One
// peer floods the loop so that its socket is readable on every wake; the
// other holds an armed deadline and stays silent. The silent one must be
// reported lost (once) within its deadline plus slack, and the busy one
// must never be.
TEST(PeerLoop, DeadlinesExpireOnBusyWakes) {
  int busy_fds[2];
  int silent_fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, busy_fds), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, silent_fds), 0);
  sweep::WorkerChannel busy(sweep::WorkerChannel::Kind::kTcp, busy_fds[0],
                            busy_fds[0], -1, "busy");
  sweep::WorkerChannel silent(sweep::WorkerChannel::Kind::kTcp,
                              silent_fds[0], silent_fds[0], -1, "silent");

  // Far more than one pump (64 KiB) per write, so bytes are always waiting.
  std::thread firehose([fd = busy_fds[1]]() {
    std::string burst;
    while (burst.size() < (1u << 18)) {
      burst += sweep::encode_frame(sweep::FrameKind::kDrain,
                                   std::string(64, 'x'));
    }
    while (::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL) > 0) {
    }
  });

  constexpr int kDeadlineMs = 200;
  sweep::PeerLoop loop(kDeadlineMs);
  loop.arm(silent);
  std::size_t busy_frames = 0;
  std::size_t busy_losses = 0;
  std::vector<std::string> silent_losses;
  sweep::PeerLoop::Handlers handlers;
  handlers.on_frame = [&](sweep::WorkerChannel& ch, sweep::Frame) {
    if (&ch == &busy) ++busy_frames;
  };
  handlers.on_lost = [&](sweep::WorkerChannel& ch, const std::string& why) {
    if (&ch == &silent) {
      silent_losses.push_back(why);
    } else {
      ++busy_losses;
    }
  };

  const std::vector<sweep::WorkerChannel*> channels{&busy, &silent};
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = std::chrono::steady_clock::duration::zero();
  while (silent_losses.empty() && elapsed < std::chrono::seconds(10)) {
    ASSERT_TRUE(loop.wake(channels, {}, -1, handlers));
    elapsed = std::chrono::steady_clock::now() - t0;
  }
  // More busy wakes must not report the silent peer a second time.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(loop.wake(channels, {}, -1, handlers));
  }
  busy.close_all();  // the firehose's next send fails and it exits
  firehose.join();
  ::close(busy_fds[1]);
  ::close(silent_fds[1]);

  ASSERT_EQ(silent_losses.size(), 1u);
  EXPECT_NE(silent_losses[0].find("deadline"), std::string::npos)
      << silent_losses[0];
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs + 2000));
  EXPECT_LT(silent.read_fd(), 0);  // closed after its loss report
  EXPECT_EQ(busy_losses, 0u);
  EXPECT_GT(busy_frames, 0u);
}

// await_frame's timeout bounds the whole wait, not the gap between reads: a
// peer trickling one byte of a never-completing frame every timeout/2 ms
// must still time out once, within the timeout plus slack. (A per-read
// timeout would wait out the whole 3 s trickle instead.)
TEST(WorkerChannel, AwaitFrameTimesOutUnderTrickledBytes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fds[0], fds[0],
                          -1, "trickler");
  constexpr int kTimeoutMs = 200;
  constexpr std::size_t kTrickleBytes = 30;
  // A Drain header promising a 4 KiB payload the peer never finishes.
  const std::string stream = sweep::encode_frame(sweep::FrameKind::kDrain,
                                                 std::string(4096, 'x'));
  std::atomic<bool> stop{false};
  std::thread trickler([&, fd = fds[1]]() {
    for (std::size_t i = 0; i < kTrickleBytes && !stop.load(); ++i) {
      if (::send(fd, stream.data() + i, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(kTimeoutMs / 2));
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)ch.await_frame(kTimeoutMs), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  stop.store(true);
  trickler.join();
  ::close(fds[1]);
  EXPECT_LT(elapsed, std::chrono::milliseconds(kTimeoutMs + 1000));
}

// --- TCP loopback -----------------------------------------------------------

sweep::TcpConfig loopback_listen(unsigned workers) {
  sweep::TcpConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.accept_workers = workers;
  cfg.accept_timeout_ms = 30000;
  return cfg;
}

// Launch `n` real serve loops, each dialing the transport's port from its
// own thread (the serve loop only sees fds, so a thread is as good as a
// remote process — the StdioTransport test covers the exec path).
std::vector<std::thread> launch_tcp_workers(std::uint16_t port, unsigned n) {
  std::vector<std::thread> workers;
  for (unsigned i = 0; i < n; ++i) {
    workers.emplace_back([port]() {
      const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                        /*retries=*/40, /*retry_ms=*/50);
      sweep::serve_remote_worker(fd, fd);
    });
  }
  return workers;
}

// A hand-driven sweep worker: handshake on `ch`, echo the coordinator's grid
// identity without rebuilding anything, and wait for the first block.
// Returns that block, or nullopt after recording a test failure.
std::optional<sweep::TaskFrame> take_first_task(sweep::WorkerChannel& ch) {
  ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
  auto ack = ch.await_frame(10000);
  EXPECT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
  auto init = ch.await_frame(10000);
  EXPECT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
  if (!init || init->kind != sweep::FrameKind::kSpecInit) return std::nullopt;
  const sweep::SpecInitFrame request = sweep::decode_spec_init(init->payload);
  sweep::SpecReadyFrame ready;
  ready.cell_count = request.cell_count;
  ready.fingerprint = request.fingerprint;
  ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
  auto task = ch.await_frame(10000);
  EXPECT_TRUE(task && task->kind == sweep::FrameKind::kTask);
  if (!task || task->kind != sweep::FrameKind::kTask) return std::nullopt;
  return sweep::decode_task(task->payload);
}

TEST(TcpTransport, LoopbackSweepBitIdenticalToInProcess) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);

  const auto reference = sweep::run_sweep(spec, {});  // inline, 1 worker

  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  auto workers = launch_tcp_workers(transport->listen_port(), 2);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);

  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(remote[i].index, reference[i].index);
    EXPECT_EQ(remote[i].seed, reference[i].seed);
    EXPECT_EQ(remote[i].coordinates, reference[i].coordinates);
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "tcp cell " + std::to_string(i));
  }

  // The JSON artifacts agree byte for byte once the wall clock is zeroed —
  // the same check the sweep-distributed CI job performs across processes.
  auto strip = [](std::vector<sweep::CellResult> rs) {
    for (auto& r : rs) r.wall_seconds = 0.0;
    return rs;
  };
  EXPECT_EQ(sweep::json_string(spec.name, strip(remote)),
            sweep::json_string(spec.name, strip(reference)));

  // A persistent fleet serves a second sweep over the same connections.
  const auto again = sweep::run_sweep(spec, opt);
  ASSERT_EQ(again.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(again[i].stats, reference[i].stats,
                       "tcp rebind cell " + std::to_string(i));
  }

  transport.reset();
  opt.transport.reset();  // destruction sends Shutdown; workers exit
  for (auto& w : workers) w.join();
}

TEST(TcpTransport, MixedLocalShardsAndRemoteWorkers) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(1));
  auto workers = launch_tcp_workers(transport->listen_port(), 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  opt.shards = 2;  // local thread shards pull from the same queue
  const auto mixed = sweep::run_sweep(spec, opt);
  ASSERT_EQ(mixed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(mixed[i].stats, reference[i].stats,
                       "mixed cell " + std::to_string(i));
  }

  transport.reset();
  opt.transport.reset();
  for (auto& w : workers) w.join();
}

// --- handshake rejection ----------------------------------------------------

TEST(TcpTransport, RejectsProtocolVersionMismatch) {
  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(1));
  std::thread impostor([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::HelloFrame hello;
    hello.version = sweep::kProtocolVersion + 1;
    const std::string frame =
        sweep::encode_frame(sweep::FrameKind::kHello,
                            sweep::encode_hello(hello));
    (void)!::write(fd, frame.data(), frame.size());
    // Linger until the coordinator reacts, then drop the socket.
    char buf[256];
    (void)!::read(fd, buf, sizeof buf);
    ::close(fd);
  });

  register_unit_grid();
  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = {kUnitGrid, {}};
  const sweep::SweepSpec spec = sweep::build_grid(opt.grid);
  try {
    (void)sweep::run_sweep(spec, opt);
    FAIL() << "expected a protocol version rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos)
        << e.what();
  }
  impostor.join();
}

TEST(TcpTransport, RejectsFingerprintMismatch) {
  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(1));
  // A well-spoken worker that resolved "a different grid": it handshakes
  // correctly but echoes a corrupted fingerprint.
  std::thread liar([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "liar");
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
    const sweep::SpecInitFrame request =
        sweep::decode_spec_init(init->payload);
    sweep::SpecReadyFrame ready;
    ready.cell_count = request.cell_count;
    ready.fingerprint = request.fingerprint ^ 1;  // close, but wrong
    ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
    (void)ch.await_frame(10000);  // wait for the coordinator to hang up
  });

  register_unit_grid();
  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = {kUnitGrid, {}};
  const sweep::SweepSpec spec = sweep::build_grid(opt.grid);
  try {
    (void)sweep::run_sweep(spec, opt);
    FAIL() << "expected a fingerprint rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different grid"), std::string::npos)
        << e.what();
  }
  transport.reset();
  opt.transport.reset();
  liar.join();
}

// --- disconnect requeue -----------------------------------------------------

TEST(TcpTransport, DisconnectMidCellRequeuesOntoSurvivors) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  // Worker 1: handshakes, accepts its first task, then dies mid-cell.
  std::thread deserter([port]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "deserter");
    if (!take_first_task(ch)) return;  // a block is now assigned to us...
    ch.close_all();  // ...and we vanish without answering
  });
  // Worker 2: a faithful serve loop that inherits the deserter's blocks.
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  const auto results = sweep::run_sweep(spec, opt);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "requeued cell " + std::to_string(i));
  }

  deserter.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// A worker that disconnects at the TAIL of the sweep — when the queue has
// drained and the survivors already went idle — must have its block
// reassigned (the idle survivors are reopened), not stranded while the
// scheduler polls forever.
TEST(TcpTransport, TailDisconnectReassignsToIdleSurvivor) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "4"}}};  // 1 block per cell
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});
  ASSERT_EQ(reference.size(), 4u);

  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  std::atomic<bool> others_done{false};
  // The deserter takes one block and sits on it until every OTHER cell has
  // completed — by then the faithful survivor is idle with a drained
  // queue — and only then vanishes.
  std::thread deserter([port, &others_done]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "tail-deserter");
    if (!take_first_task(ch)) return;
    while (!others_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  opt.progress = [&others_done](const sweep::CellResult&, std::size_t done,
                                std::size_t total) {
    if (done == total - 1) others_done.store(true);
  };
  const auto results = sweep::run_sweep(spec, opt);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "tail-requeued cell " + std::to_string(i));
  }

  deserter.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// --- block deadline failover ------------------------------------------------

// A worker that WEDGES — accepts a block and then neither answers nor
// disconnects, socket held open — used to stall the sweep forever: the
// scheduler's poll() had no timeout, so nothing ever woke it up.
// SweepOptions::block_deadline_ms now treats the silence as a disconnect:
// the wedged channel is dropped, the block requeues through the normal
// 3-strike path onto the survivor, and the sweep completes bit-identical.
TEST(TcpTransport, WedgedWorkerFailsOverWithinDeadline) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  std::atomic<bool> release{false};
  std::thread wedged([port, &release]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "wedged");
    if (!take_first_task(ch)) return;  // a block is now assigned to us...
    // ...and we go silent WITHOUT closing the socket. Only the block
    // deadline can recover the assignment.
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  opt.block_deadline_ms = 300;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = sweep::run_sweep(spec, opt);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  release.store(true);

  // Failover must engage within the configured deadline (plus solve time),
  // not hang until a transport-level timeout minutes away. The generous
  // bound keeps slow CI machines out of the flake zone; without the
  // deadline this test never returns at all.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "deadline-requeued cell " + std::to_string(i));
  }

  wedged.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// --- confused and malformed peers ------------------------------------------

// Joins `bad` (which must dial `transport`'s port itself) with one faithful
// worker, runs the unit grid, and checks every cell bit for bit against the
// unsharded in-process run. Takes the last reference to `transport`, whose
// destruction shuts the survivor down.
void expect_survivor_finishes_sweep(
    std::shared_ptr<sweep::TcpTransport> transport, std::thread& bad) {
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});
  auto survivors = launch_tcp_workers(transport->listen_port(), 1);

  sweep::SweepOptions opt;
  opt.transport = std::move(transport);
  opt.grid = ref;
  std::vector<sweep::CellResult> results;
  try {
    results = sweep::run_sweep(spec, opt);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "sweep aborted: " << e.what();  // still join below
  }
  EXPECT_EQ(results.size(), reference.size());
  if (results.size() == reference.size()) {
    for (auto& r : results) r.wall_seconds = 0.0;
    std::vector<sweep::CellResult> expected = reference;
    for (auto& r : expected) r.wall_seconds = 0.0;
    EXPECT_EQ(sweep::json_string(spec.name, results),
              sweep::json_string(spec.name, expected));
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_stats_equal(results[i].stats, reference[i].stats,
                         "survivor cell " + std::to_string(i));
    }
  }

  bad.join();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// A worker that answers with a Result for a block it was never assigned
// and, in the same write, an Error. The scheduler drops it at the Result
// and requeues its real block; the Error still buffered behind the Result
// must not be handled: it would abort the whole sweep with "sweep shard
// failed: confused peer" although the survivor can finish it.
TEST(TcpTransport, ConfusedWorkerDroppedBeforeItsBufferedError) {
  register_unit_grid();
  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  std::thread confused([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "confused");
    const auto task = take_first_task(ch);
    if (!task) return;
    sweep::CellResult bogus;  // right cell, a block offset never assigned
    bogus.index = static_cast<std::size_t>(task->cell);
    const std::string burst =
        sweep::encode_frame(sweep::FrameKind::kResult,
                            sweep::encode_result(
                                static_cast<std::size_t>(task->begin) + 1,
                                bogus)) +
        sweep::encode_frame(sweep::FrameKind::kError, "confused peer");
    (void)!::write(fd, burst.data(), burst.size());
    while (ch.await_frame(30000)) {
    }  // linger until the coordinator hangs up
  });
  expect_survivor_finishes_sweep(std::move(transport), confused);
}

// A worker whose stream turns malformed (a frame header announcing more
// than kMaxFramePayload bytes) is dropped on the header alone, and its
// block is requeued onto the survivor.
TEST(TcpTransport, OversizedFrameHeaderDropsWorkerAndRequeues) {
  register_unit_grid();
  auto transport = std::make_shared<sweep::TcpTransport>(loopback_listen(2));
  std::thread garbler([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(sweep::WorkerChannel::Kind::kTcp, fd, fd, -1,
                            "garbler");
    if (!take_first_task(ch)) return;
    std::string header;
    header.push_back(static_cast<char>(sweep::FrameKind::kResult));
    sweep::put_u64(header, sweep::kMaxFramePayload + 1);
    (void)!::write(fd, header.data(), header.size());
    char buf[256];
    while (::read(fd, buf, sizeof buf) > 0) {
    }  // linger until the coordinator hangs up
  });
  expect_survivor_finishes_sweep(std::move(transport), garbler);
}

// --- stdio transport (real exec path) ---------------------------------------

TEST(StdioTransport, SpawnedWorkerSweepBitIdentical) {
  ASSERT_FALSE(g_self_exe.empty());
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::StdioTransport>(
      std::vector<std::string>{g_self_exe + " --serve-stdio",
                               g_self_exe + " --serve-stdio"});
  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);
  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "stdio cell " + std::to_string(i));
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--serve-stdio") {
      // Worker role (spawned by the StdioTransport test): serve the framed
      // protocol on stdin/stdout with the unit grid registered.
      register_unit_grid();
      return h3dfact::sweep::serve_remote_worker(0, 1);
    }
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    g_self_exe = buf;
  } else if (argc > 0) {
    g_self_exe = argv[0];
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
