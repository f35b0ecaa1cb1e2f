#include "serve/serving.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sweep/transport.hpp"

namespace h3dfact::serve {

using sweep::Frame;
using sweep::FrameKind;
using sweep::WorkerChannel;

struct ServeClient::Impl {
  std::unique_ptr<WorkerChannel> ch;
  std::deque<sweep::FactorReplyFrame> buffered;
  bool drain_acked = false;

  std::optional<sweep::FactorReplyFrame> pop_buffered() {
    if (buffered.empty()) return std::nullopt;
    sweep::FactorReplyFrame reply = std::move(buffered.front());
    buffered.pop_front();
    return reply;
  }

  // Route one coordinator frame: a reply is returned, a Drain ack is
  // remembered for drain(), an Error throws, anything else is ignored.
  std::optional<sweep::FactorReplyFrame> dispatch(const Frame& frame) {
    switch (frame.kind) {
      case FrameKind::kFactorReply:
        return sweep::decode_factor_reply(frame.payload);
      case FrameKind::kDrain:
        drain_acked = true;
        break;
      case FrameKind::kError:
        throw std::runtime_error("serve client: coordinator error: " +
                                 frame.payload);
      default:
        break;
    }
    return std::nullopt;
  }
};

ServeClient::ServeClient(const std::string& addr, int retries, int retry_ms)
    : impl_(std::make_unique<Impl>()) {
  const int fd = sweep::tcp_connect(addr, retries, retry_ms);
  impl_->ch = std::make_unique<WorkerChannel>(WorkerChannel::Kind::kTcp, fd,
                                              fd, -1, "serve:" + addr);
  const std::string refused =
      sweep::dial_hello(*impl_->ch, sweep::PeerRole::kServeClient);
  if (!refused.empty()) throw std::runtime_error("serve client: " + refused);
}

ServeClient::~ServeClient() = default;

bool ServeClient::send(const sweep::FactorRequestFrame& req) {
  return impl_->ch->send(FrameKind::kFactorRequest,
                         sweep::encode_factor_request(req));
}

std::optional<sweep::FactorReplyFrame> ServeClient::await_reply(
    int timeout_ms) {
  if (auto reply = impl_->pop_buffered()) return reply;
  for (;;) {
    std::optional<Frame> frame = impl_->ch->await_frame(timeout_ms);
    if (!frame) return std::nullopt;
    if (auto reply = impl_->dispatch(*frame)) return reply;
  }
}

std::optional<sweep::FactorReplyFrame> ServeClient::poll_reply(
    int timeout_ms, bool* disconnected) {
  if (disconnected != nullptr) *disconnected = false;
  if (auto reply = impl_->pop_buffered()) return reply;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(timeout_ms, 0));
  for (;;) {
    bool timed_out = false;
    std::optional<Frame> frame = impl_->ch->wait_frame(deadline, &timed_out);
    if (!frame) {
      if (disconnected != nullptr) *disconnected = !timed_out;
      return std::nullopt;
    }
    if (auto reply = impl_->dispatch(*frame)) return reply;
  }
}

sweep::FactorReplyFrame ServeClient::call(const sweep::FactorRequestFrame& req,
                                          int timeout_ms) {
  if (!send(req)) {
    throw std::runtime_error("serve client: coordinator is gone");
  }
  std::optional<sweep::FactorReplyFrame> reply = await_reply(timeout_ms);
  if (!reply) {
    throw std::runtime_error("serve client: disconnected before reply");
  }
  return *std::move(reply);
}

bool ServeClient::drain(int timeout_ms) {
  if (!impl_->ch->send(FrameKind::kDrain, "")) return false;
  while (!impl_->drain_acked) {
    std::optional<Frame> frame = impl_->ch->await_frame(timeout_ms);
    if (!frame) return false;
    // Replies for requests still in flight when we drained stay available
    // for a caller that still wants to await_reply() them.
    if (auto reply = impl_->dispatch(*frame)) {
      impl_->buffered.push_back(*std::move(reply));
    }
  }
  return true;
}

}  // namespace h3dfact::serve
