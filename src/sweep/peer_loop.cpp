#include "sweep/peer_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <exception>
#include <optional>
#include <utility>

#include <poll.h>

namespace h3dfact::sweep {

void PeerLoop::arm(WorkerChannel& ch) {
  if (deadline_ms_ <= 0) return;
  armed_[&ch] = Clock::now() + std::chrono::milliseconds(deadline_ms_);
}

bool PeerLoop::wake(const std::vector<WorkerChannel*>& channels,
                    const std::vector<int>& own_fds, int timeout_ms,
                    const Handlers& handlers) {
  for (auto it = armed_.begin(); it != armed_.end();) {
    const bool present = std::find(channels.begin(), channels.end(),
                                   it->first) != channels.end();
    it = present && it->first->read_fd() >= 0 ? std::next(it)
                                              : armed_.erase(it);
  }

  // Wake no later than the earliest deadline (rounded up, so an expired one
  // polls with 0 and still sees whatever is readable right now).
  int timeout = timeout_ms;
  for (const auto& [ch, when] : armed_) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(when - Clock::now());
    const int ms = static_cast<int>(
        std::max<std::chrono::milliseconds::rep>(0, left.count()));
    if (timeout < 0 || ms < timeout) timeout = ms;
  }

  std::vector<pollfd> fds;
  for (int fd : own_fds) fds.push_back(pollfd{fd, POLLIN, 0});
  std::vector<WorkerChannel*> polled;
  for (WorkerChannel* ch : channels) {
    if (ch->read_fd() < 0) continue;
    fds.push_back(pollfd{ch->read_fd(), POLLIN, 0});
    polled.push_back(ch);
  }
  if (::poll(fds.data(), fds.size(), timeout) < 0) return errno == EINTR;
  const Clock::time_point woke = Clock::now();

  constexpr short kReady = POLLIN | POLLHUP | POLLERR;
  for (std::size_t i = 0; i < own_fds.size(); ++i) {
    if ((fds[i].revents & kReady) != 0) handlers.on_fd(own_fds[i]);
  }
  for (std::size_t i = 0; i < polled.size(); ++i) {
    WorkerChannel& ch = *polled[i];
    if ((fds[own_fds.size() + i].revents & kReady) == 0) continue;
    if (ch.read_fd() < 0) continue;  // closed while handling another peer
    const bool eof = ch.pump() <= 0;
    try {
      while (ch.read_fd() >= 0) {
        std::optional<Frame> frame = ch.next_frame();
        if (!frame) break;
        handlers.on_frame(ch, std::move(*frame));
      }
    } catch (const std::exception& e) {
      lose(ch, std::string("malformed frame: ") + e.what(), handlers);
      continue;
    }
    if (eof) lose(ch, "", handlers);
  }

  // Expire after every wake, not only on timeouts: a peer that is readable
  // on each wake must not keep a silent one alive. Only deadlines that had
  // passed when poll returned count; one that passes while this wake's
  // frames are handled waits for the next poll to see whether its peer
  // answered in the meantime.
  std::vector<WorkerChannel*> expired;
  for (const auto& [ch, when] : armed_) {
    if (when <= woke) expired.push_back(ch);
  }
  for (WorkerChannel* ch : expired) {
    // An earlier loss report may have re-armed or disarmed this channel.
    const auto it = armed_.find(ch);
    if (it == armed_.end() || it->second > woke) continue;
    lose(*ch, "deadline of " + std::to_string(deadline_ms_) + " ms expired",
         handlers);
  }
  return true;
}

void PeerLoop::lose(WorkerChannel& ch, const std::string& why,
                    const Handlers& handlers) {
  armed_.erase(&ch);
  if (ch.read_fd() < 0) return;  // already dropped by the caller's policy
  handlers.on_lost(ch, why);
  ch.close_all();
}

}  // namespace h3dfact::sweep
