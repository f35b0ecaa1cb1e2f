#pragma once
// The coordinator-side event loop over framed peers, shared by the sweep
// scheduler (run_with_channels) and the serving coordinator. Its loss rules
// (docs/serving.md, "Peer loss"):
//
//   * frame delivery from a channel stops the moment the channel closes, so
//     a peer dropped for one frame never has its buffered tail handled;
//   * per-channel deadlines are checked after EVERY wake, so peers that keep
//     the loop busy cannot starve the expiry of a silent one;
//   * a malformed stream, EOF or read error, or expired deadline is
//     reported exactly once per channel, after which the channel is closed.
//
// What a frame or a loss means stays with the caller: the sweep's block
// queue and 3-strike block requeue, the coordinator's admission, batching
// and 3-strike request requeue.

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sweep/transport.hpp"

namespace h3dfact::sweep {

class PeerLoop {
 public:
  using Clock = std::chrono::steady_clock;

  /// The caller's policy. on_fd is needed only when wake() gets own fds.
  struct Handlers {
    /// One inbound frame from an open channel.
    std::function<void(WorkerChannel&, Frame)> on_frame;
    /// The channel is lost. `why` is empty for EOF or a read error, else
    /// "malformed frame: ..." or "deadline of N ms expired". The channel's
    /// deadline is already disarmed; the loop closes the channel once the
    /// callback returns.
    std::function<void(WorkerChannel&, const std::string& why)> on_lost;
    /// One of the caller's own fds is readable (or hung up).
    std::function<void(int fd)> on_fd;
  };

  /// A non-positive `deadline_ms` disables deadlines: arm() does nothing
  /// and nothing expires.
  explicit PeerLoop(int deadline_ms) : deadline_ms_(deadline_ms) {}

  /// Start (or restart) the channel's deadline at now + deadline_ms.
  void arm(WorkerChannel& ch);
  /// The channel answered (or left); forget its deadline.
  void disarm(WorkerChannel& ch) { armed_.erase(&ch); }

  /// Wait once for `own_fds` and the open channels among `channels`, at
  /// most `timeout_ms` (-1: no cap) and never past the earliest armed
  /// deadline; dispatch what is readable, then expire deadlines. A channel
  /// that is closed or missing from `channels` loses its deadline, so
  /// callers may destroy channels between wakes. Returns false only when
  /// ::poll fails with something other than EINTR.
  bool wake(const std::vector<WorkerChannel*>& channels,
            const std::vector<int>& own_fds, int timeout_ms,
            const Handlers& handlers);

 private:
  void lose(WorkerChannel& ch, const std::string& why,
            const Handlers& handlers);

  int deadline_ms_;
  std::map<WorkerChannel*, Clock::time_point> armed_;
};

}  // namespace h3dfact::sweep
