// Load generation over loopback sockets: one thread per connection, each
// driving a pre-generated Stream.
//
//   * Pipelined (closed loop, saturation): each connection keeps `window`
//     requests in flight until its fixed request count is answered.
//   * OpenLoop (fixed offered rate): requests are sent on a fixed schedule
//     whatever the replies do; each one is timed from its scheduled send
//     time, so a stall is charged to every request it delays, and the
//     generator's own lateness is reported beside it.
//
// Replies are kept (by request id) and checked after the phase, so the
// timed loop does no checking work.
#pragma once

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "model.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace sb {

struct ConnResult {
  std::vector<std::string> replies;  // reply body per request id
  std::vector<int64_t> sent_ns;      // actual send time per request
  std::vector<int64_t> recv_ns;      // reply parse time per request
  std::vector<int64_t> sched_ns;     // open loop only
  uint64_t answered = 0;
  int64_t cpu_ns = 0;                // the load thread's own CPU time
  std::string error;                 // transport or framing failure
};

namespace internal {

inline size_t FrameStart(const Stream& s, size_t i) {
  return i == 0 ? 0 : s.frame_end[i - 1];
}

/// Parses every complete reply frame in rx[*off, ...) into `out`.
inline bool DrainReplies(const Stream& s, std::string& rx, size_t* off,
                         int64_t now, ConnResult* out) {
  wt::net::Frame f;
  for (;;) {
    size_t consumed = 0;
    const auto parse = wt::net::TryParseFrame(
        rx.data() + *off, rx.size() - *off,
        wt::net::kDefaultMaxResponsePayload, &f, &consumed);
    if (parse == wt::net::FrameParse::kNeedMore) break;
    if (parse != wt::net::FrameParse::kFrame) {
      out->error = "bad reply frame";
      return false;
    }
    *off += consumed;
    const uint64_t id = f.header.request_id;
    if (id >= s.reqs.size() || out->recv_ns[id] != 0 ||
        f.header.type !=
            (static_cast<uint8_t>(s.reqs[id].type) | wt::net::kResponseBit)) {
      out->error = "reply does not match a request";
      return false;
    }
    out->recv_ns[id] = now;
    out->replies[id] = std::move(f.payload);
    out->answered++;
  }
  if (*off > 0 && *off == rx.size()) {
    rx.clear();
    *off = 0;
  } else if (*off > (1u << 20)) {
    rx.erase(0, *off);
    *off = 0;
  }
  return true;
}

inline void Reset(const Stream& s, ConnResult* out) {
  const size_t n = s.reqs.size();
  out->replies.assign(n, {});
  out->sent_ns.assign(n, 0);
  out->recv_ns.assign(n, 0);
  out->answered = 0;
  out->error.clear();
}

/// Reads once (blocking) and drains replies; false on failure.
inline bool ReadReplies(int fd, const Stream& s, std::vector<char>& chunk,
                        std::string& rx, size_t* off, ConnResult* out) {
  auto io = wt::net::ReadSome(fd, chunk.data(), chunk.size());
  if (!io.ok() || io->eof) {
    out->error = "connection lost";
    return false;
  }
  rx.append(chunk.data(), io->n);
  return DrainReplies(s, rx, off, NowNs(), out);
}

}  // namespace internal

/// Sends every request of `s` over `fd` with at most `window` outstanding.
inline void RunPipelined(int fd, const Stream& s, size_t window,
                         ConnResult* out) {
  internal::Reset(s, out);
  const size_t n = s.reqs.size();
  std::vector<char> chunk(256 * 1024);
  std::string rx;
  size_t off = 0, sent = 0;
  auto send_upto = [&](size_t target) {
    const size_t end = std::min(target, n);
    if (end <= sent) return true;
    const size_t b = internal::FrameStart(s, sent);
    const int64_t now = NowNs();
    for (size_t i = sent; i < end; ++i) out->sent_ns[i] = now;
    sent = end;
    return wt::net::WriteAll(fd, s.wire.data() + b, s.frame_end[end - 1] - b)
        .ok();
  };
  if (!send_upto(window)) {
    out->error = "send failed";
    return;
  }
  while (out->answered < n) {
    if (!internal::ReadReplies(fd, s, chunk, rx, &off, out)) return;
    if (!send_upto(out->answered + window)) {
      out->error = "send failed";
      return;
    }
  }
}

/// Sends request i of `s` at start_ns + offset_ns + i * interval_ns,
/// whatever the replies do, and waits for every reply.
inline void RunOpenLoop(int fd, const Stream& s, int64_t start_ns,
                        int64_t offset_ns, int64_t interval_ns,
                        ConnResult* out) {
  // Wake at the scheduled time, not up to 50us after it.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  internal::Reset(s, out);
  const size_t n = s.reqs.size();
  out->sched_ns.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out->sched_ns[i] = start_ns + offset_ns + static_cast<int64_t>(i) * interval_ns;
  }
  std::vector<char> chunk(256 * 1024);
  std::string rx;
  size_t off = 0, next = 0;
  while (out->answered < n) {
    int64_t now = NowNs();
    if (next < n && out->sched_ns[next] <= now) {
      const size_t b = internal::FrameStart(s, next);
      size_t end = next;
      while (end < n && out->sched_ns[end] <= now) out->sent_ns[end++] = now;
      if (!wt::net::WriteAll(fd, s.wire.data() + b, s.frame_end[end - 1] - b)
               .ok()) {
        out->error = "send failed";
        return;
      }
      next = end;
      now = NowNs();
    }
    const int64_t wait_ns =
        next < n ? std::max<int64_t>(0, out->sched_ns[next] - now)
                 : 1'000'000'000;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd p{fd, POLLIN, 0};
    const int r = ppoll(&p, 1, &ts, nullptr);
    if (r < 0 && errno != EINTR) {
      out->error = "poll failed";
      return;
    }
    if (r > 0 && !internal::ReadReplies(fd, s, chunk, rx, &off, out)) return;
  }
}

/// The hardware thread the load generator runs on; -1 leaves placement
/// to the kernel.
inline int& LoadCpu() {
  static int cpu = -1;
  return cpu;
}

/// Splits the process's hardware threads: the last one runs every load
/// thread, the rest run the calling thread and everything it starts later
/// (threads inherit their creator's set), i.e. the server and the engine.
/// Client and server then never compete for a core, as with a separate
/// client machine.
inline void SplitCpus() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
    return;
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  cpu_set_t rest = all;
  CPU_CLR(last, &rest);
  if (pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest) == 0) {
    LoadCpu() = last;
  }
}

inline void PinToLoadCpu() {
  if (LoadCpu() < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(LoadCpu(), &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Runs one connection per stream, each on its own load thread, and joins
/// them. Each result carries its load thread's CPU time, so the caller can
/// tell the server's share of the process's CPU time from the client's.
template <typename Fn>
void RunConnections(const std::vector<int>& fds,
                    const std::vector<Stream>& streams,
                    std::vector<ConnResult>* results, Fn&& run_one) {
  results->resize(streams.size());
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      PinToLoadCpu();
      const int64_t cpu0 = ThreadCpuNs();
      run_one(fds[c], streams[c], c, &(*results)[c]);
      (*results)[c].cpu_ns = ThreadCpuNs() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace sb
