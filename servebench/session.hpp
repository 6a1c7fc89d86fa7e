// The served store (engine, server, load connections) and the run's
// correctness tally.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "engine/engine.hpp"
#include "load.hpp"
#include "model.hpp"
#include "net/server.hpp"

namespace sb {

using StrEngine = wtrie::Engine<wt::ByteCodec>;
using StrServer = wt::net::Server<wt::ByteCodec>;

/// Everything the run tallies about correctness.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;    // replies with a non-OK status
  uint64_t wrong = 0;     // OK replies whose content is wrong
  uint64_t answered = 0;  // replies received from the current server

  void Wrong(const std::string& why) {
    ++wrong;
    std::fprintf(stderr, "servebench: WRONG: %s\n", why.c_str());
  }
};

/// Checks every reply of one phase and folds it into the tally.
inline void CheckPhase(const Model& m, const std::vector<Stream>& streams,
                       const std::vector<ConnResult>& results, Tally* t) {
  for (size_t c = 0; c < streams.size(); ++c) {
    const Stream& s = streams[c];
    const ConnResult& r = results[c];
    t->attempted += s.reqs.size();
    t->answered += r.answered;
    if (!r.error.empty()) {
      t->Wrong("connection " + std::to_string(c) + ": " + r.error);
      continue;
    }
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      const CheckResult cr =
          CheckReply(m, s.reqs[i], &s.items[s.reqs[i].first], r.replies[i]);
      if (cr.verdict == Verdict::kFailed) {
        t->failed++;
      } else if (cr.verdict == Verdict::kWrong) {
        t->Wrong(cr.why);
      }
    }
  }
}

class Session {
 public:
  explicit Session(std::string store_dir) : dir_(std::move(store_dir)) {}

  /// Opens (or reopens) the durable store with the engine's defaults.
  bool OpenEngine() {
    StrEngine::Options eo;
    eo.dir = dir_;
    auto e = StrEngine::Open(eo);
    if (!e.ok()) return false;
    engine_ = std::move(e).value();
    return true;
  }
  void CloseEngine() { engine_.reset(); }

  /// Starts a server with the default options and connects `conns`
  /// clients.
  bool StartServer(size_t conns) {
    auto s = StrServer::Start(engine_.get(), StrServer::Options{});
    if (!s.ok()) return false;
    server_ = std::move(s).value();
    fds_.clear();
    for (size_t c = 0; c < conns; ++c) {
      auto fd = wt::net::TcpConnect(server_->port());
      if (!fd.ok()) return false;
      fds_.push_back(std::move(fd).value());
    }
    return true;
  }

  /// Disconnects, stops the server (which flushes the engine) and checks
  /// the admission identity and the client's count of answered requests
  /// against the server's own counters. Every reply the client counted is
  /// a completed request, a shed one or an expired one; the last two are
  /// non-OK replies, which the run already counts as failed.
  bool StopServer(Tally* t, std::string* why) {
    fds_.clear();
    const wtrie::Status st = server_->Stop();
    const wt::net::AdmissionStats a = server_->stats().admission;
    server_.reset();
    const uint64_t answered = t->answered;
    t->answered = 0;
    if (!st.ok()) {
      *why = std::string("server stop: ") + st.message();
      return false;
    }
    if (a.admitted !=
        a.completed + a.expired_at_dequeue + a.expired_before_reply) {
      *why = "admitted != completed + expired";
      return false;
    }
    const uint64_t replied = a.completed + a.shed + a.expired_at_dequeue +
                             a.expired_before_reply;
    if (replied != answered) {
      *why = "server replied to " + std::to_string(replied) +
             " requests (completed " + std::to_string(a.completed) +
             ", shed " + std::to_string(a.shed) + "), client counted " +
             std::to_string(answered);
      return false;
    }
    return true;
  }

  std::vector<int> fds() const {
    std::vector<int> out;
    for (const auto& f : fds_) out.push_back(f.get());
    return out;
  }
  StrEngine* engine() { return engine_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<StrEngine> engine_;
  std::unique_ptr<StrServer> server_;
  std::vector<wt::net::Fd> fds_;
};

}  // namespace sb
