// In-memory span recorder for the traced pass. Spans are recorded by the
// benchmark's own code around each call into a layer (a socket request,
// an engine batch, a trie query loop): name, start, end and parent. Each
// thread fills its own vector and hands it over when it is done; the
// whole set is written once, at the end, as Chrome trace_event JSON.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // string literal
  uint64_t id;
  uint64_t parent;  // 0 = root
  int64_t start_ns;
  int64_t end_ns;
  uint32_t tid;
};

class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  bool on() const { return on_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Merge(std::vector<Span>&& spans) {
    std::lock_guard<std::mutex> lk(mu_);
    for (Span& s : spans) spans_.push_back(s);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Writes every span as a complete ("X") trace event; parent and id go
  /// in args so a viewer or a script can rebuild the tree.
  bool WriteChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t t0 = spans_.empty() ? 0 : spans_[0].start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}%s\n",
                   s.name, s.tid, (s.start_ns - t0) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const bool on_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One thread's spans. Does nothing when the trace is off.
class SpanLog {
 public:
  SpanLog(Trace* trace, uint32_t tid) : trace_(trace), tid_(tid) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;
  ~SpanLog() {
    if (trace_->on()) trace_->Merge(std::move(spans_));
  }

  bool on() const { return trace_->on(); }
  uint64_t NewId() { return trace_->on() ? trace_->NewId() : 0; }
  void Add(const char* name, uint64_t id, uint64_t parent, int64_t start_ns,
           int64_t end_ns) {
    if (trace_->on()) {
      spans_.push_back({name, id, parent, start_ns, end_ns, tid_});
    }
  }

 private:
  Trace* trace_;
  uint32_t tid_;
  std::vector<Span> spans_;
};

}  // namespace sb
