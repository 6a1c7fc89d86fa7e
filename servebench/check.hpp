// Reply checker: decodes one reply body and compares it with the answer
// the benchmark computes itself from its Model. It never asks the program
// under test for an expected value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model.hpp"
#include "net/frame.hpp"

namespace sb {

enum class Verdict : uint8_t { kCorrect, kWrong, kFailed };

struct CheckResult {
  Verdict verdict = Verdict::kCorrect;
  std::string why;  // set unless kCorrect
};

namespace internal {

inline CheckResult Wrong(std::string why) {
  return {Verdict::kWrong, std::move(why)};
}

/// Values with at least `threshold` occurrences in base positions
/// [lo, lo+len), as value id -> count.
inline std::unordered_map<uint32_t, uint64_t> Frequent(const Model& m,
                                                       uint64_t lo,
                                                       uint64_t len,
                                                       uint64_t threshold) {
  std::unordered_map<uint32_t, uint64_t> counts;
  for (uint64_t p = lo; p < lo + len; ++p) counts[m.at(p)]++;
  std::unordered_map<uint32_t, uint64_t> out;
  for (const auto& [v, c] : counts) {
    if (c >= threshold) out.emplace(v, c);
  }
  return out;
}

}  // namespace internal

/// Checks the reply body `payload` (status byte first) to request `r`.
/// Rank and Select address the base, whose answers are fixed; Access
/// past the base reads the append log. CountPrefix covers the
/// whole visible store, so its count must lie between the base count and
/// the base count plus every append the log has issued so far.
inline CheckResult CheckReply(const Model& m, const Request& r,
                              const Item* items, std::string_view payload) {
  using internal::Wrong;
  wt::net::PayloadReader rd(payload.data(), payload.size());
  uint8_t status = 0;
  if (!rd.Pod(&status)) return Wrong("empty reply");
  if (status != static_cast<uint8_t>(wt::net::WireStatus::kOk)) {
    return {Verdict::kFailed, "status " + std::to_string(status)};
  }
  if (r.type == MsgType::kAppend) {
    return rd.AtEnd() ? CheckResult{} : Wrong("append ack has a body");
  }
  uint32_t n = 0;
  if (!rd.Pod(&n)) return Wrong("no item count");
  if (r.type == MsgType::kFrequent) {
    const Item& it = items[0];
    auto expect = internal::Frequent(m, it.num, it.b, it.a);
    if (n != expect.size()) return Wrong("frequent: wrong number of values");
    std::string prev;
    for (uint32_t i = 0; i < n; ++i) {
      std::string v;
      uint64_t c = 0;
      if (!rd.Str(&v) || !rd.Pod(&c)) return Wrong("frequent: truncated");
      if (i > 0 && !(prev < v)) return Wrong("frequent: not in value order");
      bool found = false;
      for (const auto& [id, want] : expect) {
        if (m.str(id) == v) {
          if (want != c) return Wrong("frequent: wrong count for " + v);
          found = true;
          break;
        }
      }
      if (!found) return Wrong("frequent: unexpected value " + v);
      prev = std::move(v);
    }
    return rd.AtEnd() ? CheckResult{} : Wrong("frequent: trailing bytes");
  }
  if (n != r.count) return Wrong("wrong item count");
  for (uint32_t i = 0; i < n; ++i) {
    const Item& it = items[i];
    switch (r.type) {
      case MsgType::kAccess: {
        std::string v;
        if (!rd.Str(&v)) return Wrong("access: truncated");
        if (it.num >= m.full_size() || v != m.str(m.at_full(it.num))) {
          return Wrong("access(" + std::to_string(it.num) + ") = " + v);
        }
        break;
      }
      case MsgType::kRank: {
        uint64_t c = 0;
        if (!rd.Pod(&c)) return Wrong("rank: truncated");
        if (c != m.base_rank(it.a, it.num)) {
          return Wrong("rank(" + m.str(it.a) + ", " + std::to_string(it.num) +
                       ") = " + std::to_string(c));
        }
        break;
      }
      case MsgType::kSelect: {
        uint8_t has = 0;
        uint64_t pos = 0;
        if (!rd.Pod(&has) || !rd.Pod(&pos)) return Wrong("select: truncated");
        if (has != 1 || pos != m.base_select(it.a, it.num)) {
          return Wrong("select(" + m.str(it.a) + ", " +
                       std::to_string(it.num) + ") = " + std::to_string(pos));
        }
        break;
      }
      case MsgType::kCountPrefix: {
        uint64_t c = 0;
        if (!rd.Pod(&c)) return Wrong("count_prefix: truncated");
        const uint64_t lo = m.base_prefix_count(it.a);
        const uint64_t hi =
            lo + m.appended_prefix_count(it.a, m.append_log().size());
        if (c < lo || c > hi) {
          return Wrong("count_prefix(" + m.prefix(it.a) +
                       ") = " + std::to_string(c));
        }
        break;
      }
      default:
        return Wrong("unexpected request type");
    }
  }
  return rd.AtEnd() ? CheckResult{} : Wrong("trailing bytes");
}

}  // namespace sb
