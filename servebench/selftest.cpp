// Checker self-test: a correct reply to each request type must pass, and
// the same reply with one answer corrupted must be rejected. Run by
// run.py before every benchmark run; exits 1 if the checker accepts a
// corrupted reply or rejects a correct one.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"
#include "model.hpp"

namespace {

using sb::Item;
using sb::MsgType;
using wt::net::AppendPod;
using wt::net::AppendStr;

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "selftest: FAILED: %s\n", what);
    ++failures;
  }
}

/// The reply must pass as is and be rejected after `corrupt`.
template <typename Corrupt>
void Case(const sb::Model& m, MsgType t, const std::vector<Item>& items,
          const std::string& reply, Corrupt&& corrupt, const char* what) {
  sb::Request r;
  r.type = t;
  r.count = static_cast<uint32_t>(items.size());
  Expect(sb::CheckReply(m, r, items.data(), reply).verdict ==
             sb::Verdict::kCorrect,
         what);
  std::string bad = reply;
  corrupt(bad);
  Expect(sb::CheckReply(m, r, items.data(), bad).verdict == sb::Verdict::kWrong,
         what);
}

std::string Header(uint32_t n) {
  std::string w;
  AppendPod<uint8_t>(w, 0);
  AppendPod<uint32_t>(w, n);
  return w;
}

}  // namespace

int main() {
  const sb::Model m(1);
  // Access: two positions; corrupt one byte of the second string.
  {
    std::vector<Item> items(2);
    items[0].num = 0;
    items[1].num = 123456;
    std::string reply = Header(2);
    for (const Item& it : items) AppendStr(reply, m.str(m.at(it.num)));
    Case(m, MsgType::kAccess, items, reply,
         [](std::string& s) { s.back() ^= 1; }, "access");
  }
  // Rank: off by one.
  {
    std::vector<Item> items(1);
    items[0].a = m.at(500);
    items[0].num = 900000;
    std::string reply = Header(1);
    AppendPod<uint64_t>(reply, m.base_rank(items[0].a, items[0].num));
    Case(m, MsgType::kRank, items, reply,
         [](std::string& s) { s[5] ^= 1; }, "rank");
  }
  // Select: the right position, then the next one.
  {
    std::vector<Item> items(1);
    items[0].a = m.at(77);
    items[0].num = m.base_count(items[0].a) - 1;
    std::string reply = Header(1);
    AppendPod<uint8_t>(reply, 1);
    AppendPod<uint64_t>(reply, m.base_select(items[0].a, items[0].num));
    Case(m, MsgType::kSelect, items, reply,
         [](std::string& s) { s[6] += 1; }, "select");
  }
  // CountPrefix: the exact count, then one more than any append allows.
  {
    std::vector<Item> items(1);
    items[0].a = m.domain_of(m.at(9));
    std::string reply = Header(1);
    AppendPod<uint64_t>(reply, m.base_prefix_count(items[0].a));
    Case(m, MsgType::kCountPrefix, items, reply,
         [](std::string& s) { s[5] += 1; }, "count_prefix");
  }
  // Frequent: the model's own answer, then one count changed.
  {
    std::vector<Item> items(1);
    items[0].num = 4096;
    items[0].b = 8192;
    items[0].a = 32;
    const auto expect = sb::internal::Frequent(m, 4096, 8192, 32);
    std::vector<std::pair<std::string, uint64_t>> sorted;
    for (const auto& [id, c] : expect) sorted.push_back({m.str(id), c});
    std::sort(sorted.begin(), sorted.end());
    Expect(!sorted.empty(), "frequent has answers");
    std::string reply = Header(static_cast<uint32_t>(sorted.size()));
    for (const auto& [v, c] : sorted) {
      AppendStr(reply, v);
      AppendPod<uint64_t>(reply, c);
    }
    Case(m, MsgType::kFrequent, items, reply,
         [](std::string& s) { s[s.size() - 8] += 1; }, "frequent");
  }
  // A reply with an error status is a failed operation, not a wrong one.
  {
    sb::Request r;
    r.type = MsgType::kAccess;
    r.count = 1;
    Item it;
    const std::string reply(1, static_cast<char>(wt::net::WireStatus::kError));
    Expect(sb::CheckReply(m, r, &it, reply).verdict == sb::Verdict::kFailed,
           "error status");
  }
  if (failures == 0) std::fprintf(stderr, "selftest: checker ok\n");
  return failures == 0 ? 0 : 1;
}
