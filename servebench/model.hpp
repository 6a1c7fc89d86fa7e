// The benchmark's own model of the store and of the traffic it serves.
//
// Model keeps every string the benchmark generated (the pre-loaded base
// and the append log, as ids into one dictionary) together with the
// tables the checker answers requests from: position -> string, value ->
// sorted base positions, and prefix -> count. Nothing here calls into the
// program under test, so the checker's answers are independent of it.
//
// Traffic is generated ahead of time from the workload seed, in whole
// rounds of a fixed request mix (the counts per round never depend on the
// seed, only the order and the keys do), so every run attempts the same
// operations and nothing is replayed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "util/workloads.hpp"
#include "util/zipf.hpp"

namespace sb {

using wt::net::MsgType;

// ------------------------------------------------------------- store model

/// Store shape shared by all workloads: ~1M URL-log strings over 4096
/// domains x 64 paths (about 139k distinct strings per 1M).
inline constexpr size_t kBaseStrings = 1'000'000;
inline constexpr size_t kDomains = 4096;
inline constexpr size_t kPathsPerDomain = 64;

class Model {
 public:
  /// Generates the base strings from `seed` and indexes them.
  explicit Model(uint64_t seed) {
    wt::UrlLogOptions opt;
    opt.num_domains = kDomains;
    opt.paths_per_domain = kPathsPerDomain;
    opt.seed = seed;
    wt::UrlLogGenerator gen(opt);
    seq_.reserve(kBaseStrings);
    for (size_t i = 0; i < kBaseStrings; ++i) seq_.push_back(Intern(gen.Next()));
    for (size_t d = 0; d < kDomains; ++d) {
      domain_prefixes_.push_back(PrefixId(gen.Domain(d) + "/"));
    }
    // value -> sorted base positions (CSR).
    occ_off_.assign(dict_.size() + 1, 0);
    for (uint32_t v : seq_) occ_off_[v + 1]++;
    for (size_t v = 0; v < dict_.size(); ++v) occ_off_[v + 1] += occ_off_[v];
    occ_pos_.resize(seq_.size());
    std::vector<uint32_t> fill(occ_off_.begin(), occ_off_.end() - 1);
    for (uint32_t p = 0; p < seq_.size(); ++p) occ_pos_[fill[seq_[p]]++] = p;
    base_prefix_count_.assign(prefixes_.size(), 0);
    for (uint32_t v : seq_) {
      base_prefix_count_[domain_of_[v]]++;
      base_prefix_count_[section_of_[v]]++;
    }
    append_gen_ = std::make_unique<wt::UrlLogGenerator>([&] {
      wt::UrlLogOptions a = opt;
      a.seed = seed ^ 0x9E3779B97F4A7C15ull;
      return a;
    }());
  }

  size_t base_size() const { return kBaseStrings; }
  const std::string& str(uint32_t id) const { return dict_[id]; }
  uint32_t at(uint64_t pos) const { return seq_[pos]; }
  const std::vector<uint32_t>& base() const { return seq_; }

  /// Occurrences of value `v` in the base.
  uint64_t base_count(uint32_t v) const {
    return v + 1 < occ_off_.size() ? occ_off_[v + 1] - occ_off_[v] : 0;
  }
  /// Occurrences of `v` in base positions [0, pos).
  uint64_t base_rank(uint32_t v, uint64_t pos) const {
    if (v + 1 >= occ_off_.size()) return 0;
    const auto b = occ_pos_.begin() + occ_off_[v];
    const auto e = occ_pos_.begin() + occ_off_[v + 1];
    return std::lower_bound(b, e, pos) - b;
  }
  /// Base position of the (k+1)-th occurrence of `v`; k < base_count(v).
  uint64_t base_select(uint32_t v, uint64_t k) const {
    return occ_pos_[occ_off_[v] + k];
  }

  const std::string& prefix(uint32_t pid) const { return prefixes_[pid]; }
  const std::vector<uint32_t>& domain_prefixes() const {
    return domain_prefixes_;
  }
  uint32_t domain_of(uint32_t v) const { return domain_of_[v]; }
  uint32_t section_of(uint32_t v) const { return section_of_[v]; }
  uint64_t base_prefix_count(uint32_t pid) const {
    return base_prefix_count_[pid];
  }
  /// Strings with prefix `pid` among the first `m` entries of the append
  /// log.
  uint64_t appended_prefix_count(uint32_t pid, uint64_t m) const {
    if (pid >= append_by_prefix_.size()) return 0;
    const auto& v = append_by_prefix_[pid];
    return std::lower_bound(v.begin(), v.end(), m) - v.begin();
  }

  /// Draws the next string of the append stream (same distribution as the
  /// base, its own seed) and records it in the append log.
  uint32_t NextAppend() {
    const uint32_t v = Intern(append_gen_->Next());
    const uint64_t idx = append_log_.size();
    append_log_.push_back(v);
    for (uint32_t pid : {domain_of_[v], section_of_[v]}) {
      if (append_by_prefix_.size() <= pid) append_by_prefix_.resize(pid + 1);
      append_by_prefix_[pid].push_back(idx);
    }
    return v;
  }
  const std::vector<uint32_t>& append_log() const { return append_log_; }

  /// Strings the store holds once every append is acknowledged.
  uint64_t full_size() const { return seq_.size() + append_log_.size(); }
  /// The string at `pos` < full_size(): the base, then the append log.
  uint32_t at_full(uint64_t pos) const {
    return pos < seq_.size() ? seq_[pos] : append_log_[pos - seq_.size()];
  }

 private:
  uint32_t Intern(const std::string& s) {
    auto [it, fresh] = id_of_.try_emplace(s, static_cast<uint32_t>(dict_.size()));
    if (fresh) {
      dict_.push_back(s);
      const size_t slash1 = s.find('/');
      const size_t slash2 = s.find('/', slash1 + 1);
      domain_of_.push_back(PrefixId(s.substr(0, slash1 + 1)));
      section_of_.push_back(PrefixId(s.substr(0, slash2 + 1)));
    }
    return it->second;
  }
  uint32_t PrefixId(const std::string& p) {
    auto [it, fresh] =
        prefix_id_.try_emplace(p, static_cast<uint32_t>(prefixes_.size()));
    if (fresh) {
      prefixes_.push_back(p);
      if (base_prefix_count_.size() < prefixes_.size()) {
        base_prefix_count_.resize(prefixes_.size(), 0);
      }
    }
    return it->second;
  }

  std::vector<std::string> dict_;
  std::unordered_map<std::string, uint32_t> id_of_;
  std::vector<uint32_t> domain_of_, section_of_;
  std::vector<uint32_t> seq_;
  std::vector<uint64_t> occ_off_;
  std::vector<uint32_t> occ_pos_;
  std::vector<std::string> prefixes_;
  std::unordered_map<std::string, uint32_t> prefix_id_;
  std::vector<uint32_t> domain_prefixes_;
  std::vector<uint64_t> base_prefix_count_;
  std::unique_ptr<wt::UrlLogGenerator> append_gen_;
  std::vector<uint32_t> append_log_;
  std::vector<std::vector<uint64_t>> append_by_prefix_;
};

// ---------------------------------------------------------------- traffic

/// One query item. Access: num = position. Rank: a = value, num =
/// position. Select: a = value, num = occurrence index. CountPrefix: a =
/// prefix id. Append: a = value, num = index in the append log. Frequent:
/// num = range start, b = range length, a = threshold.
struct Item {
  uint32_t a = 0;
  uint32_t b = 0;
  uint64_t num = 0;
};

struct Request {
  MsgType type = MsgType::kPing;
  uint32_t first = 0;  // into Stream::items
  uint32_t count = 0;
};

/// Requests of one connection for one phase, with their items and the
/// encoded frames (request_id = index in `reqs`).
struct Stream {
  std::vector<Request> reqs;
  std::vector<Item> items;
  std::string wire;                  // all frames back to back
  std::vector<uint32_t> frame_end;   // wire offset after frame i
  uint64_t total_items = 0;
};

enum class Keys : uint8_t { kZipf, kUniform };

struct MixEntry {
  MsgType type;
  uint32_t per_round;  // requests of this type in one round
  uint32_t items;      // items per request
};

struct Workload {
  const char* name;
  Keys keys;
  std::vector<MixEntry> mix;
  double open_loop_rate;       // offered requests/s in the latency phase
  double nominal_rounds_per_s;  // saturation rate, sizes the fixed work
  uint32_t frequent_len;       // Frequent range length
  uint32_t frequent_threshold;
};

/// The three workloads. A round is 100 requests.
inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      // Serving traffic: mostly Access, ~1% of items appended.
      {"serve_zipf",
       Keys::kZipf,
       {{MsgType::kAccess, 87, 16},
        {MsgType::kRank, 5, 16},
        {MsgType::kSelect, 2, 4},
        {MsgType::kCountPrefix, 5, 4},
        {MsgType::kAppend, 1, 16}},
       3000,
       165,
       8192,
       32},
      // The paper's prefix search and range analytics.
      {"analytics_prefix",
       Keys::kUniform,
       {{MsgType::kCountPrefix, 50, 8},
        {MsgType::kFrequent, 10, 1},
        {MsgType::kRank, 39, 16},
        {MsgType::kAppend, 1, 10}},
       1000,
       31,
       8192,
       32},
      // Half of the items are appends, next to reads of the base.
      {"ingest_mixed",
       Keys::kUniform,
       {{MsgType::kAppend, 50, 16},
        {MsgType::kAccess, 25, 16},
        {MsgType::kRank, 25, 16}},
       800,
       72,
       8192,
       32},
  };
  return w;
}

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Draws keys for one workload. Zipf(0.99) ranks are scattered over the
/// store by a fixed bijection, so hot positions are not all in one
/// segment.
class KeyGen {
 public:
  KeyGen(const Model& m, const Workload& w, const wt::ZipfDistribution* zipf,
         uint64_t seed)
      : m_(m), w_(w), zipf_(zipf), rng_(seed) {}

  uint64_t Position() {
    const uint64_t n = m_.base_size();
    if (w_.keys == Keys::kUniform) return rng_() % n;
    // 999983 is prime and coprime to n, so rank -> position is a bijection.
    return ((*zipf_)(rng_) * 999983ull + 12345) % n;
  }
  uint64_t Uniform(uint64_t n) { return rng_() % n; }

  Item Make(MsgType t) {
    Item it;
    switch (t) {
      case MsgType::kAccess:
        it.num = Position();
        break;
      case MsgType::kRank:
        it.a = m_.at(Position());
        it.num = Position();
        break;
      case MsgType::kSelect:
        // Only occurrences the model shows to exist.
        it.a = m_.at(Position());
        it.num = Uniform(m_.base_count(it.a));
        break;
      case MsgType::kCountPrefix: {
        const uint32_t v = m_.at(Position());
        if (rng_() & 1) {
          it.a = m_.section_of(v);
        } else if (w_.keys == Keys::kUniform) {
          // Domains drawn evenly, rare ones included.
          it.a = m_.domain_prefixes()[Uniform(kDomains)];
        } else {
          it.a = m_.domain_of(v);
        }
        break;
      }
      case MsgType::kFrequent:
        it.b = w_.frequent_len;
        it.a = w_.frequent_threshold;
        it.num = Uniform(m_.base_size() - it.b + 1);
        break;
      default:
        break;
    }
    return it;
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  const Model& m_;
  const Workload& w_;
  const wt::ZipfDistribution* zipf_;
  std::mt19937_64 rng_;
};

inline std::string EncodePayload(const Model& m, const Request& r,
                                 const Item* items) {
  wt::net::PayloadWriter w;
  if (r.type == MsgType::kFrequent) {
    w.Pod<uint64_t>(items[0].num);
    w.Pod<uint64_t>(items[0].num + items[0].b);
    w.Pod<uint64_t>(items[0].a);
    return w.Take();
  }
  w.Pod<uint32_t>(r.count);
  for (uint32_t i = 0; i < r.count; ++i) {
    const Item& it = items[i];
    switch (r.type) {
      case MsgType::kAccess:
        w.Pod<uint64_t>(it.num);
        break;
      case MsgType::kRank:
      case MsgType::kSelect:
        w.Pod<uint64_t>(it.num);
        w.Str(m.str(it.a));
        break;
      case MsgType::kCountPrefix:
        w.Str(m.prefix(it.a));
        break;
      case MsgType::kAppend:
        w.Str(m.str(it.a));
        break;
      default:
        break;
    }
  }
  return w.Take();
}

/// Appends one request over the given items to `s`.
inline void AddItems(const Model& m, MsgType t, const std::vector<Item>& items,
                     Stream* s) {
  Request r;
  r.type = t;
  r.first = static_cast<uint32_t>(s->items.size());
  r.count = static_cast<uint32_t>(items.size());
  s->items.insert(s->items.end(), items.begin(), items.end());
  s->total_items += r.count;
  const std::string payload = EncodePayload(m, r, &s->items[r.first]);
  wt::net::EncodeFrameTo(s->wire, static_cast<uint8_t>(t), s->reqs.size(),
                         /*deadline_ms=*/0, payload);
  s->frame_end.push_back(static_cast<uint32_t>(s->wire.size()));
  s->reqs.push_back(r);
}

/// Appends one request of `n` freshly drawn items to `s` (appends extend
/// the model's append log, in send order).
inline void AddRequest(Model& m, KeyGen& keys, MsgType t, uint32_t n,
                       Stream* s) {
  std::vector<Item> items(n);
  for (Item& it : items) {
    if (t == MsgType::kAppend) {
      it.num = m.append_log().size();
      it.a = m.NextAppend();
    } else {
      it = keys.Make(t);
    }
  }
  AddItems(m, t, items, s);
}

/// Generates `rounds` rounds of the workload mix split over `conns`
/// connections. Appends all go to connection 0, so the store's order of
/// appended strings is the append log's order; reads are spread so that
/// every connection carries the same number of requests.
inline std::vector<Stream> MakeStreams(Model& m, const Workload& w,
                                       const wt::ZipfDistribution* zipf,
                                       uint64_t seed, size_t rounds,
                                       size_t conns) {
  KeyGen keys(m, w, zipf, seed);
  std::vector<MsgType> round;
  uint32_t appends_per_round = 0;
  for (const MixEntry& e : w.mix) {
    for (uint32_t i = 0; i < e.per_round; ++i) round.push_back(e.type);
    if (e.type == MsgType::kAppend) appends_per_round += e.per_round;
  }
  const size_t per_conn = round.size() / conns;
  std::vector<Stream> out(conns);
  for (size_t r = 0; r < rounds; ++r) {
    std::shuffle(round.begin(), round.end(), keys.rng());
    // Reads connection 0 takes in this round, spread evenly over it.
    const size_t reads = round.size() - appends_per_round;
    const size_t conn0_reads =
        per_conn > appends_per_round ? per_conn - appends_per_round : 0;
    size_t read_idx = 0, other = 1;
    for (MsgType t : round) {
      uint32_t n = 0;
      for (const MixEntry& e : w.mix) {
        if (e.type == t) n = e.items;
      }
      size_t c = 0;
      if (t != MsgType::kAppend) {
        const bool to0 = conns == 1 || (read_idx * conn0_reads) / reads !=
                                           ((read_idx + 1) * conn0_reads) / reads;
        ++read_idx;
        if (!to0) {
          c = other;
          other = other + 1 < conns ? other + 1 : 1;
        }
      }
      AddRequest(m, keys, t, n, &out[c]);
    }
  }
  return out;
}

}  // namespace sb
