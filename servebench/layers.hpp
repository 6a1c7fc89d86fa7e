// The traced pass's per-layer timings. Each layer is timed by calling its
// module's public functions from outside, on the workload's own strings
// and key distributions, with a span around every timed loop:
//
//   bitvector  wt::Rrr built from the trie's concatenated node bitvectors
//              (so the size and density are the store's)
//   core       wt::WaveletTrie bulk-built from the base strings
//   api        wtrie::Sequence<Static>, batched
//   engine     a pinned snapshot of the served store, and the ingest path
//   storage    the v4 image of the api layer's sequence
//
// Every timed figure is the median of kReps repetitions of a fixed loop.
// Query results are summed and compared with the model, so a layer that
// answers wrongly fails the run here too.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/sequence.hpp"
#include "bitvector/rrr.hpp"
#include "core/codec.hpp"
#include "core/wavelet_trie.hpp"
#include "model.hpp"
#include "session.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "storage/pager.hpp"

namespace sb {

class Layers {
 public:
  using Metrics =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;

  static constexpr int kReps = 5;
  static constexpr size_t kBatch = 256;        // items per batched call
  static constexpr size_t kPoint = 16384;      // point queries per loop
  static constexpr size_t kSelects = 2048;     // selects per loop
  static constexpr size_t kPrefixes = 4096;    // prefix queries per loop
  static constexpr size_t kFrequents = 64;     // range queries per loop
  static constexpr size_t kIngest = 1 << 18;   // strings appended directly

  /// Runs every layer; `ses` holds the open store, with its server stopped.
  /// `scratch_dir` receives the storage layer's image file.
  bool RunAll(Session& ses, Model& m, const Workload& w,
              const wt::ZipfDistribution* zipf, uint64_t seed,
              const std::string& scratch_dir, SpanLog& log, uint64_t parent,
              std::string* why) {
    log_ = &log;
    scratch_dir_ = scratch_dir;
    KeyGen keys(m, w, zipf, seed * 7919 + 3);
    Inputs in;
    for (size_t i = 0; i < kPoint; ++i) {
      in.pos.push_back(keys.Position());
      in.rank.push_back(keys.Make(MsgType::kRank));
    }
    for (size_t i = 0; i < kSelects; ++i) {
      in.sel.push_back(keys.Make(MsgType::kSelect));
    }
    for (size_t i = 0; i < kPrefixes; ++i) {
      Item it = keys.Make(MsgType::kCountPrefix);
      it.num = keys.Uniform(m.base_size() + 1);
      in.prefix.push_back(it);
    }
    for (size_t i = 0; i < kFrequents; ++i) {
      in.freq.push_back(keys.Make(MsgType::kFrequent));
    }
    in.expect_rank = 0;
    for (const Item& it : in.rank) in.expect_rank += m.base_rank(it.a, it.num);
    in.expect_select = 0;
    for (const Item& it : in.sel) {
      in.expect_select += m.base_select(it.a, it.num);
    }
    in.expect_access_bytes = 0;
    for (uint64_t p : in.pos) in.expect_access_bytes += m.str(m.at(p)).size();

    const uint64_t span = log.NewId();
    const int64_t t0 = NowNs();
    const bool ok = Core(m, in, span, why) && Api(m, in, span, why) &&
                    Engine(ses, m, in, span, why);
    log.Add("layers", span, parent, t0, NowNs());
    return ok;
  }

  void Add(const std::string& name, double v, const std::string& unit) {
    out_.push_back({name, {v, unit}});
  }
  double Get(const std::string& name) const {
    for (const auto& [n, v] : out_) {
      if (n == name) return v.first;
    }
    return 0;
  }
  const Metrics& metrics() const { return out_; }

 private:
  struct Inputs {
    std::vector<uint64_t> pos;
    std::vector<Item> rank, sel, prefix, freq;
    uint64_t expect_rank = 0, expect_select = 0, expect_access_bytes = 0;
  };

  /// Median over kReps of the ns per item of `fn`, one span per rep.
  template <typename Fn>
  double TimeNs(const char* name, uint64_t parent, size_t items, Fn&& fn) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      const uint64_t id = log_->NewId();
      const int64_t t0 = NowNs();
      fn();
      const int64_t t1 = NowNs();
      log_->Add(name, id, parent, t0, t1);
      reps.push_back(static_cast<double>(t1 - t0) / items);
    }
    return Median(reps);
  }

  static bool Expect(bool cond, const std::string& what, std::string* why) {
    if (!cond) *why = what + " disagrees with the model";
    return cond;
  }

  bool Core(const Model& m, const Inputs& in, uint64_t parent,
            std::string* why) {
    const size_t n = m.base_size();
    std::vector<wt::BitString> enc;
    enc.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      enc.push_back(wt::ByteCodec::Encode(m.str(m.at(i))));
    }
    std::optional<wt::WaveletTrie> trie;
    Add("core.bulk_build_ns_per_string",
        TimeNs("core.bulk_build", parent, n,
               [&] { trie.emplace(wt::WaveletTrie::BulkBuild(enc)); }),
        "ns");
    enc.clear();
    enc.shrink_to_fit();

    uint64_t bytes = 0;
    Add("core.trie_access_ns", TimeNs("core.trie_access", parent,
                                      in.pos.size(), [&] {
          bytes = 0;
          for (uint64_t p : in.pos) bytes += trie->Access(p).size();
        }), "ns");
    // ByteCodec: 9 bits per byte plus a terminator bit.
    if (!Expect(bytes == 9 * in.expect_access_bytes + in.pos.size(),
                "core access", why)) {
      return false;
    }
    std::vector<wt::BitString> rv, sv, pv;
    for (const Item& it : in.rank) rv.push_back(wt::ByteCodec::Encode(m.str(it.a)));
    for (const Item& it : in.sel) sv.push_back(wt::ByteCodec::Encode(m.str(it.a)));
    for (const Item& it : in.prefix) {
      pv.push_back(wt::ByteCodec::EncodePrefix(m.prefix(it.a)));
    }
    uint64_t sum = 0;
    Add("core.trie_rank_ns", TimeNs("core.trie_rank", parent, rv.size(), [&] {
          sum = 0;
          for (size_t i = 0; i < rv.size(); ++i) {
            sum += trie->Rank(rv[i].Span(), in.rank[i].num);
          }
        }), "ns");
    if (!Expect(sum == in.expect_rank, "core rank", why)) return false;
    Add("core.trie_select_ns", TimeNs("core.trie_select", parent, sv.size(),
                                      [&] {
          sum = 0;
          for (size_t i = 0; i < sv.size(); ++i) {
            sum += trie->Select(sv[i].Span(), in.sel[i].num).value_or(0);
          }
        }), "ns");
    if (!Expect(sum == in.expect_select, "core select", why)) return false;
    Add("core.trie_rank_prefix_ns",
        TimeNs("core.trie_rank_prefix", parent, pv.size(), [&] {
          sum = 0;
          for (size_t i = 0; i < pv.size(); ++i) {
            sum += trie->RankPrefix(pv[i].Span(), in.prefix[i].num);
          }
        }), "ns");

    // bitvector: the trie's node bitvectors, concatenated in preorder.
    wt::BitArray bits;
    for (const auto& node : trie->DebugNodes()) {
      for (char c : node.beta) bits.PushBack(c == '1');
    }
    trie.reset();
    const wt::Rrr rrr(bits);
    std::mt19937_64 rng(bits.size());
    std::vector<size_t> rpos(kPoint), rk(kPoint);
    for (size_t i = 0; i < kPoint; ++i) {
      rpos[i] = rng() % rrr.size();
      rk[i] = rng() % rrr.num_ones();
    }
    size_t acc = 0;
    Add("bitvector.rrr_rank_ns", TimeNs("bitvector.rrr_rank", parent, kPoint,
                                        [&] {
          for (size_t p : rpos) acc += rrr.Rank1(p);
        }), "ns");
    Add("bitvector.rrr_select_ns",
        TimeNs("bitvector.rrr_select", parent, kPoint, [&] {
          for (size_t k : rk) acc += rrr.Select1(k);
        }), "ns");
    Add("bitvector.bits", static_cast<double>(rrr.size()), "bits");
    Add("bitvector.density",
        static_cast<double>(rrr.num_ones()) / rrr.size(), "ratio");
    return Expect(acc != 0, "rrr", why);
  }

  bool Api(const Model& m, const Inputs& in, uint64_t parent,
           std::string* why) {
    using Seq = wtrie::Sequence<wtrie::Static, wt::ByteCodec>;
    std::vector<std::string> base;
    base.reserve(m.base_size());
    for (uint32_t v : m.base()) base.push_back(m.str(v));
    const Seq seq(base);
    base.clear();
    base.shrink_to_fit();

    uint64_t bytes = 0, sum = 0;
    bool ok = true;
    Add("api.access_batch_ns", TimeNs("api.access_batch", parent,
                                      in.pos.size(), [&] {
          bytes = 0;
          for (size_t b = 0; b < in.pos.size(); b += kBatch) {
            std::vector<size_t> p(in.pos.begin() + b,
                                  in.pos.begin() + std::min(in.pos.size(), b + kBatch));
            auto r = seq.AccessBatch(p);
            ok = ok && r.ok();
            if (r.ok()) {
              for (const auto& s : *r) bytes += s.size();
            }
          }
        }), "ns");
    if (!Expect(ok && bytes == in.expect_access_bytes, "api access", why)) {
      return false;
    }
    Add("api.rank_batch_ns", TimeNs("api.rank_batch", parent, in.rank.size(),
                                    [&] {
          sum = 0;
          ForBatches(m, in.rank, [&](auto& vals, auto& nums) {
            auto r = seq.RankBatch(vals, std::vector<size_t>(nums.begin(), nums.end()));
            ok = ok && r.ok();
            if (r.ok()) {
              for (size_t c : *r) sum += c;
            }
          });
        }), "ns");
    if (!Expect(ok && sum == in.expect_rank, "api rank", why)) return false;
    Add("api.select_batch_ns", TimeNs("api.select_batch", parent,
                                      in.sel.size(), [&] {
          sum = 0;
          ForBatches(m, in.sel, [&](auto& vals, auto& nums) {
            auto r = seq.SelectBatch(vals, std::vector<size_t>(nums.begin(), nums.end()));
            ok = ok && r.ok();
            if (r.ok()) {
              for (const auto& p : *r) sum += p.value_or(0);
            }
          });
        }), "ns");
    if (!Expect(ok && sum == in.expect_select, "api select", why)) return false;

    // storage: the sequence's v4 image, saved and mapped back.
    const std::string image = seq.SerializeImage();
    Add("storage.image_bytes_per_string",
        static_cast<double>(image.size()) / m.base_size(), "B");
    const std::string path = scratch_dir_ + "/sequence.img";
    {
      std::ofstream f(path, std::ios::binary);
      f.write(image.data(), static_cast<std::streamsize>(image.size()));
      if (!f.good()) {
        *why = "cannot write the image";
        return false;
      }
    }
    size_t loaded = 0;
    Add("storage.load_image_ms",
        TimeNs("storage.load_image", parent, 1, [&] {
          wt::storage::Pager pager;
          std::string err;
          auto r = Seq::LoadImage(pager.Map(path, &err), {},
                                  wt::storage::VerifyMode::kNone);
          loaded = r.ok() ? r->size() : 0;
        }) / 1e6, "ms");
    return Expect(loaded == m.base_size(), "storage load", why);
  }

  bool Engine(Session& ses, Model& m, const Inputs& in, uint64_t parent,
              std::string* why) {
    bool ok = true;
    uint64_t bytes = 0, sum = 0;
    {
      const auto snap = ses.engine()->GetSnapshot();
      Add("engine.access_batch_ns", TimeNs("engine.access_batch", parent,
                                           in.pos.size(), [&] {
            bytes = 0;
            for (size_t b = 0; b < in.pos.size(); b += kBatch) {
              std::vector<uint64_t> p(in.pos.begin() + b,
                                      in.pos.begin() + std::min(in.pos.size(), b + kBatch));
              auto r = snap.AccessBatch(p);
              ok = ok && r.ok();
              if (r.ok()) {
                for (const auto& s : *r) bytes += s.size();
              }
            }
          }), "ns");
      if (!Expect(ok && bytes == in.expect_access_bytes, "engine access",
                  why)) {
        return false;
      }
      Add("engine.rank_batch_ns", TimeNs("engine.rank_batch", parent,
                                         in.rank.size(), [&] {
            sum = 0;
            ForBatches(m, in.rank, [&](auto& vals, auto& nums) {
              auto r = snap.RankBatch(vals, nums);
              ok = ok && r.ok();
              if (r.ok()) {
                for (uint64_t c : *r) sum += c;
              }
            });
          }), "ns");
      if (!Expect(ok && sum == in.expect_rank, "engine rank", why)) {
        return false;
      }
      Add("engine.select_batch_ns", TimeNs("engine.select_batch", parent,
                                           in.sel.size(), [&] {
            sum = 0;
            ForBatches(m, in.sel, [&](auto& vals, auto& nums) {
              auto r = snap.SelectBatch(vals, nums);
              ok = ok && r.ok();
              if (r.ok()) {
                for (const auto& p : *r) sum += p.value_or(0);
              }
            });
          }), "ns");
      if (!Expect(ok && sum == in.expect_select, "engine select", why)) {
        return false;
      }
      Add("engine.count_prefix_ns", TimeNs("engine.count_prefix", parent,
                                           in.prefix.size(), [&] {
            sum = 0;
            for (const Item& it : in.prefix) {
              sum += snap.CountPrefix(m.prefix(it.a));
            }
          }), "ns");
      Add("engine.frequent_ns", TimeNs("engine.frequent", parent,
                                       in.freq.size(), [&] {
            for (const Item& it : in.freq) {
              auto r = snap.Frequent(it.num, it.num + it.b, it.a);
              ok = ok && r.ok();
            }
          }), "ns");
      if (!Expect(ok, "engine frequent", why)) return false;
    }

    // The ingest path: appends (batches of 16, as served), then the flush
    // that freezes them. wchar counts every byte the process hands to
    // write(); nothing else writes while this runs.
    std::vector<std::string> strs;
    uint64_t user_bytes = 0;
    for (size_t i = 0; i < kIngest; ++i) {
      strs.push_back(m.str(m.NextAppend()));
      user_bytes += strs.back().size();
    }
    const uint64_t w0 = ProcWchar();
    {
      const uint64_t id = log_->NewId();
      const int64_t t0 = NowNs();
      std::vector<std::string> batch;
      for (size_t i = 0; i < strs.size() && ok; i += 16) {
        batch.assign(strs.begin() + i, strs.begin() + std::min(strs.size(), i + 16));
        ok = ses.engine()->AppendBatch(batch).ok();
      }
      const int64_t t1 = NowNs();
      log_->Add("engine.append_batch", id, parent, t0, t1);
      Add("engine.append_batch_ns_per_string",
          static_cast<double>(t1 - t0) / strs.size(), "ns");
    }
    if (!Expect(ok, "engine append", why)) return false;
    {
      const uint64_t id = log_->NewId();
      const int64_t t0 = NowNs();
      ok = ses.engine()->Flush().ok();
      const int64_t t1 = NowNs();
      log_->Add("engine.flush", id, parent, t0, t1);
      Add("engine.flush_ms", (t1 - t0) / 1e6, "ms");
    }
    Add("engine.write_bytes_per_user_byte",
        static_cast<double>(ProcWchar() - w0) / user_bytes, "ratio");
    {
      const uint64_t id = log_->NewId();
      const int64_t t0 = NowNs();
      ok = ok && ses.engine()->Compact().ok();
      const int64_t t1 = NowNs();
      log_->Add("engine.compact", id, parent, t0, t1);
      Add("engine.compact_ms", (t1 - t0) / 1e6, "ms");
    }
    if (!Expect(ok && ses.engine()->size() == m.full_size(), "engine ingest",
                why)) {
      return false;
    }
    std::vector<double> open_ms;
    for (int r = 0; r < kReps; ++r) {
      ses.CloseEngine();
      const uint64_t id = log_->NewId();
      const int64_t t0 = NowNs();
      ok = ok && ses.OpenEngine();
      const int64_t t1 = NowNs();
      log_->Add("engine.open", id, parent, t0, t1);
      open_ms.push_back((t1 - t0) / 1e6);
    }
    Add("engine.open_ms", Median(open_ms), "ms");
    return Expect(ok, "engine open", why);
  }

  /// Calls fn(values, numbers) on kBatch-sized slices of `items`.
  template <typename Fn>
  static void ForBatches(const Model& m, const std::vector<Item>& items,
                         Fn&& fn) {
    std::vector<std::string> vals;
    std::vector<uint64_t> nums;
    for (size_t b = 0; b < items.size(); b += kBatch) {
      vals.clear();
      nums.clear();
      for (size_t i = b; i < std::min(items.size(), b + kBatch); ++i) {
        vals.push_back(m.str(items[i].a));
        nums.push_back(items[i].num);
      }
      fn(vals, nums);
    }
  }

  SpanLog* log_ = nullptr;
  std::string scratch_dir_;
  Metrics out_;
};

}  // namespace sb
