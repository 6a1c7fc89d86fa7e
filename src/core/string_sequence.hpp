// StringSequence<Trie, Codec>: the convenience façade of the library.
//
// The Wavelet Tries operate on prefix-free binary strings; this wrapper pairs
// any trie variant with a codec so applications deal in std::string (or
// uint64_t) directly:
//
//   StringSequence<WaveletTrie> idx(std::vector<std::string>{...});   // static
//   StringSequence<AppendOnlyWaveletTrie> log;  log.Append("GET /x"); // stream
//   StringSequence<DynamicWaveletTrie> col;     col.Insert("new", 0); // dynamic
//
// Prefix operations are exposed when the codec preserves prefixes
// (ByteCodec / RawByteCodec); integer codecs get the plain operations only,
// mirroring Section 6's observation that prefix queries are meaningless
// under hashing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "core/wavelet_trie.hpp"

namespace wt {

template <typename Trie, typename Codec = ByteCodec>
class StringSequence {
 public:
  using Value = typename Codec::Value;

  static constexpr bool kStatic = std::is_same_v<Trie, WaveletTrie>;
  static constexpr bool kHasPrefixCodec = requires(const Codec& c, Value v) {
    { c.EncodePrefix(v) } -> std::convertible_to<BitString>;
  };

  StringSequence() = default;
  explicit StringSequence(Codec codec) : codec_(std::move(codec)) {}

  /// Static bulk construction (WaveletTrie only), via the word-parallel
  /// BulkBuild path.
  explicit StringSequence(const std::vector<Value>& values, Codec codec = {})
    requires kStatic
      : codec_(std::move(codec)) {
    std::vector<BitString> enc;
    enc.reserve(values.size());
    for (const auto& v : values) enc.push_back(codec_.Encode(v));
    trie_ = WaveletTrie::BulkBuild(enc);
  }

  void Append(const Value& v)
    requires(!kStatic)
  {
    trie_.Append(codec_.Encode(v));
  }

  /// Appends a whole batch in one word-parallel trie pass — the bulk-load
  /// entry point for streaming ingest (equivalent to Append on each value,
  /// in order, but one traversal per touched trie node per batch).
  void AppendBatch(const std::vector<Value>& values)
    requires(!kStatic)
  {
    std::vector<BitString> enc;
    enc.reserve(values.size());
    for (const auto& v : values) enc.push_back(codec_.Encode(v));
    trie_.AppendBatch(enc);
  }

  void Insert(const Value& v, size_t pos)
    requires(!kStatic && Trie::kFullyDynamic)
  {
    trie_.Insert(codec_.Encode(v), pos);
  }

  void Delete(size_t pos)
    requires(!kStatic && Trie::kFullyDynamic)
  {
    trie_.Delete(pos);
  }

  size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.size() == 0; }
  size_t NumDistinct() const { return trie_.NumDistinct(); }

  Value Access(size_t pos) const { return codec_.Decode(trie_.Access(pos).Span()); }

  size_t Rank(const Value& v, size_t pos) const {
    return trie_.Rank(codec_.Encode(v), pos);
  }
  std::optional<size_t> Select(const Value& v, size_t idx) const {
    return trie_.Select(codec_.Encode(v), idx);
  }
  size_t Count(const Value& v) const { return Rank(v, size()); }
  size_t RangeCount(const Value& v, size_t l, size_t r) const {
    return Rank(v, r) - Rank(v, l);
  }

  size_t RankPrefix(const Value& p, size_t pos) const
    requires kHasPrefixCodec
  {
    return trie_.RankPrefix(codec_.EncodePrefix(p), pos);
  }
  std::optional<size_t> SelectPrefix(const Value& p, size_t idx) const
    requires kHasPrefixCodec
  {
    return trie_.SelectPrefix(codec_.EncodePrefix(p), idx);
  }
  size_t CountPrefix(const Value& p) const
    requires kHasPrefixCodec
  {
    return RankPrefix(p, size());
  }
  size_t RangeCountPrefix(const Value& p, size_t l, size_t r) const
    requires kHasPrefixCodec
  {
    return RankPrefix(p, r) - RankPrefix(p, l);
  }

  /// Section 5: distinct decoded values in [l, r) with multiplicities.
  /// fn(const Value&, size_t multiplicity); deduced callable, see
  /// wavelet_trie.hpp.
  template <typename F>
  void DistinctInRange(size_t l, size_t r, const F& fn) const {
    trie_.DistinctInRange(l, r, [&](const BitString& s, size_t c) {
      fn(codec_.Decode(s.Span()), c);
    });
  }

  /// Section 5, prefix-restricted: distinct decoded values with prefix p in
  /// [l, r), with multiplicities ("the distinct hostnames in a time range").
  template <typename F>
  void DistinctInRangeWithPrefix(const Value& p, size_t l, size_t r,
                                 const F& fn) const
    requires kHasPrefixCodec
  {
    trie_.DistinctInRangeWithPrefix(codec_.EncodePrefix(p).Span(), l, r,
                                    [&](const BitString& s, size_t c) {
                                      fn(codec_.Decode(s.Span()), c);
                                    });
  }

  /// Section 5: majority value of [l, r), if any.
  std::optional<std::pair<Value, size_t>> RangeMajority(size_t l, size_t r) const {
    auto m = trie_.RangeMajority(l, r);
    if (!m) return std::nullopt;
    return std::make_pair(codec_.Decode(m->first.Span()), m->second);
  }

  /// Section 5: values occurring at least t times in [l, r).
  template <typename F>
  void RangeFrequent(size_t l, size_t r, size_t t, const F& fn) const {
    trie_.RangeFrequent(l, r, t, [&](const BitString& s, size_t c) {
      fn(codec_.Decode(s.Span()), c);
    });
  }

  /// Section 5: sequential decoded access over [l, r).
  /// fn(size_t position, const Value&).
  template <typename F>
  void ForEachInRange(size_t l, size_t r, const F& fn) const {
    trie_.ForEachInRange(l, r, [&](size_t i, const BitString& s) {
      fn(i, codec_.Decode(s.Span()));
    });
  }

  /// Snapshots a dynamic sequence into the static representation (Theorem
  /// 3.7) — the "flush" of a streaming ingest path. Built node by node
  /// (WaveletTrie::Concat): labels and bitvectors are copied, no string is
  /// extracted.
  StringSequence<WaveletTrie, Codec> Freeze() const
    requires(!kStatic)
  {
    StringSequence<WaveletTrie, Codec> out(codec_);
    out.trie_ = trie_.Freeze();
    return out;
  }

  /// Compressed footprint: the trie representation plus the codec state.
  /// (8 * sizeof(*this) would double-count the trie object, whose content
  /// SizeInBits() already measures — the codec is the only extra state.)
  size_t SizeInBits() const { return trie_.SizeInBits() + 8 * sizeof(Codec); }

  const Trie& trie() const { return trie_; }
  const Codec& codec() const { return codec_; }

 private:
  template <typename T, typename C>
  friend class StringSequence;  // Freeze() builds the static instantiation

  Codec codec_;
  Trie trie_;
};

}  // namespace wt
