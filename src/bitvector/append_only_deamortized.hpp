// De-amortized append-only compressed bitvector — the worst-case O(1)
// Append of Lemma 4.8, realized with the incremental Rrr::Builder.
//
// AppendOnlyBitVector (append_only.hpp) seals a full 4096-bit buffer into an
// RRR chunk *eagerly*: amortized O(1) per append, but the sealing append
// pays the whole compression cost — a latency spike the paper's Lemma 4.8
// removes by spreading construction over subsequent operations. This class
// implements that spreading:
//
//   * a full buffer becomes the *pending* chunk: its uncompressed bits (plus
//     per-word ones counts) keep answering queries, exactly the paper's
//     proxy structure F~j;
//   * every Append advances the pending chunk's Rrr::Builder by a constant
//     number of 63-bit blocks (kBuildBlocksPerAppend); the build finishes
//     after ~kChunkBits/(63*kBuildBlocksPerAppend) appends, far before the
//     buffer can fill again, so at most one chunk is ever pending;
//   * when the build completes, the compressed chunk replaces the proxy and
//     the uncompressed copy is dropped.
//
// The transient cost is one uncompressed chunk (kChunkBits bits) — the
// "at most one copy of each bitvector" of Lemma 4.8, which is why its space
// is O(nH0) + o(n) rather than nH0 + o(n). bench_appendonly_bv compares the
// p99.9/max append latency of the two variants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bitvector/rrr.hpp"
#include "common/assert.hpp"
#include "common/bit_array.hpp"
#include "common/bit_string.hpp"
#include "common/bits.hpp"

namespace wt {

class DeamortizedAppendOnlyBitVector {
 public:
  static constexpr size_t kChunkBits = 4096;
  /// 63-bit blocks encoded per Append while a chunk is pending. Two blocks
  /// finish a 4096-bit chunk in ~33 appends << 4096, a comfortable margin
  /// (the paper: "increase the speed of construction ... by a suitable
  /// constant factor").
  static constexpr size_t kBuildBlocksPerAppend = 2;

  DeamortizedAppendOnlyBitVector() : cum_ones_{0} {}

  /// O(1) Init(b, m) via the virtual constant-prefix run (Theorem 4.3).
  DeamortizedAppendOnlyBitVector(bool bit, size_t run_len)
      : prefix_bit_(bit), prefix_len_(run_len), cum_ones_{0} {}

  void Append(bool b) {
    AdvancePendingBuild(1);
    if ((buffer_.size() & (kWordBits - 1)) == 0) {
      buffer_word_ones_.push_back(static_cast<uint32_t>(buffer_ones_));
    }
    buffer_.PushBack(b);
    buffer_ones_ += b ? 1 : 0;
    if (buffer_.size() == kChunkBits) StartSeal();
  }

  /// Appends the low `len` (<= 64) bits of `value`, LSB first. The pending
  /// build advances by as many blocks as `len` bit-appends would have
  /// contributed, so the Lemma 4.8 invariant (the build finishes before the
  /// buffer can refill) is preserved under word-wide ingestion.
  void AppendWord(uint64_t value, size_t len) {
    WT_DASSERT(len <= kWordBits);
    value &= LowMask(len);
    while (len > 0) {
      AdvancePendingBuild(len);
      const size_t take = std::min(len, kChunkBits - buffer_.size());
      BufferAppend(value & LowMask(take), take);
      value = take < kWordBits ? value >> take : 0;
      len -= take;
      if (buffer_.size() == kChunkBits) StartSeal();
    }
  }

  /// Appends `n` copies of `bit` in O(n/64 + chunks sealed) word operations.
  void AppendRun(bool bit, size_t n) {
    const uint64_t fill = bit ? ~uint64_t(0) : 0;
    while (n > 0) {
      AdvancePendingBuild(n);
      const size_t take = std::min({n, kChunkBits - buffer_.size(), kWordBits});
      BufferAppend(fill & LowMask(take), take);
      n -= take;
      if (buffer_.size() == kChunkBits) StartSeal();
    }
  }

  /// Appends every bit of `s` (word-at-a-time).
  void AppendSpan(BitSpan s) {
    for (size_t i = 0; i < s.size(); i += kWordBits) {
      const size_t chunk = std::min(kWordBits, s.size() - i);
      AppendWord(s.GetBits(i, chunk), chunk);
    }
  }

  bool Get(size_t i) const {
    WT_DASSERT(i < size());
    if (i < prefix_len_) return prefix_bit_;
    const size_t j = i - prefix_len_;
    const size_t c = j / kChunkBits;
    if (c < chunks_.size()) return chunks_[c].Get(j % kChunkBits);
    if (pending_ && c == chunks_.size()) return pending_->raw.Get(j % kChunkBits);
    return buffer_.Get(j - NumSealed() * kChunkBits);
  }

  /// Number of 1s in [0, pos). Worst-case O(1).
  size_t Rank1(size_t pos) const {
    WT_DASSERT(pos <= size());
    size_t ones = 0;
    if (prefix_bit_) ones += std::min(pos, prefix_len_);
    if (pos <= prefix_len_) return ones;
    const size_t j = pos - prefix_len_;
    const size_t c = j / kChunkBits;
    if (c < chunks_.size()) {
      return ones + cum_ones_[c] + chunks_[c].Rank1(j % kChunkBits);
    }
    if (pending_ && c == chunks_.size()) {
      return ones + cum_ones_[c] + pending_->Rank1(j % kChunkBits);
    }
    const size_t off = j - NumSealed() * kChunkBits;
    return ones + cum_ones_.back() + BufferRank1(off);
  }

  size_t Rank0(size_t pos) const { return pos - Rank1(pos); }
  size_t Rank(bool b, size_t pos) const { return b ? Rank1(pos) : Rank0(pos); }

  /// Position of the (k+1)-th 1 (0-based). Precondition: k < num_ones().
  size_t Select1(size_t k) const {
    WT_DASSERT(k < num_ones());
    if (prefix_bit_) {
      if (k < prefix_len_) return k;
      k -= prefix_len_;
    }
    if (k < cum_ones_.back()) {
      const size_t c =
          static_cast<size_t>(std::upper_bound(cum_ones_.begin(),
                                               cum_ones_.end(), k) -
                              cum_ones_.begin()) -
          1;
      const size_t in_chunk = k - cum_ones_[c];
      const size_t base = prefix_len_ + c * kChunkBits;
      if (c < chunks_.size()) return base + chunks_[c].Select1(in_chunk);
      return base + pending_->Select1(in_chunk);
    }
    return prefix_len_ + NumSealed() * kChunkBits +
           BufferSelect1(k - cum_ones_.back());
  }

  /// Position of the (k+1)-th 0 (0-based). Precondition: k < num_zeros().
  size_t Select0(size_t k) const {
    WT_DASSERT(k < num_zeros());
    if (!prefix_bit_) {
      if (k < prefix_len_) return k;
      k -= prefix_len_;
    }
    auto zeros_before = [&](size_t c) { return c * kChunkBits - cum_ones_[c]; };
    const size_t sealed = NumSealed();
    if (sealed > 0 && k < zeros_before(sealed)) {
      size_t lo = 0, hi = sealed - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (zeros_before(mid) <= k)
          lo = mid;
        else
          hi = mid - 1;
      }
      const size_t in_chunk = k - zeros_before(lo);
      const size_t base = prefix_len_ + lo * kChunkBits;
      if (lo < chunks_.size()) return base + chunks_[lo].Select0(in_chunk);
      return base + pending_->Select0(in_chunk);
    }
    return prefix_len_ + sealed * kChunkBits +
           BufferSelect0(k - zeros_before(sealed));
  }

  size_t Select(bool b, size_t k) const { return b ? Select1(k) : Select0(k); }

  size_t size() const {
    return prefix_len_ + NumSealed() * kChunkBits + buffer_.size();
  }
  size_t num_ones() const {
    return (prefix_bit_ ? prefix_len_ : 0) + cum_ones_.back() + buffer_ones_;
  }
  size_t num_zeros() const { return size() - num_ones(); }

  /// True while a chunk's compression is still being spread over appends.
  bool HasPendingBuild() const { return pending_.has_value(); }

  /// Sequential bit iterator with O(1) amortized Next(); used by the
  /// Section 5 range algorithms.
  class Iterator {
   public:
    Iterator(const DeamortizedAppendOnlyBitVector* v, size_t pos)
        : v_(v), pos_(pos) {}

    bool Next() {
      WT_DASSERT(pos_ < v_->size());
      const size_t i = pos_++;
      if (i < v_->prefix_len_) return v_->prefix_bit_;
      const size_t j = i - v_->prefix_len_;
      const size_t c = j / kChunkBits;
      if (c >= v_->chunks_.size()) {
        if (v_->pending_ && c == v_->chunks_.size()) {
          return v_->pending_->raw.Get(j % kChunkBits);
        }
        return v_->buffer_.Get(j - v_->NumSealed() * kChunkBits);
      }
      if (chunk_index_ != c) {
        chunk_index_ = c;
        chunk_it_.emplace(&v_->chunks_[c], j % kChunkBits);
      }
      return chunk_it_->Next();
    }

    size_t position() const { return pos_; }

   private:
    const DeamortizedAppendOnlyBitVector* v_;
    size_t pos_;
    size_t chunk_index_ = static_cast<size_t>(-1);
    std::optional<Rrr::Iterator> chunk_it_;
  };

  Iterator IteratorAt(size_t pos) const { return Iterator(this, pos); }

  /// Appends every bit to `out`: the constant prefix as one run, the
  /// compressed chunks block by block, the pending chunk's raw bits and
  /// the buffer word by word.
  void AppendTo(BitArray* out) const {
    out->AppendRun(prefix_bit_, prefix_len_);
    for (const Rrr& c : chunks_) c.AppendTo(out, 0, c.size());
    if (pending_) out->AppendRange(pending_->raw, 0, pending_->raw.size());
    out->AppendRange(buffer_, 0, buffer_.size());
  }

  size_t SizeInBits() const {
    size_t bits = buffer_.SizeInBits() + 64 * cum_ones_.capacity() +
                  32 * buffer_word_ones_.capacity() +
                  8 * sizeof(Rrr) * chunks_.capacity();
    for (const auto& c : chunks_) bits += c.SizeInBits();
    if (pending_) {
      bits += pending_->raw.SizeInBits() + 32 * pending_->word_ones.capacity();
    }
    return bits;
  }

 private:
  /// The paper's proxy F~j: the sealed-but-uncompressed chunk, answering
  /// queries from its raw bits while the builder catches up.
  struct Pending {
    BitArray raw;                     // exactly kChunkBits bits
    std::vector<uint32_t> word_ones;  // ones before each word
    size_t ones = 0;
    Rrr::Builder builder;

    size_t Rank1(size_t off) const {
      if (off == raw.size()) return ones;
      const size_t w = off / kWordBits;
      size_t r = word_ones[w];
      const size_t tail = off & (kWordBits - 1);
      if (tail != 0) r += PopCount(raw.data()[w] & LowMask(tail));
      return r;
    }

    size_t Select1(size_t k) const {
      const size_t w =
          static_cast<size_t>(std::upper_bound(word_ones.begin(),
                                               word_ones.end(), k) -
                              word_ones.begin()) -
          1;
      return w * kWordBits +
             SelectInWord(raw.data()[w], static_cast<unsigned>(k - word_ones[w]));
    }

    size_t Select0(size_t k) const {
      auto zeros_before = [&](size_t w) { return w * kWordBits - word_ones[w]; };
      size_t lo = 0, hi = word_ones.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (zeros_before(mid) <= k)
          lo = mid;
        else
          hi = mid - 1;
      }
      return lo * kWordBits + SelectZeroInWord(raw.data()[lo],
                                               static_cast<unsigned>(
                                                   k - zeros_before(lo)));
    }
  };

  size_t NumSealed() const { return chunks_.size() + (pending_ ? 1 : 0); }

  /// Advances the pending compression by the budget of `appended_bits`
  /// sequential appends (Step stops early once the chunk is done).
  void AdvancePendingBuild(size_t appended_bits) {
    if (!pending_) return;
    if (pending_->builder.Step(kBuildBlocksPerAppend * appended_bits)) {
      chunks_.push_back(pending_->builder.Take());
      pending_.reset();
    }
  }

  void StartSeal() {
    WT_ASSERT_MSG(!pending_,
                  "DeamortizedAppendOnlyBitVector: previous build unfinished");
    pending_.emplace();
    pending_->raw = std::move(buffer_);
    pending_->word_ones = std::move(buffer_word_ones_);
    pending_->ones = buffer_ones_;
    pending_->builder = Rrr::Builder(pending_->raw.data(), pending_->raw.size());
    cum_ones_.push_back(cum_ones_.back() + buffer_ones_);
    buffer_ = BitArray();
    buffer_word_ones_.clear();
    buffer_ones_ = 0;
  }

  /// Appends `len` (<= 64) bits of `value` into the tail buffer, keeping the
  /// per-word ones counts (see append_only.hpp). Caller must not cross the
  /// chunk boundary.
  void BufferAppend(uint64_t value, size_t len) {
    WT_DASSERT(len <= kWordBits && buffer_.size() + len <= kChunkBits);
    value &= LowMask(len);
    const size_t pos = buffer_.size();
    for (size_t b = (pos + kWordBits - 1) & ~(kWordBits - 1); b < pos + len;
         b += kWordBits) {
      buffer_word_ones_.push_back(static_cast<uint32_t>(
          buffer_ones_ + PopCount(value & LowMask(b - pos))));
    }
    buffer_.AppendBits(value, len);
    buffer_ones_ += static_cast<size_t>(PopCount(value));
  }

  size_t BufferRank1(size_t off) const {
    if (off == buffer_.size()) return buffer_ones_;
    const size_t w = off / kWordBits;
    size_t ones = buffer_word_ones_[w];
    const size_t tail = off & (kWordBits - 1);
    if (tail != 0) ones += PopCount(buffer_.data()[w] & LowMask(tail));
    return ones;
  }

  size_t BufferSelect1(size_t k) const {
    const size_t w =
        static_cast<size_t>(std::upper_bound(buffer_word_ones_.begin(),
                                             buffer_word_ones_.end(), k) -
                            buffer_word_ones_.begin()) -
        1;
    return w * kWordBits +
           SelectInWord(buffer_.data()[w],
                        static_cast<unsigned>(k - buffer_word_ones_[w]));
  }

  size_t BufferSelect0(size_t k) const {
    auto zeros_before = [&](size_t w) {
      return w * kWordBits - buffer_word_ones_[w];
    };
    size_t lo = 0, hi = buffer_word_ones_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (zeros_before(mid) <= k)
        lo = mid;
      else
        hi = mid - 1;
    }
    return lo * kWordBits +
           SelectZeroInWord(buffer_.data()[lo],
                            static_cast<unsigned>(k - zeros_before(lo)));
  }

  bool prefix_bit_ = false;
  size_t prefix_len_ = 0;           // Theorem 4.3 virtual constant run
  std::vector<Rrr> chunks_;         // fully compressed chunks
  std::optional<Pending> pending_;  // at most one chunk mid-compression
  std::vector<uint64_t> cum_ones_;  // ones before chunk i (chunks + pending)
  BitArray buffer_;                 // accumulating tail, < kChunkBits bits
  std::vector<uint32_t> buffer_word_ones_;
  size_t buffer_ones_ = 0;
};

}  // namespace wt
