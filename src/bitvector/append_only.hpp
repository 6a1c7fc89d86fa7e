// Append-only compressed bitvector (paper Theorem 4.5) with the O(1)
// constant-run initialization of Theorem 4.3.
//
// Design (engineering realization of Lemmas 4.6-4.8; see DESIGN.md #3.2):
//   * Appended bits accumulate in an uncompressed tail buffer that keeps a
//     running ones count per 64-bit word, so Access/Rank inside the buffer
//     are O(1) (Lemma 4.6's "store the answers").
//   * When the buffer reaches kChunkBits, it is sealed into an RRR chunk
//     (the static black box); sealing is O(kChunkBits) work amortized over
//     kChunkBits appends, i.e. O(1) amortized. The paper's Lemma 4.8
//     de-amortization (proxy structures) only improves the worst case and is
//     intentionally not replicated; the bench quantifies the gap.
//   * Chunk partial sums are flat arrays: Rank/Access are worst-case O(1)
//     (chunk index is a shift); Select binary-searches the partial sums,
//     an O(log(n/L)) engineering substitute for the paper's bootstrapped
//     constant-time partial-sum bitvector.
//   * A *virtual constant-prefix run* (bit b repeated m times) makes
//     Init(b, m) O(1): the dynamic Patricia trie of the append-only Wavelet
//     Trie creates such bitvectors when a node is split (paper: "Init can be
//     implemented simply by adding a left offset in each bitvector").
//
// Space: the sealed chunks are RRR-compressed (nH0 + o(n) bits); the buffer
// adds O(kChunkBits) transient bits; the partial sums add O(n/kChunkBits)
// words.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "bitvector/rrr.hpp"
#include "common/assert.hpp"
#include "common/bit_array.hpp"
#include "common/bit_string.hpp"
#include "common/bits.hpp"

namespace wt {

class AppendOnlyBitVector {
 public:
  static constexpr size_t kChunkBits = 4096;

  AppendOnlyBitVector() : cum_ones_{0} {}

  /// O(1) Init(b, m): a bitvector that starts as m copies of `bit`.
  AppendOnlyBitVector(bool bit, size_t run_len)
      : prefix_bit_(bit), prefix_len_(run_len), cum_ones_{0} {}

  void Append(bool b) {
    if ((buffer_.size() & (kWordBits - 1)) == 0) {
      buffer_word_ones_.push_back(static_cast<uint32_t>(buffer_ones_));
    }
    buffer_.PushBack(b);
    buffer_ones_ += b ? 1 : 0;
    if (buffer_.size() == kChunkBits) SealChunk();
  }

  /// Appends the low `len` (<= 64) bits of `value`, LSB first. Sealing and
  /// per-word ones bookkeeping amortize over the whole word — one partial-sum
  /// entry per 64 bits instead of one branch per bit (DESIGN.md #4).
  void AppendWord(uint64_t value, size_t len) {
    WT_DASSERT(len <= kWordBits);
    value &= LowMask(len);
    while (len > 0) {
      const size_t take = std::min(len, kChunkBits - buffer_.size());
      BufferAppend(value & LowMask(take), take);
      value = take < kWordBits ? value >> take : 0;
      len -= take;
      if (buffer_.size() == kChunkBits) SealChunk();
    }
  }

  /// Appends `n` copies of `bit` in O(n/64 + chunks sealed) word operations.
  void AppendRun(bool bit, size_t n) {
    const uint64_t fill = bit ? ~uint64_t(0) : 0;
    while (n > 0) {
      const size_t take = std::min({n, kChunkBits - buffer_.size(), kWordBits});
      BufferAppend(fill & LowMask(take), take);
      n -= take;
      if (buffer_.size() == kChunkBits) SealChunk();
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
    return buffer_.Get(j - chunks_.size() * kChunkBits);
  }

  /// Number of 1s in [0, pos). pos may equal size(). Worst-case O(1).
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
    const size_t off = j - chunks_.size() * kChunkBits;
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
      // Largest chunk c with cum_ones_[c] <= k.
      const size_t c =
          static_cast<size_t>(std::upper_bound(cum_ones_.begin(), cum_ones_.end(), k) -
                              cum_ones_.begin()) -
          1;
      return prefix_len_ + c * kChunkBits + chunks_[c].Select1(k - cum_ones_[c]);
    }
    return prefix_len_ + chunks_.size() * kChunkBits +
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
    if (k < zeros_before(chunks_.size())) {
      // Largest chunk c with zeros_before(c) <= k; zeros_before is strictly
      // increasing in c by at most kChunkBits per step, so binary search.
      size_t lo = 0, hi = chunks_.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (zeros_before(mid) <= k)
          lo = mid;
        else
          hi = mid - 1;
      }
      return prefix_len_ + lo * kChunkBits + chunks_[lo].Select0(k - zeros_before(lo));
    }
    return prefix_len_ + chunks_.size() * kChunkBits +
           BufferSelect0(k - zeros_before(chunks_.size()));
  }

  size_t Select(bool b, size_t k) const { return b ? Select1(k) : Select0(k); }

  size_t size() const {
    return prefix_len_ + chunks_.size() * kChunkBits + buffer_.size();
  }
  size_t num_ones() const {
    return (prefix_bit_ ? prefix_len_ : 0) + cum_ones_.back() + buffer_ones_;
  }
  size_t num_zeros() const { return size() - num_ones(); }

  size_t SizeInBits() const {
    size_t bits = buffer_.SizeInBits() + 64 * cum_ones_.capacity() +
                  32 * buffer_word_ones_.capacity() +
                  8 * sizeof(Rrr) * chunks_.capacity();
    for (const auto& c : chunks_) bits += c.SizeInBits();
    return bits;
  }

  /// Sequential bit iterator with O(1) amortized Next(); used by the
  /// Section 5 range algorithms.
  class Iterator {
   public:
    Iterator(const AppendOnlyBitVector* v, size_t pos) : v_(v), pos_(pos) {}

    bool Next() {
      WT_DASSERT(pos_ < v_->size());
      const size_t i = pos_++;
      if (i < v_->prefix_len_) return v_->prefix_bit_;
      const size_t j = i - v_->prefix_len_;
      const size_t c = j / kChunkBits;
      if (c >= v_->chunks_.size()) {
        return v_->buffer_.Get(j - v_->chunks_.size() * kChunkBits);
      }
      if (chunk_index_ != c) {
        chunk_index_ = c;
        chunk_it_.emplace(&v_->chunks_[c], j % kChunkBits);
      }
      return chunk_it_->Next();
    }

    size_t position() const { return pos_; }

   private:
    const AppendOnlyBitVector* v_;
    size_t pos_;
    size_t chunk_index_ = static_cast<size_t>(-1);
    std::optional<Rrr::Iterator> chunk_it_;
  };

  Iterator IteratorAt(size_t pos) const { return Iterator(this, pos); }

  /// Appends every bit to `out`: the constant prefix as one run, each
  /// sealed chunk block by block out of its RRR, the buffer word by word.
  void AppendTo(BitArray* out) const {
    out->AppendRun(prefix_bit_, prefix_len_);
    for (const Rrr& c : chunks_) c.AppendTo(out, 0, c.size());
    out->AppendRange(buffer_, 0, buffer_.size());
  }

 private:
  /// Appends `len` (<= 64) bits of `value` into the tail buffer, keeping the
  /// per-word ones counts: one entry is due for every buffer word whose first
  /// bit lands in [size, size+len). Caller must not cross the chunk boundary.
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
    // Largest word w with buffer_word_ones_[w] <= k.
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
    auto zeros_before = [&](size_t w) { return w * kWordBits - buffer_word_ones_[w]; };
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

  void SealChunk() {
    chunks_.emplace_back(buffer_);
    cum_ones_.push_back(cum_ones_.back() + buffer_ones_);
    buffer_.Clear();
    buffer_word_ones_.clear();
    buffer_ones_ = 0;
  }

  bool prefix_bit_ = false;
  size_t prefix_len_ = 0;           // Theorem 4.3 virtual constant run
  std::vector<Rrr> chunks_;         // sealed, RRR-compressed
  std::vector<uint64_t> cum_ones_;  // ones before chunk i (appended bits only)
  BitArray buffer_;                 // un-sealed tail, < kChunkBits bits
  std::vector<uint32_t> buffer_word_ones_;  // ones before each buffer word
  size_t buffer_ones_ = 0;
};

}  // namespace wt
