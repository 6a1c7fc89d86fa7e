// DynamicBitVector: the paper's fully-dynamic RLE + Elias-gamma bitvector
// (Theorem 4.9).
//
// A BitTree (counted B-tree, cf. Makinen--Navarro [18] Sec. 3.4) whose leaves
// hold a few hundred bits of gamma-encoded run lengths. All of Access, Rank,
// Select, Insert, Delete run in O(log n); Init(b, n) creates a single-run
// leaf in O(log n) regardless of n — the property (Remark 4.2) that makes
// this encoding suitable for the dynamic Wavelet Trie, where node splits must
// materialize constant bitvectors of arbitrary length.
//
// Space: runs are gamma-encoded, so a leaf with runs r_1..r_k costs
// sum(2 floor(log r_i) + 1) bits, which over the whole bitvector is O(nH0)
// [Ferragina-Giancarlo-Manzini 2009, ref. 6 in the paper].
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bitvector/bit_tree.hpp"
#include "coding/elias.hpp"
#include "common/assert.hpp"
#include "common/bit_array.hpp"

namespace wt {

/// Leaf codec: alternating run lengths, gamma-encoded, starting with
/// first_bit_. The empty leaf has no runs.
class RleLeaf {
 public:
  static constexpr size_t kMaxEncodedBits = 768;
  static constexpr size_t kMinEncodedBits = 96;

  size_t bits() const { return bits_; }
  size_t ones() const { return ones_; }
  size_t EncodedBits() const { return buf_.size(); }
  bool NeedsSplit() const { return buf_.size() > kMaxEncodedBits; }
  bool IsUnderfull() const { return buf_.size() < kMinEncodedBits; }

  size_t SizeInBits() const { return buf_.SizeInBits(); }

  /// A leaf holding n copies of `bit` — a single gamma code, O(1) size.
  /// Always consumes the whole request (runs of any length fit one code).
  static std::pair<RleLeaf, size_t> MakeRunPrefix(bool bit, size_t n) {
    RleLeaf leaf;
    if (n > 0) {
      leaf.first_bit_ = bit;
      BitWriter w(&leaf.buf_);
      w.WriteGamma(n);
      leaf.bits_ = n;
      leaf.ones_ = bit ? n : 0;
    }
    return {std::move(leaf), n};
  }

  bool Get(size_t i) const {
    WT_DASSERT(i < bits_);
    BitReader r(buf_);
    bool b = first_bit_;
    size_t acc = 0;
    for (;;) {
      acc += r.ReadGamma();
      if (i < acc) return b;
      b = !b;
    }
  }

  /// Ones in [0, pos); pos may equal bits().
  size_t Rank1(size_t pos) const {
    WT_DASSERT(pos <= bits_);
    BitReader r(buf_);
    bool b = first_bit_;
    size_t acc = 0, ones = 0;
    while (acc < pos) {
      const uint64_t run = r.ReadGamma();
      const size_t take = std::min<size_t>(run, pos - acc);
      if (b) ones += take;
      acc += take;
      if (take < run) break;
      b = !b;
    }
    return ones;
  }

  /// Position of the (k+1)-th occurrence of `b` (0-based).
  size_t Select(bool bit, size_t k) const {
    WT_DASSERT(k < (bit ? ones_ : bits_ - ones_));
    BitReader r(buf_);
    bool b = first_bit_;
    size_t acc = 0;
    for (;;) {
      const uint64_t run = r.ReadGamma();
      if (b == bit) {
        if (k < run) return acc + k;
        k -= run;
      }
      acc += run;
      b = !b;
    }
  }

  /// Appends `n` copies of `bit`: one run extension (or one new gamma code),
  /// a single decode/encode round regardless of n.
  void AppendRun(bool bit, size_t n) {
    if (n == 0) return;
    std::vector<uint64_t> runs = Decode();
    if (runs.empty()) first_bit_ = bit;
    if (!runs.empty() && BitOfRun(runs.size() - 1) == bit) {
      runs.back() += n;
    } else {
      runs.push_back(n);
    }
    Encode(runs);
  }

  /// Appends the low `len` (<= 64) bits of `value` LSB-first, decomposed
  /// into maximal equal-bit runs — one decode/encode round for the word.
  void AppendWord(uint64_t value, size_t len) {
    WT_DASSERT(len <= 64);
    value &= LowMask(len);
    if (len == 0) return;
    std::vector<uint64_t> runs = Decode();
    if (runs.empty()) first_bit_ = value & 1;
    size_t i = 0;
    while (i < len) {
      const uint64_t rest = value >> i;
      const bool b = rest & 1;
      const size_t run =
          std::min<size_t>(b ? static_cast<size_t>(std::countr_one(rest))
                             : static_cast<size_t>(std::countr_zero(rest)),
                           len - i);
      if (!runs.empty() && BitOfRun(runs.size() - 1) == b) {
        runs.back() += run;
      } else {
        runs.push_back(run);
      }
      i += run;
    }
    Encode(runs);
  }

  void Insert(size_t pos, bool b) {
    WT_DASSERT(pos <= bits_);
    std::vector<uint64_t> runs = Decode();
    if (runs.empty()) {
      first_bit_ = b;
      runs.push_back(1);
      Encode(runs);
      return;
    }
    if (pos == bits_) {  // append
      const bool last_bit = BitOfRun(runs.size() - 1);
      if (last_bit == b)
        ++runs.back();
      else
        runs.push_back(1);
      Encode(runs);
      return;
    }
    // Locate the run containing pos.
    size_t r = 0, acc = 0;
    while (pos >= acc + runs[r]) {
      acc += runs[r];
      ++r;
    }
    const size_t rel = pos - acc;
    const bool run_bit = BitOfRun(r);
    if (run_bit == b) {
      ++runs[r];
    } else if (rel == 0) {
      if (r == 0) {
        first_bit_ = b;
        runs.insert(runs.begin(), 1);
      } else {
        ++runs[r - 1];
      }
    } else {
      // Split runs[r] into (rel, 1, len-rel); alternation is preserved.
      const uint64_t len = runs[r];
      runs[r] = rel;
      runs.insert(runs.begin() + static_cast<ptrdiff_t>(r) + 1, {1, len - rel});
    }
    Encode(runs);
  }

  /// Removes and returns the bit at pos.
  bool Erase(size_t pos) {
    WT_DASSERT(pos < bits_);
    std::vector<uint64_t> runs = Decode();
    size_t r = 0, acc = 0;
    while (pos >= acc + runs[r]) {
      acc += runs[r];
      ++r;
    }
    const bool erased = BitOfRun(r);
    if (--runs[r] == 0) {
      runs.erase(runs.begin() + static_cast<ptrdiff_t>(r));
      if (r == 0) {
        first_bit_ = !first_bit_;
      } else if (r < runs.size()) {
        // Former neighbours r-1 and r now carry the same bit: merge.
        runs[r - 1] += runs[r];
        runs.erase(runs.begin() + static_cast<ptrdiff_t>(r));
      }
    }
    Encode(runs);
    return erased;
  }

  /// Moves the tail (~half by encoded size) into a new leaf.
  RleLeaf SplitTail() {
    std::vector<uint64_t> runs = Decode();
    WT_DASSERT(runs.size() >= 2);
    const size_t total = buf_.size();
    size_t cut = 1, enc = GammaLen(runs[0]);  // keep at least one run left
    while (cut + 1 < runs.size() && enc < total / 2) {
      enc += GammaLen(runs[cut]);
      ++cut;
    }
    RleLeaf right;
    right.first_bit_ = BitOfRun(cut);
    std::vector<uint64_t> right_runs(runs.begin() + static_cast<ptrdiff_t>(cut),
                                     runs.end());
    runs.resize(cut);
    Encode(runs);
    right.Encode(right_runs);
    return right;
  }

  /// Absorbs the content of `right` after this leaf's bits.
  void MergeRight(RleLeaf&& right) {
    if (right.bits_ == 0) return;
    if (bits_ == 0) {
      *this = std::move(right);
      return;
    }
    std::vector<uint64_t> runs = Decode();
    std::vector<uint64_t> rruns = right.Decode();
    if (BitOfRun(runs.size() - 1) == right.first_bit_) {
      runs.back() += rruns.front();
      runs.insert(runs.end(), rruns.begin() + 1, rruns.end());
    } else {
      runs.insert(runs.end(), rruns.begin(), rruns.end());
    }
    Encode(runs);
  }

  /// Sequential bit iterator; O(1) amortized Next().
  class Iterator {
   public:
    Iterator(const RleLeaf* leaf, size_t pos) : reader_(leaf->buf_) {
      WT_DASSERT(pos <= leaf->bits());
      end_ = leaf->bits();
      pos_ = pos;
      if (pos >= end_) return;  // exhausted; Next() must not be called
      // Skip the runs before pos; leave (bit_, run_left_) describing the
      // run containing pos.
      bool b = leaf->first_bit_;
      size_t acc = 0;
      for (;;) {
        const uint64_t run = reader_.ReadGamma();
        if (pos < acc + run) {
          bit_ = b;
          run_left_ = acc + run - pos;
          break;
        }
        acc += run;
        b = !b;
      }
    }

    bool Next() {
      WT_DASSERT(pos_ < end_);
      if (run_left_ == 0) {  // advance to the next run
        run_left_ = reader_.ReadGamma();
        bit_ = !bit_;
      }
      --run_left_;
      ++pos_;
      return bit_;
    }

   private:
    BitReader reader_;
    bool bit_;
    uint64_t run_left_ = 0;
    size_t pos_ = 0;
    size_t end_ = 0;
  };

 private:
  bool BitOfRun(size_t r) const { return (r % 2 == 0) ? first_bit_ : !first_bit_; }

  std::vector<uint64_t> Decode() const {
    std::vector<uint64_t> runs;
    BitReader r(buf_);
    while (r.position() < buf_.size()) runs.push_back(r.ReadGamma());
    return runs;
  }

  void Encode(const std::vector<uint64_t>& runs) {
    buf_.Clear();
    BitWriter w(&buf_);
    size_t bits = 0, ones = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      WT_DASSERT(runs[i] > 0);
      w.WriteGamma(runs[i]);
      bits += runs[i];
      if (BitOfRun(i)) ones += runs[i];
    }
    bits_ = bits;
    ones_ = ones;
  }

  BitArray buf_;  // gamma codes of the alternating run lengths
  bool first_bit_ = false;
  size_t bits_ = 0;
  size_t ones_ = 0;
};

/// The paper's Theorem 4.9 structure. See file comment.
class DynamicBitVector {
 public:
  DynamicBitVector() = default;

  /// Init(b, n): O(log n) regardless of n (Remark 4.2).
  DynamicBitVector(bool bit, size_t n) { tree_.Init(bit, n); }

  /// Builds from existing bits: word-at-a-time run appends instead of n
  /// single-bit tree descents.
  explicit DynamicBitVector(const BitArray& bits) {
    for (size_t i = 0; i < bits.size(); i += kWordBits) {
      const size_t chunk = std::min(kWordBits, bits.size() - i);
      tree_.AppendWord(bits.GetBits(i, chunk), chunk);
    }
  }

  void Init(bool bit, size_t n) { tree_.Init(bit, n); }
  void Insert(size_t pos, bool b) { tree_.Insert(pos, b); }
  void Append(bool b) { tree_.Append(b); }
  /// Appends `n` copies of `bit` in one rightmost descent (one gamma code).
  void AppendRun(bool bit, size_t n) { tree_.AppendRun(bit, n); }
  /// Appends the low `len` (<= 64) bits of `value`, LSB first, in one descent.
  void AppendWord(uint64_t value, size_t len) { tree_.AppendWord(value, len); }
  bool Erase(size_t pos) { return tree_.Erase(pos); }

  bool Get(size_t pos) const { return tree_.Get(pos); }
  size_t Rank1(size_t pos) const { return tree_.Rank1(pos); }
  size_t Rank0(size_t pos) const { return tree_.Rank0(pos); }
  size_t Rank(bool b, size_t pos) const { return tree_.Rank(b, pos); }
  size_t Select1(size_t k) const { return tree_.Select1(k); }
  size_t Select0(size_t k) const { return tree_.Select0(k); }
  size_t Select(bool b, size_t k) const { return tree_.Select(b, k); }

  size_t size() const { return tree_.size(); }
  size_t num_ones() const { return tree_.num_ones(); }
  size_t num_zeros() const { return tree_.num_zeros(); }
  size_t SizeInBits() const { return tree_.SizeInBits(); }
  void CheckInvariants() const { tree_.CheckInvariants(); }

  using Iterator = BitTree<RleLeaf>::Iterator;
  Iterator IteratorAt(size_t pos) const { return Iterator(&tree_, pos); }

  /// Appends every bit to `out`, decoded run by run through the iterator
  /// and packed 64 to a word.
  void AppendTo(BitArray* out) const {
    const size_t n = size();
    if (n == 0) return;
    Iterator it = IteratorAt(0);
    for (size_t i = 0; i < n; i += kWordBits) {
      const size_t len = std::min(kWordBits, n - i);
      uint64_t word = 0;
      for (size_t j = 0; j < len; ++j) word |= uint64_t(it.Next()) << j;
      out->AppendBits(word, len);
    }
  }

 private:
  BitTree<RleLeaf> tree_;
};

}  // namespace wt
