// Differential tests for the bulk-load / word-parallel ingestion paths:
//   * AppendWord / AppendRun on both append-only bitvectors, including the
//     word-boundary and chunk-seal edge cases (len 1, 63, 64, crossing 4096);
//   * BitTree/DynamicBitVector run- and word-appends vs per-bit appends;
//   * DynamicWaveletTrieT::AppendBatch vs repeated Append — the structures
//     must be *identical* (same trie shape, same beta contents, same counts),
//     checked over >= 10k mixed Zipf/uniform strings;
//   * WaveletTrie::BulkBuild vs the reference constructor — byte-identical
//     serialization;
//   * WaveletTrie::Concat (static and dynamic sources, heap and mapped) vs
//     BulkBuild over the concatenated strings — byte-identical images.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "bitvector/append_only.hpp"
#include "bitvector/append_only_deamortized.hpp"
#include "bitvector/dynamic_bit_vector.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "core/string_sequence.hpp"
#include "core/wavelet_trie.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// ---------------------------------------------------------- bitvector level

template <typename BV>
class AppendOnlyWordTest : public ::testing::Test {};

using AppendOnlyTypes =
    ::testing::Types<AppendOnlyBitVector, DeamortizedAppendOnlyBitVector>;
TYPED_TEST_SUITE(AppendOnlyWordTest, AppendOnlyTypes);

template <typename BV>
void CheckAgainstReference(const BV& bv, const std::vector<bool>& ref) {
  ASSERT_EQ(bv.size(), ref.size());
  size_t ones = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bv.Get(i), ref[i]) << "bit " << i;
    ASSERT_EQ(bv.Rank1(i), ones) << "rank " << i;
    if (ref[i]) {
      ASSERT_EQ(bv.Select1(ones), i);
      ++ones;
    } else {
      ASSERT_EQ(bv.Select0(i - ones), i);
    }
  }
  ASSERT_EQ(bv.Rank1(ref.size()), ones);
  ASSERT_EQ(bv.num_ones(), ones);
}

void AppendWordRef(std::vector<bool>* ref, uint64_t value, size_t len) {
  for (size_t i = 0; i < len; ++i) ref->push_back((value >> i) & 1);
}

TYPED_TEST(AppendOnlyWordTest, WordBoundaryLengths) {
  // len 1, 63, 64, and unaligned mixes around every word boundary.
  for (size_t len : {size_t(1), size_t(63), size_t(64)}) {
    TypeParam bv;
    std::vector<bool> ref;
    std::mt19937_64 rng(len);
    for (int round = 0; round < 300; ++round) {
      const uint64_t v = rng();
      bv.AppendWord(v, len);
      AppendWordRef(&ref, v, len);
    }
    CheckAgainstReference(bv, ref);
  }
}

TYPED_TEST(AppendOnlyWordTest, MixedLengthsAndBits) {
  TypeParam bv;
  std::vector<bool> ref;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 2000; ++round) {
    const size_t len = rng() % 65;  // includes len == 0
    const uint64_t v = rng();
    bv.AppendWord(v, len);
    AppendWordRef(&ref, v, len);
    if (round % 5 == 0) {
      const bool b = rng() & 1;
      bv.Append(b);
      ref.push_back(b);
    }
  }
  CheckAgainstReference(bv, ref);
}

TYPED_TEST(AppendOnlyWordTest, WordAppendsCrossChunkSeal) {
  // Fill to just below the 4096-bit chunk boundary, then cross it with a
  // 64-bit word so the seal splits the word.
  TypeParam bv;
  std::vector<bool> ref;
  std::mt19937_64 rng(11);
  while (bv.size() < TypeParam::kChunkBits - 17) {
    const bool b = rng() & 1;
    bv.Append(b);
    ref.push_back(b);
  }
  const uint64_t v = rng();
  bv.AppendWord(v, 64);  // 17 bits land in the old chunk, 47 in the next
  AppendWordRef(&ref, v, 64);
  for (int round = 0; round < 200; ++round) {
    const uint64_t w = rng();
    bv.AppendWord(w, 64);
    AppendWordRef(&ref, w, 64);
  }
  CheckAgainstReference(bv, ref);
}

TYPED_TEST(AppendOnlyWordTest, RunAppendsCrossChunkSeal) {
  TypeParam bv;
  std::vector<bool> ref;
  // A run spanning multiple chunks, then alternating short runs, on top of a
  // virtual constant-prefix Init.
  const size_t kInit = 1000;
  TypeParam bv2(true, kInit);
  std::vector<bool> ref2(kInit, true);
  std::mt19937_64 rng(13);
  size_t runs[] = {1, 63, 64, 65, 9000, 4096, 1, 2, 100};
  bool bit = false;
  for (size_t r : runs) {
    bv.AppendRun(bit, r);
    bv2.AppendRun(bit, r);
    for (size_t i = 0; i < r; ++i) {
      ref.push_back(bit);
      ref2.push_back(bit);
    }
    bit = !bit;
  }
  bv.AppendRun(true, 0);  // empty run is a no-op
  CheckAgainstReference(bv, ref);
  CheckAgainstReference(bv2, ref2);
}

TYPED_TEST(AppendOnlyWordTest, AppendSpanMatchesBits) {
  std::mt19937_64 rng(19);
  BitString s;
  for (int i = 0; i < 5000; ++i) s.PushBack(rng() % 3 == 0);
  TypeParam bv;
  bv.AppendSpan(s.Span().SubSpan(3, 4500));  // unaligned view
  ASSERT_EQ(bv.size(), 4500u);
  for (size_t i = 0; i < 4500; ++i) ASSERT_EQ(bv.Get(i), s.Get(3 + i));
}

TYPED_TEST(AppendOnlyWordTest, WordPathMatchesBitPath) {
  // The word-parallel path must answer every query identically to the
  // per-bit path (internal chunking may differ; queries may not).
  TypeParam word_bv;
  TypeParam bit_bv;
  std::mt19937_64 rng(17);
  for (int round = 0; round < 500; ++round) {
    const size_t len = 1 + rng() % 64;
    const uint64_t v = rng();
    word_bv.AppendWord(v, len);
    for (size_t i = 0; i < len; ++i) bit_bv.Append((v >> i) & 1);
  }
  ASSERT_EQ(word_bv.size(), bit_bv.size());
  ASSERT_EQ(word_bv.num_ones(), bit_bv.num_ones());
  for (size_t i = 0; i < word_bv.size(); i += 37) {
    ASSERT_EQ(word_bv.Get(i), bit_bv.Get(i));
    ASSERT_EQ(word_bv.Rank1(i), bit_bv.Rank1(i));
  }
  for (size_t k = 0; k < word_bv.num_ones(); k += 29) {
    ASSERT_EQ(word_bv.Select1(k), bit_bv.Select1(k));
  }
}

TEST(DynamicBitVectorBulk, RunAndWordAppendsMatchBitAppends) {
  DynamicBitVector fast;
  DynamicBitVector slow;
  std::mt19937_64 rng(23);
  for (int round = 0; round < 400; ++round) {
    switch (rng() % 3) {
      case 0: {
        const bool b = rng() & 1;
        const size_t n = rng() % 300;
        fast.AppendRun(b, n);
        for (size_t i = 0; i < n; ++i) slow.Append(b);
        break;
      }
      case 1: {
        const size_t len = rng() % 65;
        const uint64_t v = rng();
        fast.AppendWord(v, len);
        for (size_t i = 0; i < len; ++i) slow.Append((v >> i) & 1);
        break;
      }
      default: {
        const bool b = rng() & 1;
        fast.Append(b);
        slow.Append(b);
        break;
      }
    }
  }
  fast.CheckInvariants();
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.num_ones(), slow.num_ones());
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast.Get(i), slow.Get(i)) << "bit " << i;
  }
  for (size_t i = 0; i <= fast.size(); i += 11) {
    ASSERT_EQ(fast.Rank1(i), slow.Rank1(i));
  }
  for (size_t k = 0; k < fast.num_ones(); k += 7) {
    ASSERT_EQ(fast.Select1(k), slow.Select1(k));
  }
  for (size_t k = 0; k < fast.num_zeros(); k += 7) {
    ASSERT_EQ(fast.Select0(k), slow.Select0(k));
  }
}

TEST(DynamicBitVectorBulk, BulkConstructorMatchesBits) {
  std::mt19937_64 rng(29);
  BitArray bits;
  for (int i = 0; i < 5000; ++i) bits.PushBack(rng() % 3 == 0);
  DynamicBitVector bv(bits);
  bv.CheckInvariants();
  ASSERT_EQ(bv.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(bv.Get(i), bits.Get(i));
}

// --------------------------------------------------------------- trie level

// Mixed workload per the paper's motivation: a Zipfian URL log plus uniform
// random byte strings, all ByteCodec-encoded (one prefix-free universe).
std::vector<BitString> MixedWorkload(size_t n_zipf, size_t n_uniform,
                                     uint64_t seed) {
  std::vector<BitString> seq;
  seq.reserve(n_zipf + n_uniform);
  UrlLogOptions opt;
  opt.num_domains = 40;
  opt.paths_per_domain = 25;
  opt.seed = seed;
  UrlLogGenerator gen(opt);
  for (size_t i = 0; i < n_zipf; ++i) seq.push_back(ByteCodec::Encode(gen.Next()));
  std::mt19937_64 rng(seed * 31 + 1);
  for (size_t i = 0; i < n_uniform; ++i) {
    std::string s;
    const size_t len = 1 + rng() % 10;
    for (size_t j = 0; j < len; ++j) s.push_back('a' + rng() % 26);
    seq.push_back(ByteCodec::Encode(s));
  }
  // Interleave deterministically so batches mix both distributions.
  std::shuffle(seq.begin(), seq.end(), std::mt19937_64(seed * 7 + 3));
  return seq;
}

template <typename Trie>
void ExpectIdenticalStructure(const Trie& a, const Trie& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.NumDistinct(), b.NumDistinct());
  ASSERT_EQ(a.Height(), b.Height());
  ASSERT_EQ(a.LabelBits(), b.LabelBits());
  const auto na = a.DebugNodes();
  const auto nb = b.DebugNodes();
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    ASSERT_EQ(na[i].alpha, nb[i].alpha) << "node " << i;
    ASSERT_EQ(na[i].beta, nb[i].beta) << "node " << i;
    ASSERT_EQ(na[i].is_leaf, nb[i].is_leaf) << "node " << i;
    ASSERT_EQ(na[i].count, nb[i].count) << "node " << i;
  }
}

template <typename Trie>
void ExpectIdenticalQueries(const Trie& a, const Trie& b,
                            const std::vector<BitString>& seq) {
  const size_t n = seq.size();
  for (size_t i = 0; i < n; i += 97) {
    ASSERT_EQ(a.Access(i), b.Access(i)) << "pos " << i;
  }
  for (size_t i = 0; i < n; i += 131) {
    const BitSpan s = seq[i].Span();
    ASSERT_EQ(a.Rank(s, n / 3), b.Rank(s, n / 3));
    ASSERT_EQ(a.Rank(s, n), b.Rank(s, n));
    ASSERT_EQ(a.Select(s, 0), b.Select(s, 0));
    const size_t cnt = a.Count(s);
    ASSERT_EQ(cnt, b.Count(s));
    if (cnt > 0) ASSERT_EQ(a.Select(s, cnt - 1), b.Select(s, cnt - 1));
  }
}

template <typename Trie>
class AppendBatchTest : public ::testing::Test {};

using TrieTypes = ::testing::Types<AppendOnlyWaveletTrie,
                                   DeamortizedAppendOnlyWaveletTrie,
                                   DynamicWaveletTrie>;
TYPED_TEST_SUITE(AppendBatchTest, TrieTypes);

TYPED_TEST(AppendBatchTest, DifferentialMixedZipfUniform) {
  // >= 10k strings, one batch vs element-wise: bit-identical structures.
  const auto seq = MixedWorkload(8000, 4000, 42);
  TypeParam batched;
  batched.AppendBatch(seq);
  TypeParam incremental;
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
  ExpectIdenticalQueries(batched, incremental, seq);
}

TYPED_TEST(AppendBatchTest, BatchOntoExistingTrieAndSmallBatches) {
  const auto seq = MixedWorkload(2000, 1000, 99);
  TypeParam batched;
  TypeParam incremental;
  // Seed both element-wise, then append the rest in batches of varying size
  // (including size 1) so batches hit existing nodes, splits, and leaves.
  size_t i = 0;
  for (; i < 500; ++i) {
    batched.Append(seq[i]);
    incremental.Append(seq[i]);
  }
  const size_t batch_sizes[] = {1, 7, 64, 65, 1000, seq.size()};
  for (size_t bs : batch_sizes) {
    const size_t end = std::min(seq.size(), i + bs);
    std::vector<BitSpan> batch;
    for (size_t j = i; j < end; ++j) batch.push_back(seq[j].Span());
    batched.AppendBatch(std::span<const BitSpan>(batch));
    for (size_t j = i; j < end; ++j) incremental.Append(seq[j]);
    i = end;
  }
  ASSERT_EQ(i, seq.size());
  // An empty batch is a no-op.
  batched.AppendBatch(std::span<const BitSpan>{});
  ExpectIdenticalStructure(batched, incremental);
  ExpectIdenticalQueries(batched, incremental, seq);
}

TYPED_TEST(AppendBatchTest, HashedIntegerAlphabet) {
  // Balanced-shape coverage: Zipf and uniform integers under HashedIntCodec.
  HashedIntCodec codec(32);
  std::vector<BitString> seq;
  for (auto dist : {IntDistribution::kZipf, IntDistribution::kUniform}) {
    for (uint64_t v : GenerateIntegers(3000, 200, dist, 5)) {
      seq.push_back(codec.Encode(v & 0xFFFFFFFFull));
    }
  }
  TypeParam batched;
  // Two batches to cover batch-onto-batch.
  std::vector<BitSpan> first(seq.begin(), seq.begin() + 3000);
  std::vector<BitSpan> second(seq.begin() + 3000, seq.end());
  batched.AppendBatch(std::span<const BitSpan>(first));
  batched.AppendBatch(std::span<const BitSpan>(second));
  TypeParam incremental;
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
}

TEST(AppendBatch, SingletonAndDuplicateBatches) {
  AppendOnlyWaveletTrie batched;
  AppendOnlyWaveletTrie incremental;
  std::vector<BitString> seq;
  for (const char* s : {"0001", "0011", "0100", "00100", "0100", "00100",
                        "0100", "0001", "0011"}) {
    seq.push_back(BitString::FromString(s));
  }
  batched.AppendBatch(seq);
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
  // A batch of one duplicate string.
  std::vector<BitSpan> one{seq[0].Span()};
  batched.AppendBatch(std::span<const BitSpan>(one));
  incremental.Append(seq[0]);
  ExpectIdenticalStructure(batched, incremental);
}

TEST(DynamicWaveletTrieMove, MoveAssignmentStealsAndFrees) {
  AppendOnlyWaveletTrie a;
  a.Append(BitString::FromString("0101"));
  a.Append(BitString::FromString("0110"));
  AppendOnlyWaveletTrie b;
  b.Append(BitString::FromString("111"));
  b = std::move(a);
  ASSERT_EQ(b.size(), 2u);
  ASSERT_EQ(b.NumDistinct(), 2u);
  ASSERT_EQ(b.Access(0).ToString(), "0101");
  ASSERT_EQ(b.Access(1).ToString(), "0110");
  ASSERT_EQ(a.size(), 0u);   // NOLINT(bugprone-use-after-move): spec'd empty
  // Self-move must be a no-op.
  auto* pb = &b;
  b = std::move(*pb);
  ASSERT_EQ(b.size(), 2u);
  // Move assignment works for the fully dynamic variant too.
  DynamicWaveletTrie c;
  c.Append(BitString::FromString("00"));
  DynamicWaveletTrie d;
  d = std::move(c);
  ASSERT_EQ(d.size(), 1u);
}

// ------------------------------------------------------------- static level

TEST(BulkBuild, ByteIdenticalToReferenceConstructor) {
  const auto seq = MixedWorkload(3000, 1500, 7);
  WaveletTrie reference(seq);
  WaveletTrie bulk = WaveletTrie::BulkBuild(seq);
  std::ostringstream sa, sb;
  reference.Save(sa);
  bulk.Save(sb);
  ASSERT_EQ(sa.str(), sb.str());
  ASSERT_EQ(bulk.size(), seq.size());
  for (size_t i = 0; i < seq.size(); i += 113) {
    ASSERT_EQ(bulk.Access(i), reference.Access(i));
  }
}

TEST(BulkBuild, EmptyAndSingleton) {
  std::ostringstream sa, sb;
  WaveletTrie(std::vector<BitString>{}).Save(sa);
  WaveletTrie::BulkBuild({}).Save(sb);
  ASSERT_EQ(sa.str(), sb.str());
  std::vector<BitString> one{BitString::FromString("10101")};
  WaveletTrie ref(one);
  WaveletTrie bulk = WaveletTrie::BulkBuild(one);
  ASSERT_EQ(bulk.size(), 1u);
  ASSERT_EQ(bulk.Access(0), ref.Access(0));
}

TEST(StringSequenceBatch, AppendBatchMatchesAppendAndFreeze) {
  UrlLogGenerator gen;
  const auto urls = gen.Take(4000);
  StringSequence<AppendOnlyWaveletTrie> batched;
  batched.AppendBatch(urls);
  StringSequence<AppendOnlyWaveletTrie> incremental;
  for (const auto& u : urls) incremental.Append(u);
  ASSERT_EQ(batched.size(), incremental.size());
  ASSERT_EQ(batched.NumDistinct(), incremental.NumDistinct());
  for (size_t i = 0; i < urls.size(); i += 61) {
    ASSERT_EQ(batched.Access(i), urls[i]);
    ASSERT_EQ(batched.Rank(urls[i], urls.size()),
              incremental.Rank(urls[i], urls.size()));
  }
  // Freeze goes through BulkBuild; the snapshot must agree everywhere.
  auto frozen = batched.Freeze();
  ASSERT_EQ(frozen.size(), urls.size());
  for (size_t i = 0; i < urls.size(); i += 61) {
    ASSERT_EQ(frozen.Access(i), urls[i]);
  }
}

// ------------------------------------------------ structural concatenation
//
// WaveletTrie::Concat must yield exactly the image BulkBuild makes from the
// concatenated strings — same shape, labels, betas and node headers — for
// any mix of static and dynamic sources.

std::string ImageBytes(const WaveletTrie& t) {
  storage::ImageWriter w;
  t.SaveImage(w);
  return w.Finish(0, t.size(), 0);
}

std::vector<BitString> Strings(const WaveletTrie& t) {
  std::vector<BitString> out;
  t.ForEachInRange(0, t.size(),
                   [&](size_t, const BitString& s) { out.push_back(s); });
  return out;
}

std::vector<BitString> EncodeAll(const std::vector<std::string>& values) {
  std::vector<BitString> out;
  for (const auto& v : values) out.push_back(ByteCodec::Encode(v));
  return out;
}

/// Random strings over `letters`, each starting with `prefix`.
std::vector<std::string> RandomStrings(size_t n, const std::string& prefix,
                                       const std::string& letters,
                                       uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    std::string s = prefix;
    const size_t len = rng() % 6;
    for (size_t j = 0; j < len; ++j) s.push_back(letters[rng() % letters.size()]);
    out.push_back(std::move(s));
  }
  return out;
}

/// Concat over `parts` equals BulkBuild over `strings` (the parts' strings,
/// concatenated in order), byte for byte.
void ExpectConcatMatches(const std::vector<const TrieWalk*>& parts,
                         const std::vector<std::vector<BitString>>& strings) {
  std::vector<BitString> all;
  for (const auto& part : strings) all.insert(all.end(), part.begin(), part.end());
  const WaveletTrie want = WaveletTrie::BulkBuild(all);
  const WaveletTrie got = WaveletTrie::Concat(parts);
  ASSERT_EQ(got.size(), all.size());
  ASSERT_EQ(ImageBytes(got), ImageBytes(want));
  std::ostringstream a, b;
  got.Save(a);
  want.Save(b);
  ASSERT_EQ(a.str(), b.str());
  for (size_t i = 0; i < all.size(); i += 7) ASSERT_EQ(got.Access(i), all[i]);
}

/// Concat of static tries built from `sources` (empty sources included).
void ExpectStaticConcatMatches(const std::vector<std::vector<BitString>>& sources) {
  std::vector<WaveletTrie> tries;
  for (const auto& src : sources) tries.push_back(WaveletTrie::BulkBuild(src));
  std::vector<WaveletTrie::Walk> walks;
  for (const auto& t : tries) walks.emplace_back(t);
  std::vector<const TrieWalk*> parts;
  for (const auto& w : walks) parts.push_back(&w);
  ExpectConcatMatches(parts, sources);
}

TEST(TrieConcat, KStaticSourcesWithEmptyAndSingletonParts) {
  const std::vector<BitString> one{ByteCodec::Encode("www.d3.com/x")};
  for (size_t k : {1, 2, 3, 5}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<std::vector<BitString>> sources;
      for (size_t i = 0; i < k; ++i) {
        // Every third part is empty and every fifth a single string; the
        // rest share one URL alphabet, so most nodes exist in every part.
        if ((i + seed) % 3 == 0) {
          sources.emplace_back();
        } else if ((i + seed) % 5 == 0) {
          sources.push_back(one);
        } else {
          sources.push_back(MixedWorkload(300 + 100 * i, 50, seed * 10 + i));
        }
      }
      SCOPED_TRACE(testing::Message() << "k=" << k << " seed=" << seed);
      ExpectStaticConcatMatches(sources);
    }
  }
  ExpectStaticConcatMatches({});
  ExpectStaticConcatMatches({{}, {}, {}});
  ExpectStaticConcatMatches({one});
  ExpectStaticConcatMatches({one, one, one});
  ExpectStaticConcatMatches({{}, one, {}});
}

TEST(TrieConcat, DisjointAlphabets) {
  ExpectStaticConcatMatches({
      EncodeAll(RandomStrings(400, "", "abc", 1)),
      EncodeAll(RandomStrings(300, "", "xyz", 2)),
      EncodeAll(RandomStrings(200, "", "019", 3)),
  });
  // The same alphabets interleaved across five parts.
  ExpectStaticConcatMatches({
      EncodeAll(RandomStrings(100, "", "xyz", 4)),
      EncodeAll(RandomStrings(100, "", "abc", 5)),
      EncodeAll(RandomStrings(100, "", "xyz", 6)),
      EncodeAll(RandomStrings(100, "", "019", 7)),
      EncodeAll(RandomStrings(100, "", "abc", 8)),
  });
}

TEST(TrieConcat, NestedAlphabetRunsInMidLabel) {
  // Bit level, by hand: A = {0000 0 000, 0000 1 111} has root label 0000;
  // B = {0000 0 010, 0000 0 011} lies inside A's left subtree. At the root
  // B is still inside its label (a constant run of 0s); in the left child
  // B branches one bit into A's leaf label "000", where A contributes the
  // constant run.
  const auto bits = [](std::initializer_list<const char*> xs) {
    std::vector<BitString> out;
    for (const char* x : xs) out.push_back(BitString::FromString(x));
    return out;
  };
  const auto a = bits({"00000000", "00001111", "00000000"});
  const auto b = bits({"00000010", "00000011", "00000011"});
  ExpectStaticConcatMatches({a, b});
  ExpectStaticConcatMatches({b, a});
  ExpectStaticConcatMatches({b, a, b});
  // URL level: B's strings extend prefixes of A's strings cut in the
  // middle of a byte, inside A's labels and subtrees.
  UrlLogOptions opt;
  opt.num_domains = 30;
  opt.paths_per_domain = 8;
  UrlLogGenerator gen(opt);
  const std::vector<std::string> urls = gen.Take(2000);
  std::vector<std::string> nested;
  std::mt19937_64 rng(11);
  for (size_t i = 0; i < 500; ++i) {
    const std::string& u = urls[rng() % 20];
    nested.push_back(u.substr(0, u.size() / 2) + "~" + std::to_string(rng() % 9));
  }
  ExpectStaticConcatMatches({EncodeAll(urls), EncodeAll(nested)});
  ExpectStaticConcatMatches({EncodeAll(nested), EncodeAll(urls)});
  ExpectStaticConcatMatches(
      {EncodeAll(nested), EncodeAll(urls), EncodeAll(nested)});
}

TEST(TrieConcat, PrefixViolationAcrossSourcesAborts) {
  const WaveletTrie a = WaveletTrie::BulkBuild({BitString::FromString("0110")});
  const WaveletTrie b = WaveletTrie::BulkBuild({BitString::FromString("011")});
  const WaveletTrie::Walk wa(a), wb(b);
  const TrieWalk* parts[] = {&wa, &wb};
  EXPECT_DEATH(WaveletTrie::Concat(parts),
               "not prefix-free");
}

template <typename Trie>
class TrieConcatMemtable : public ::testing::Test {};
TYPED_TEST_SUITE(TrieConcatMemtable, TrieTypes);

TYPED_TEST(TrieConcatMemtable, FreezeAndMixWithStaticSources) {
  // 8195 strings: the root beta ends 3 bits past a chunk seal, so the
  // de-amortized bitvector still has a pending chunk when it is copied.
  const auto seq = MixedWorkload(6000, 2195, 5);
  TypeParam mem;
  std::vector<BitString> kept = seq;
  if constexpr (TypeParam::kFullyDynamic) {
    // Deletes, including whole strings, shrink the alphabet and merge
    // nodes; the concatenation must see the merged trie.
    mem.AppendBatch(seq);
    std::mt19937_64 rng(3);
    for (int i = 0; i < 600; ++i) {
      const size_t pos = rng() % kept.size();
      mem.Delete(pos);
      kept.erase(kept.begin() + static_cast<ptrdiff_t>(pos));
    }
    const BitString gone = kept[0];
    for (size_t pos = kept.size(); pos-- > 0;) {
      if (kept[pos] == gone) {
        mem.Delete(pos);
        kept.erase(kept.begin() + static_cast<ptrdiff_t>(pos));
      }
    }
  } else {
    for (size_t i = 0; i < 100; ++i) mem.Append(seq[i]);
    std::vector<BitSpan> rest;
    for (size_t i = 100; i < seq.size(); ++i) rest.push_back(seq[i].Span());
    mem.AppendBatch(std::span<const BitSpan>(rest));
  }
  ASSERT_EQ(mem.size(), kept.size());
  ASSERT_EQ(ImageBytes(mem.Freeze()), ImageBytes(WaveletTrie::BulkBuild(kept)));

  const typename TypeParam::Walk mw(mem);
  const auto before = MixedWorkload(700, 300, 8);
  const WaveletTrie st = WaveletTrie::BulkBuild(before);
  const WaveletTrie::Walk sw(st);
  TypeParam small;
  const std::vector<BitString> tiny{seq[1], seq[2], seq[1]};
  small.AppendBatch(tiny);
  const typename TypeParam::Walk tw(small);
  TypeParam empty;
  const typename TypeParam::Walk ew(empty);
  ExpectConcatMatches({&sw, &mw}, {before, kept});
  ExpectConcatMatches({&mw, &ew, &sw, &tw, &mw}, {kept, {}, before, tiny, kept});
}

TEST(TrieConcat, SequenceFreezeAndSaveMatchFromEncoded) {
  using Mem = wtrie::Sequence<wtrie::AppendOnly>;
  using Dyn = wtrie::Sequence<wtrie::Dynamic>;
  using Seg = wtrie::Sequence<wtrie::Static>;
  UrlLogGenerator gen;
  const auto urls = gen.Take(5000);
  Mem mem;
  ASSERT_TRUE(mem.AppendBatch(urls).ok());
  const Seg frozen = mem.Freeze();
  EXPECT_EQ(frozen.EncodedBits(), mem.EncodedBits());
  EXPECT_EQ(frozen.SerializeImage(),
            Seg::FromEncoded(mem.ExtractEncoded()).SerializeImage());
  // Delete does not refund the encoded-bits budget, so compare the tries.
  Dyn dyn(urls);
  ASSERT_TRUE(dyn.Delete(17).ok());
  EXPECT_EQ(ImageBytes(dyn.Freeze().trie()),
            ImageBytes(Seg::FromEncoded(dyn.ExtractEncoded()).trie()));
  // Mutable Save writes the frozen image: it reloads under Static with
  // the same bytes.
  std::stringstream ss;
  ASSERT_TRUE(mem.Save(ss).ok());
  auto loaded = Seg::Load(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SerializeImage(), frozen.SerializeImage());
  // StringSequence::Freeze takes the same path.
  StringSequence<AppendOnlyWaveletTrie> ss_mem;
  ss_mem.AppendBatch(urls);
  EXPECT_EQ(ImageBytes(ss_mem.Freeze().trie()),
            ImageBytes(frozen.trie()));
}

TEST(TrieConcat, MappedSegmentsMatchFromEncoded) {
  using Seg = wtrie::Sequence<wtrie::Static>;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wtrie_concat_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  storage::Pager pager;
  std::vector<Seg> segs;
  std::vector<BitString> all;
  for (uint64_t i = 0; i < 4; ++i) {
    UrlLogOptions opt;
    opt.num_domains = 10 + 20 * i;  // growing alphabets, shared prefixes
    opt.seed = i + 1;
    UrlLogGenerator gen(opt);
    const Seg heap(gen.Take(i == 2 ? 1 : 1500 * (i + 1)));
    const fs::path file = dir / ("seg" + std::to_string(i) + ".img");
    {
      std::ofstream out(file, std::ios::binary);
      const std::string img = heap.SerializeImage();
      out.write(img.data(), static_cast<std::streamsize>(img.size()));
    }
    std::string err;
    auto mapped = Seg::LoadImage(pager.Map(file.string(), &err));
    ASSERT_TRUE(mapped.ok()) << err;
    ASSERT_NE(mapped->storage(), nullptr);
    const auto enc = mapped->ExtractEncoded();
    all.insert(all.end(), enc.begin(), enc.end());
    segs.push_back(std::move(mapped).value());
  }
  std::vector<const Seg*> parts;
  uint64_t bits = 0;
  for (const Seg& s : segs) {
    parts.push_back(&s);
    bits += s.EncodedBits();
  }
  const Seg merged = Seg::Concat(parts);
  EXPECT_EQ(merged.EncodedBits(), bits);
  EXPECT_EQ(merged.SerializeImage(), Seg::FromEncoded(all).SerializeImage());
  segs.clear();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wt
