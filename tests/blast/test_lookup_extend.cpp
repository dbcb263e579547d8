// Tests for the lookup tables and both extension stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "blast/extend.hpp"
#include "blast/lookup.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace mrbio::blast {
namespace {

std::uint32_t pack_word(std::string_view w) {
  std::uint32_t packed = 0;
  for (const std::uint8_t c : encode_dna(w)) packed = (packed << 2) | c;
  return packed;
}

TEST(NucLookup, FindsAllOccurrences) {
  const auto seq = encode_dna("ACGTACGTAA");
  NucLookup lut(seq, 4);
  const auto hits = lut.hits(pack_word("ACGT"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 4u);
  EXPECT_TRUE(lut.hits(pack_word("GGGG")).empty());
}

TEST(NucLookup, AmbiguityBreaksWords) {
  const auto seq = encode_dna("ACGTNACGT");
  NucLookup lut(seq, 4);
  const auto hits = lut.hits(pack_word("ACGT"));
  ASSERT_EQ(hits.size(), 2u);  // the word straddling N is not indexed
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 5u);
  EXPECT_TRUE(lut.hits(pack_word("GTNA") & 0xFF).empty());
}

TEST(NucLookup, SentinelBreaksWords) {
  auto seq = encode_dna("ACGT");
  seq.push_back(kSentinel);
  const auto more = encode_dna("ACGT");
  seq.insert(seq.end(), more.begin(), more.end());
  NucLookup lut(seq, 4);
  EXPECT_EQ(lut.hits(pack_word("ACGT")).size(), 2u);
  EXPECT_EQ(lut.total_positions(), 2u);
}

TEST(NucLookup, WordSizeBoundsEnforced) {
  const auto seq = encode_dna("ACGT");
  EXPECT_THROW(NucLookup(seq, 3), InputError);
  EXPECT_THROW(NucLookup(seq, 14), InputError);
}

/// Brute-force word index: every clean window's packed word -> its offsets,
/// ascending.
std::map<std::uint32_t, std::vector<std::uint32_t>> brute_force_words(
    const std::vector<std::uint8_t>& seq, int w) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> out;
  for (std::size_t i = 0; i + static_cast<std::size_t>(w) <= seq.size(); ++i) {
    bool clean = true;
    std::uint32_t code = 0;
    for (int k = 0; k < w; ++k) {
      const std::uint8_t c = seq[i + static_cast<std::size_t>(k)];
      clean &= c < 4;
      code = (code << 2) | (c & 3u);
    }
    if (clean) out[code].push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

/// Random block with ambiguity codes, sentinels, repeated segments (so
/// words have several offsets) and, optionally, all-A and all-T runs.
std::vector<std::uint8_t> random_block(Rng& rng, std::size_t n, int w, bool edge_runs) {
  std::vector<std::uint8_t> seq(n);
  for (auto& c : seq) {
    const double u = rng.uniform();
    if (u < 0.02) {
      c = kSentinel;
    } else if (u < 0.05) {
      c = kDnaAmbig;
    } else {
      c = static_cast<std::uint8_t>(rng.below(4));
    }
  }
  for (int copy = 0; copy < 8; ++copy) {
    const std::size_t len = 2 * static_cast<std::size_t>(w);
    const std::size_t from = rng.below(n - len);
    const std::size_t to = rng.below(n - len);
    std::copy_n(seq.begin() + static_cast<std::ptrdiff_t>(from), len,
                seq.begin() + static_cast<std::ptrdiff_t>(to));
  }
  if (edge_runs) {
    // All-A runs near the start and in the middle, an all-T run near the end.
    const auto run = static_cast<std::ptrdiff_t>(w + 3);
    std::fill_n(seq.begin() + 10, run, std::uint8_t{0});
    std::fill_n(seq.begin() + static_cast<std::ptrdiff_t>(n / 2), run, std::uint8_t{0});
    std::fill_n(seq.end() - run - 10, run, std::uint8_t{3});
  }
  return seq;
}

TEST(NucLookup, CountsMatchBruteForce) {
  // Property: total indexed positions == number of clean windows.
  {
    const auto seq = encode_dna("ACGTACGTNACGTTTTACGTA");
    const int w = 5;
    NucLookup lut(seq, w);
    std::size_t expected = 0;
    for (const auto& [code, offsets] : brute_force_words(seq, w)) expected += offsets.size();
    EXPECT_EQ(lut.total_positions(), expected);
  }

  // Differential: on random blocks, every word present in the block yields
  // exactly the brute-force offsets in ascending order, absent words yield
  // nothing, and the extreme words 0 (all A) and 4^w - 1 (all T) behave like
  // any other.
  Rng rng(11);
  for (const int w : {4, 7, 11, 13}) {
    const std::uint32_t all_t = static_cast<std::uint32_t>((std::uint64_t{1} << (2 * w)) - 1);
    for (int iter = 0; iter < 6; ++iter) {
      const bool edge_runs = iter % 2 == 0;
      const auto seq = random_block(rng, 1500 + rng.below(1500), w, edge_runs);
      const NucLookup lut(seq, w);
      const auto want = brute_force_words(seq, w);

      std::size_t expected = 0;
      for (const auto& [code, offsets] : want) {
        const auto got = lut.hits(code);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), offsets)
            << "w=" << w << " code=" << code;
        expected += offsets.size();
      }
      EXPECT_EQ(lut.total_positions(), expected) << "w=" << w;

      for (int probe = 0; probe < 2000; ++probe) {
        const auto code = static_cast<std::uint32_t>(rng.below(std::uint64_t{all_t} + 1));
        if (want.count(code) == 0) {
          EXPECT_TRUE(lut.hits(code).empty()) << "w=" << w << " code=" << code;
        }
      }
      for (const std::uint32_t code : {std::uint32_t{0}, all_t}) {
        const auto it = want.find(code);
        const auto got = lut.hits(code);
        if (edge_runs) {
          ASSERT_TRUE(it != want.end()) << "w=" << w << " code=" << code;
        }
        if (it == want.end()) {
          EXPECT_TRUE(got.empty()) << "w=" << w << " code=" << code;
        } else {
          EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), it->second)
              << "w=" << w << " code=" << code;
        }
      }
    }
  }
}

TEST(ProtLookup, ExactModeIndexesOnlyOwnWords) {
  const auto seq = encode_protein("WWWAAA");
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, /*threshold=*/0, sc);
  const auto www = encode_protein("WWW");
  const auto hits = lut.hits(ProtLookup::pack(www[0], www[1], www[2]));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  // In exact mode, a near-neighbour word like WWY finds nothing.
  const auto wwy = encode_protein("WWY");
  EXPECT_TRUE(lut.hits(ProtLookup::pack(wwy[0], wwy[1], wwy[2])).empty());
}

TEST(ProtLookup, NeighbourhoodContainsHighScoringWords) {
  const auto seq = encode_protein("WWW");
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, /*threshold=*/11, sc);
  // WWW vs WWW scores 33 >= 11: own word present.
  const auto www = encode_protein("WWW");
  EXPECT_EQ(lut.hits(ProtLookup::pack(www[0], www[1], www[2])).size(), 1u);
  // WWY scores 11+11+2(W vs Y) = 24 >= 11: neighbour present.
  const auto wwy = encode_protein("WWY");
  EXPECT_EQ(lut.hits(ProtLookup::pack(wwy[0], wwy[1], wwy[2])).size(), 1u);
  // PPP vs WWW scores 3*(-4) < 11: absent.
  const auto ppp = encode_protein("PPP");
  EXPECT_TRUE(lut.hits(ProtLookup::pack(ppp[0], ppp[1], ppp[2])).empty());
}

TEST(ProtLookup, NeighbourhoodMatchesBruteForce) {
  // Property: for a single query word, the bucket set equals the set of all
  // 3-mers scoring >= T against it.
  const auto seq = encode_protein("LQR");
  const Scorer sc = Scorer::blosum62();
  const int threshold = 12;
  ProtLookup lut(seq, threshold, sc);
  std::size_t expected = 0;
  for (std::uint8_t a = 0; a < kProtAlphabet; ++a) {
    for (std::uint8_t b = 0; b < kProtAlphabet; ++b) {
      for (std::uint8_t c = 0; c < kProtAlphabet; ++c) {
        const int s = sc.score(seq[0], a) + sc.score(seq[1], b) + sc.score(seq[2], c);
        const bool in_table = !lut.hits(ProtLookup::pack(a, b, c)).empty();
        EXPECT_EQ(in_table, s >= threshold);
        expected += (s >= threshold) ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(lut.total_positions(), expected);
}

TEST(ProtLookup, AmbiguousResiduesNotIndexed) {
  auto seq = encode_protein("AXA");  // X in the middle: no valid word
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, 11, sc);
  EXPECT_EQ(lut.total_positions(), 0u);
}

// ---- ungapped extension ----

TEST(ExtendUngapped, PerfectMatchExtendsFully) {
  const auto q = encode_dna("AAACGTACGTCCC");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 3, 3, 4, sc, 10);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.q_end, q.size());
  EXPECT_EQ(seg.score, static_cast<int>(q.size()));
}

TEST(ExtendUngapped, StopsAtMismatchRun) {
  //            0123456789
  const auto q = encode_dna("ACGTACGTTTTTTTTT");
  const auto s = encode_dna("ACGTACGTGGGGGGGG");
  const Scorer sc = Scorer::dna(1, -3);
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 4);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.q_end, 8u);
  EXPECT_EQ(seg.score, 8);
}

TEST(ExtendUngapped, ExtendsThroughIsolatedMismatch) {
  const auto q = encode_dna("ACGTACGTAACGTACGT");
  auto s = q;
  s[8] = static_cast<std::uint8_t>((s[8] + 1) % 4);  // single mismatch mid-way
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 10);
  EXPECT_EQ(seg.q_end, q.size());
  EXPECT_EQ(seg.score, static_cast<int>(q.size()) - 1 - 2);
}

TEST(ExtendUngapped, LeftExtensionWorks) {
  const auto q = encode_dna("CCCCACGT");
  const auto s = encode_dna("CCCCACGT");
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 4, 4, 4, sc, 10);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.score, 8);
}

TEST(ExtendUngapped, SentinelHardStops) {
  auto q = encode_dna("ACGTACGT");
  q.push_back(kSentinel);
  const auto more = encode_dna("ACGTACGT");
  q.insert(q.end(), more.begin(), more.end());
  const auto s = encode_dna("ACGTACGTACGTACGTACGT");
  const Scorer sc = Scorer::dna(1, -2);
  // Seed within the first query entry; extension must not cross into the
  // second even though the subject continues matching.
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 1000);
  EXPECT_LE(seg.q_end, 8u);
}

TEST(ExtendUngapped, BestAnchorIsInsideSegment) {
  const auto q = encode_dna("ACGTACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 4, 4, 4, sc, 10);
  EXPECT_GE(seg.q_best, seg.q_start);
  EXPECT_LT(seg.q_best, seg.q_end);
  EXPECT_EQ(seg.q_best - seg.q_start, seg.s_best - seg.s_start);
}

// ---- gapped extension ----

TEST(ExtendGapped, ExactSequencesAlignEndToEnd) {
  const auto q = encode_dna("ACGTACGTACGTACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2, 2, 1);
  const auto aln = extend_gapped(q, s, 10, 10, sc, 20);
  EXPECT_EQ(aln.q_start, 0u);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_start, 0u);
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.score, static_cast<int>(q.size()));
  EXPECT_EQ(aln.identities, q.size());
  EXPECT_EQ(aln.align_len, q.size());
  EXPECT_EQ(aln.gaps, 0u);
}

TEST(ExtendGapped, BridgesASingleDeletion) {
  // Subject is missing 2 bases from the middle of the query.
  const std::string left = "ACGGTCAGATCG";
  const std::string right = "TTCAGGACCTGA";
  const auto q = encode_dna(left + "GG" + right);
  const auto s = encode_dna(left + right);
  const Scorer sc = Scorer::dna(1, -3, 2, 1);  // gap of len 2 costs 2+2*1=4
  const auto aln = extend_gapped(q, s, 2, 2, sc, 16);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.gaps, 2u);
  EXPECT_EQ(aln.identities, left.size() + right.size());
  EXPECT_EQ(aln.align_len, q.size());
  EXPECT_EQ(aln.score, static_cast<int>(left.size() + right.size()) - 2 - 2 * 1);
}

TEST(ExtendGapped, BridgesAnInsertionInSubject) {
  const std::string left = "ACGGTCAGATCG";
  const std::string right = "TTCAGGACCTGA";
  const auto q = encode_dna(left + right);
  const auto s = encode_dna(left + "AAA" + right);
  const Scorer sc = Scorer::dna(1, -3, 2, 1);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 20);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.gaps, 3u);
  EXPECT_EQ(aln.score, static_cast<int>(left.size() + right.size()) - 2 - 3);
}

TEST(ExtendGapped, XdropPreventsCrossingLongJunk) {
  // Two matching segments separated by 30 junk bases; with a small X-drop
  // the alignment must stay in the seeded segment.
  const std::string seg1 = "ACGGTCAGATCGAT";
  const auto q = encode_dna(seg1 + std::string(30, 'T') + seg1);
  const auto s = encode_dna(seg1 + std::string(30, 'G') + seg1);
  const Scorer sc = Scorer::dna(1, -3, 5, 2);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 8);
  EXPECT_EQ(aln.q_start, 0u);
  EXPECT_EQ(aln.q_end, seg1.size());
  EXPECT_EQ(aln.score, static_cast<int>(seg1.size()));
}

TEST(ExtendGapped, ProteinAlignmentWithBlosum) {
  const auto q = encode_protein("MKVLAAGWQERTYHD");
  const auto s = encode_protein("MKVLAAGWQERTYHD");
  const Scorer sc = Scorer::blosum62();
  const auto aln = extend_gapped(q, s, 7, 7, sc, 30);
  EXPECT_EQ(aln.identities, q.size());
  int self_score = 0;
  for (const auto c : q) self_score += sc.score(c, c);
  EXPECT_EQ(aln.score, self_score);
}

TEST(ExtendGapped, SeedAtSequenceEdges) {
  const auto q = encode_dna("ACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2, 2, 1);
  const auto a0 = extend_gapped(q, s, 0, 0, sc, 10);
  EXPECT_EQ(a0.score, 8);
  const auto a7 = extend_gapped(q, s, 7, 7, sc, 10);
  EXPECT_EQ(a7.score, 8);
}

TEST(ExtendGapped, EditOpsSpanCoordinates) {
  const auto q = encode_dna("ACGGTCAGATCGAATTCAGGACCTGA");
  const auto s = encode_dna("ACGGTCAGATCGTTCAGGACCTGA");
  const Scorer sc = Scorer::dna(1, -3, 2, 1);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 16);
  std::size_t q_span = 0;
  std::size_t s_span = 0;
  for (const auto& op : aln.ops) {
    if (op.type != EditOp::Type::InsertS) q_span += op.len;
    if (op.type != EditOp::Type::InsertQ) s_span += op.len;
  }
  EXPECT_EQ(q_span, aln.q_end - aln.q_start);
  EXPECT_EQ(s_span, aln.s_end - aln.s_start);
}

// ---- gapped extension: bounded leftward window ----

/// The gapped extension as it was before the leftward window was bounded:
/// the whole query and subject prefixes are reversed and extended. A seed
/// at (0, 0) makes extend_gapped a pure rightward pass over what it is
/// given, so the two passes are assembled from it here.
GappedAlignment whole_prefix_reference(const std::vector<std::uint8_t>& query,
                                       const std::vector<std::uint8_t>& subject,
                                       std::size_t q_seed, std::size_t s_seed,
                                       const Scorer& scorer, int xdrop) {
  const std::vector<std::uint8_t> q_right(query.begin() + static_cast<std::ptrdiff_t>(q_seed),
                                          query.end());
  const std::vector<std::uint8_t> s_right(
      subject.begin() + static_cast<std::ptrdiff_t>(s_seed), subject.end());
  const std::vector<std::uint8_t> q_left(query.rend() - static_cast<std::ptrdiff_t>(q_seed),
                                         query.rend());
  const std::vector<std::uint8_t> s_left(
      subject.rend() - static_cast<std::ptrdiff_t>(s_seed), subject.rend());
  const GappedAlignment right = extend_gapped(q_right, s_right, 0, 0, scorer, xdrop);
  const GappedAlignment left = extend_gapped(q_left, s_left, 0, 0, scorer, xdrop);

  GappedAlignment out;
  out.score = left.score + right.score;
  out.q_start = q_seed - left.q_end;
  out.s_start = s_seed - left.s_end;
  out.q_end = q_seed + right.q_end;
  out.s_end = s_seed + right.s_end;
  out.ops.assign(left.ops.rbegin(), left.ops.rend());
  for (const EditOp& op : right.ops) {
    if (!out.ops.empty() && out.ops.back().type == op.type) {
      out.ops.back().len += op.len;
    } else {
      out.ops.push_back(op);
    }
  }
  out.identities = left.identities + right.identities;
  out.align_len = left.align_len + right.align_len;
  out.gaps = left.gaps + right.gaps;
  return out;
}

void expect_same_alignment(const GappedAlignment& got, const GappedAlignment& want,
                           const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.q_start, want.q_start) << what;
  EXPECT_EQ(got.q_end, want.q_end) << what;
  EXPECT_EQ(got.s_start, want.s_start) << what;
  EXPECT_EQ(got.s_end, want.s_end) << what;
  EXPECT_EQ(got.identities, want.identities) << what;
  EXPECT_EQ(got.align_len, want.align_len) << what;
  EXPECT_EQ(got.gaps, want.gaps) << what;
  ASSERT_EQ(got.ops.size(), want.ops.size()) << what;
  for (std::size_t k = 0; k < got.ops.size(); ++k) {
    EXPECT_EQ(got.ops[k].type, want.ops[k].type) << what << " op " << k;
    EXPECT_EQ(got.ops[k].len, want.ops[k].len) << what << " op " << k;
  }
}

/// Subject bytes left of the seed that the leftward pass may read:
/// q_seed + j0 + 1, where j0 is the last row-0 column whose gap cost
/// (gap_open + j * gap_extend) stays within xdrop.
std::size_t left_window(const Scorer& scorer, int xdrop, std::size_t q_seed,
                        std::size_t s_seed) {
  std::size_t j0 = 0;
  while (j0 < s_seed && scorer.gap_open() + static_cast<int>(j0 + 1) * scorer.gap_extend() <=
                            xdrop) {
    ++j0;
  }
  return std::min(s_seed, q_seed + j0 + 1);
}

/// A query and a long random subject holding a mutated copy of it (with a
/// few indels) deep inside, seeded on a genuine match.
struct DeepSeed {
  std::vector<std::uint8_t> query, subject;
  std::size_t q_seed = 0, s_seed = 0;
};

DeepSeed deep_seed(Rng& rng, bool protein) {
  const std::uint64_t alphabet = protein ? kProtAlphabet : 4;
  auto residue = [&] { return static_cast<std::uint8_t>(rng.below(alphabet)); };
  DeepSeed d;
  d.query.resize(120 + rng.below(200));
  for (auto& c : d.query) c = residue();
  std::vector<std::uint8_t> copy;
  for (const std::uint8_t c : d.query) {
    const double u = rng.uniform();
    if (u < 0.01) continue;                     // deletion
    if (u < 0.02) copy.push_back(residue());    // insertion
    copy.push_back(u < 0.12 ? residue() : c);   // substitution or match
  }
  const std::size_t lead = 12'000 + rng.below(8'000);
  d.subject.resize(lead);
  for (auto& c : d.subject) c = residue();
  d.subject.insert(d.subject.end(), copy.begin(), copy.end());
  for (int k = 0; k < 3'000; ++k) d.subject.push_back(residue());
  d.q_seed = d.query.size() / 2;
  d.s_seed = lead + std::min(d.q_seed, copy.size() - 1);
  d.subject[d.s_seed] = d.query[d.q_seed];  // genuine residue match
  return d;
}

TEST(ExtendGapped, BoundedLeftWindowMatchesWholePrefix) {
  Rng rng(4242);
  const Scorer dna = Scorer::dna();
  const Scorer prot = Scorer::blosum62();
  for (const bool protein : {false, true}) {
    const Scorer& sc = protein ? prot : dna;
    const int below_open = sc.gap_open() + sc.gap_extend() - 1;
    for (const int xdrop : {below_open, 30, 1 << 20}) {
      for (int iter = 0; iter < 3; ++iter) {
        DeepSeed d = deep_seed(rng, protein);
        ASSERT_GT(d.s_seed, 20 * d.q_seed);
        const std::string what = std::string(protein ? "blosum62" : "dna") +
                                 " xdrop=" + std::to_string(xdrop) +
                                 " iter=" + std::to_string(iter);
        const GappedAlignment want =
            whole_prefix_reference(d.query, d.subject, d.q_seed, d.s_seed, sc, xdrop);
        const GappedAlignment got = extend_gapped(d.query, d.subject, d.q_seed, d.s_seed, sc,
                                                  xdrop);
        expect_same_alignment(got, want, what);
        EXPECT_GE(got.score, sc.score(d.query[d.q_seed], d.subject[d.s_seed])) << what;

        // Poison: nothing left of the window may influence the result.
        const std::size_t window = left_window(sc, xdrop, d.q_seed, d.s_seed);
        for (std::size_t k = 0; k < d.s_seed - window; ++k) {
          d.subject[k] = static_cast<std::uint8_t>(rng.below(protein ? kProtAlphabet : 4));
        }
        const GappedAlignment poisoned =
            extend_gapped(d.query, d.subject, d.q_seed, d.s_seed, sc, xdrop);
        expect_same_alignment(poisoned, got, what + " poisoned");
      }
    }
  }
}

}  // namespace
}  // namespace mrbio::blast
