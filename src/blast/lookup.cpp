#include "blast/lookup.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::blast {

NucLookup::NucLookup(std::span<const std::uint8_t> concat, int word_size)
    : word_size_(word_size) {
  MRBIO_REQUIRE(word_size >= kMinWord && word_size <= kMaxWord,
                "nucleotide word size must be in [", kMinWord, ", ", kMaxWord, "], got ",
                word_size);
  const std::size_t nwords = std::size_t{1} << (2 * word_size);
  const std::uint32_t mask = static_cast<std::uint32_t>(nwords - 1);
  const simd::Kernels& kern = simd::kernels();

  // Scan the concatenation in 48-byte blocks through the word-scan kernel:
  // codes[i] is the rolling packed word ending at block position i, and a
  // set valid bit means all word_size bases ending there are unambiguous
  // (the kernel carries word/history across blocks). A word is indexable
  // only if it's valid — garbage codes at invalid positions are never read.
  // Each valid word becomes one (word << 32 | offset of its first base)
  // key, so sorting the keys groups offsets by word, ascending within each.
  constexpr std::size_t kBlock = 48;
  std::uint32_t codes[kBlock];
  std::uint64_t valid = 0;
  std::uint32_t word = 0;
  std::uint64_t hist = 0;
  std::vector<std::uint64_t> keys;
  keys.reserve(concat.size());
  for (std::size_t base = 0; base < concat.size(); base += kBlock) {
    const std::size_t m = std::min(kBlock, concat.size() - base);
    kern.dna_words(concat.data() + base, m, word_size, mask, &word, &hist, codes, &valid);
    while (valid != 0) {
      const int i = std::countr_zero(valid);
      valid &= valid - 1;
      const std::size_t pos =
          base + static_cast<std::size_t>(i) + 1 - static_cast<std::size_t>(word_size);
      keys.push_back((std::uint64_t{codes[i]} << 32) | pos);
    }
  }
  std::sort(keys.begin(), keys.end());

  present_.assign(nwords / 64, 0);
  positions_.resize(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto code = static_cast<std::uint32_t>(keys[k] >> 32);
    if (words_.empty() || words_.back() != code) {
      words_.push_back(code);
      starts_.push_back(static_cast<std::uint32_t>(k));
      present_[code >> 6] |= std::uint64_t{1} << (code & 63);
    }
    positions_[k] = static_cast<std::uint32_t>(keys[k]);
  }
  starts_.push_back(static_cast<std::uint32_t>(keys.size()));
}

ProtLookup::ProtLookup(std::span<const std::uint8_t> concat, int threshold,
                       const Scorer& scorer) {
  MRBIO_REQUIRE(scorer.type() == SeqType::Protein, "ProtLookup needs a protein scorer");

  // Per-position row maxima of the score matrix, for pruning the
  // neighbourhood enumeration.
  std::array<int, kProtAlphabet> row_max{};
  for (int a = 0; a < kProtAlphabet; ++a) {
    int mx = kSentinelScore;
    for (int b = 0; b < kProtAlphabet; ++b) {
      mx = std::max(mx, scorer.score(static_cast<std::uint8_t>(a),
                                     static_cast<std::uint8_t>(b)));
    }
    row_max[static_cast<std::size_t>(a)] = mx;
  }

  // Collect (bucket, position) pairs, then bucket-sort into the flat
  // table. The word-scan kernel yields packed codes plus a validity mask
  // per 64-position block (a set bit means all three residues are
  // standard); only the neighbourhood enumeration stays scalar.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  if (concat.size() >= kWordSize) {
    const simd::Kernels& kern = simd::kernels();
    constexpr std::size_t kBlock = 64;
    std::uint16_t codes[kBlock];
    std::uint64_t valid = 0;
    const std::size_t last = concat.size() - kWordSize;  // last word start
    for (std::size_t base = 0; base <= last; base += kBlock) {
      const std::size_t m = std::min(kBlock, last - base + 1);
      kern.prot_words(concat.data() + base, m, codes, &valid);
      while (valid != 0) {
        const int bi = std::countr_zero(valid);
        valid &= valid - 1;
        const std::size_t i = base + static_cast<std::size_t>(bi);
        const auto pos = static_cast<std::uint32_t>(i);

        if (threshold <= 0) {
          entries.emplace_back(codes[bi], pos);
          continue;
        }

        const std::uint8_t q0 = concat[i];
        const std::uint8_t q1 = concat[i + 1];
        const std::uint8_t q2 = concat[i + 2];
        const int max1 = row_max[q1];
        const int max2 = row_max[q2];
        for (std::uint8_t w0 = 0; w0 < kProtAlphabet; ++w0) {
          const int s0 = scorer.score(q0, w0);
          if (s0 + max1 + max2 < threshold) continue;
          for (std::uint8_t w1 = 0; w1 < kProtAlphabet; ++w1) {
            const int s01 = s0 + scorer.score(q1, w1);
            if (s01 + max2 < threshold) continue;
            for (std::uint8_t w2 = 0; w2 < kProtAlphabet; ++w2) {
              if (s01 + scorer.score(q2, w2) >= threshold) {
                entries.emplace_back(pack(w0, w1, w2), pos);
              }
            }
          }
        }
      }
    }
  }

  std::vector<std::uint32_t> counts(kIndexSize + 1, 0);
  for (const auto& [bucket, pos] : entries) ++counts[bucket];
  starts_.assign(kIndexSize + 1, 0);
  for (std::uint32_t b = 0; b < kIndexSize; ++b) starts_[b + 1] = starts_[b] + counts[b];
  positions_.resize(entries.size());
  std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  for (const auto& [bucket, pos] : entries) positions_[cursor[bucket]++] = pos;
}

}  // namespace mrbio::blast
