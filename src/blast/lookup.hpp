// Stage-1 word lookup tables.
//
// Following the reference implementation, queries of one block are
// concatenated (sentinel-separated) into a single coordinate space and a
// lookup table is built over that space; the database is then streamed
// past the table ("builds a word lookup table out of them, and streams the
// database past this lookup table").
//
// Nucleotide: exact words of length `word_size` (default 11), packed 2 bits
// per base. The table is compact, sized by the block rather than by the
// 4^w word space: a 4^w-bit presence bitmap (512 KB at w=11) rejects absent
// words with one load, and the block's sorted unique words index a CSR
// array of query offsets. Building it costs O(block log block), not O(4^w).
//
// Protein: words of length 3 with BLOSUM62 neighbourhood expansion -- a
// query word's bucket also receives every word scoring >= threshold T
// against it (default T=11), which is what lets protein BLAST reach remote
// homologies. threshold <= 0 selects exact-match seeding only (the mode
// the paper notes the DeCypher FPGA accelerator uses by default).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "blast/score.hpp"

namespace mrbio::blast {

/// Compact nucleotide word table over a concatenated query block.
class NucLookup {
 public:
  static constexpr int kMinWord = 4;
  static constexpr int kMaxWord = 13;

  NucLookup(std::span<const std::uint8_t> concat_queries, int word_size);

  int word_size() const { return word_size_; }

  /// Query offsets whose word equals `packed` (2-bit packed, most recent
  /// base in the low bits as produced by the scanner's rolling update), in
  /// ascending order.
  std::span<const std::uint32_t> hits(std::uint32_t packed) const {
    if (((present_[packed >> 6] >> (packed & 63)) & 1) == 0) return {};
    const auto k = static_cast<std::size_t>(
        std::lower_bound(words_.begin(), words_.end(), packed) - words_.begin());
    return {positions_.data() + starts_[k], starts_[k + 1] - starts_[k]};
  }

  std::size_t total_positions() const { return positions_.size(); }

 private:
  int word_size_;
  std::vector<std::uint64_t> present_;    ///< bit per word of the 4^w space
  std::vector<std::uint32_t> words_;      ///< distinct words in the block, sorted
  std::vector<std::uint32_t> starts_;     ///< CSR bounds per word, size words_ + 1
  std::vector<std::uint32_t> positions_;  ///< query offsets grouped by word
};

/// Protein 3-mer lookup with scored neighbourhood.
class ProtLookup {
 public:
  static constexpr int kWordSize = 3;
  static constexpr std::uint32_t kIndexSize = 20u * 20u * 20u;

  /// threshold > 0: include neighbourhood words scoring >= threshold.
  /// threshold <= 0: exact words only.
  ProtLookup(std::span<const std::uint8_t> concat_queries, int threshold,
             const Scorer& scorer);

  /// Packs three residue codes (< 20 each) into a table index.
  static std::uint32_t pack(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
    return (static_cast<std::uint32_t>(a) * 20u + b) * 20u + c;
  }

  std::span<const std::uint32_t> hits(std::uint32_t packed) const {
    return {positions_.data() + starts_[packed],
            starts_[packed + 1] - starts_[packed]};
  }

  std::size_t total_positions() const { return positions_.size(); }

 private:
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> positions_;
};

}  // namespace mrbio::blast
