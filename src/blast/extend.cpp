#include "blast/extend.hpp"

#include <algorithm>
#include <climits>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::blast {

UngappedSegment extend_ungapped(std::span<const std::uint8_t> query,
                                std::span<const std::uint8_t> subject, std::size_t q_pos,
                                std::size_t s_pos, std::size_t word_len,
                                const Scorer& scorer, int xdrop) {
  MRBIO_CHECK(q_pos + word_len <= query.size() && s_pos + word_len <= subject.size(),
              "seed out of range");
  UngappedSegment seg;

  // Score the seed word itself.
  int score = 0;
  int best = 0;
  std::size_t best_q_end = q_pos;
  std::size_t best_point = 0;  // offset of best column within the seed/right scan
  for (std::size_t k = 0; k < word_len; ++k) {
    score += scorer.score(query[q_pos + k], subject[s_pos + k]);
    if (score > best) {
      best = score;
      best_q_end = q_pos + k + 1;
    }
  }

  const simd::Kernels& kern = simd::kernels();

  // Rightward X-drop extension.
  {
    const std::size_t n = std::min(query.size() - (q_pos + word_len),
                                   subject.size() - (s_pos + word_len));
    const simd::DiagScanResult r =
        kern.diag_scan(query.data() + q_pos + word_len, subject.data() + s_pos + word_len, n,
                       false, scorer.table(), score, best, xdrop);
    if (r.best > best) {
      best = r.best;
      best_q_end = q_pos + word_len + r.best_len;
    }
  }
  seg.q_end = best_q_end;
  seg.s_end = s_pos + (best_q_end - q_pos);
  const int right_best = best;

  // Leftward X-drop extension from just before the seed.
  int left_gain = 0;
  {
    const std::size_t n = std::min(q_pos, s_pos);
    const simd::DiagScanResult r =
        kern.diag_scan(query.data() + q_pos, subject.data() + s_pos, n, true, scorer.table(),
                       0, 0, xdrop);
    seg.q_start = q_pos - r.best_len;
    seg.s_start = s_pos - r.best_len;
    left_gain = r.best;
  }

  seg.score = right_best + left_gain;
  // Anchor for the gapped stage: the first column of the best-scoring
  // right-hand point (a guaranteed aligned residue pair).
  best_point = best_q_end > q_pos ? best_q_end - 1 : q_pos;
  seg.q_best = best_point;
  seg.s_best = s_pos + (best_point - q_pos);
  return seg;
}

namespace {

constexpr int kNegInf = simd::kNegInf;  // == INT_MIN / 4, shared with the kernels

// Traceback flags per cell.
constexpr std::uint8_t kHDiag = 0;
constexpr std::uint8_t kHFromE = 1;
constexpr std::uint8_t kHFromF = 2;
constexpr std::uint8_t kHStart = 3;
constexpr std::uint8_t kHMask = 3;
constexpr std::uint8_t kEExtend = 1 << 2;  ///< E came from E (else from H)
constexpr std::uint8_t kFExtend = 1 << 3;  ///< F came from F (else from H)

struct TbRow {
  std::size_t lo = 0;
  std::vector<std::uint8_t> tb;
};

struct DirResult {
  int score = 0;
  std::size_t a_len = 0;  ///< residues of `a` consumed by the best alignment
  std::size_t b_len = 0;
  std::vector<EditOp> ops;  ///< in forward order of (a, b) as passed in
};

void push_op(std::vector<EditOp>& ops, EditOp::Type t) {
  if (!ops.empty() && ops.back().type == t) {
    ++ops.back().len;
  } else {
    ops.push_back(EditOp{t, 1});
  }
}

/// Row-0 score of column j of extend_dir: a gap of length j in `a`.
int row0_score(const Scorer& scorer, std::size_t j) {
  if (j == 0) return 0;
  return -(scorer.gap_open() + static_cast<int>(j) * scorer.gap_extend());
}

/// Number of row-0 columns extend_dir keeps against a `b` of length
/// `b_len`: the row stops at the first column whose gap cost exceeds
/// `xdrop` (the best score is still 0 there). Every later row can reach at
/// most one column further than the row before it, so row i never passes
/// column row0_columns(...) - 1 + i.
std::size_t row0_columns(const Scorer& scorer, int xdrop, std::size_t b_len) {
  std::size_t n = 0;
  while (n <= b_len && row0_score(scorer, n) >= -xdrop) ++n;
  return n;
}

/// One-directional gapped X-drop DP of `a` against `b` anchored at their
/// starts; returns the best-scoring extension with traceback.
DirResult extend_dir(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
                     const Scorer& scorer, int xdrop) {
  const int open_first = scorer.gap_open() + scorer.gap_extend();  ///< cost of gap length 1
  const int ext = scorer.gap_extend();
  const simd::Kernels& kern = simd::kernels();

  // Per-row F/D candidates, precomputed by the dispatched kernel. The
  // sequential E-chain, pruning and traceback below stay scalar and are
  // shared by every ISA level, which is what keeps gapped alignments
  // bit-identical across --simd settings.
  std::vector<int> d_buf;
  std::vector<int> f_buf;
  std::vector<std::uint8_t> fflag_buf;

  std::vector<TbRow> rows;
  int best = 0;
  std::size_t best_i = 0;
  std::size_t best_j = 0;

  // Row 0: gaps in `a` only.
  std::vector<int> h_prev;
  std::vector<int> e_prev_unused;  // E is an intra-row state; F crosses rows
  std::vector<int> f_prev;
  std::size_t lo_prev = 0;
  {
    TbRow row0;
    row0.lo = 0;
    const std::size_t n0 = row0_columns(scorer, xdrop, b.size());
    for (std::size_t j = 0; j < n0; ++j) {
      h_prev.push_back(row0_score(scorer, j));
      f_prev.push_back(kNegInf);
      std::uint8_t tb = (j == 0) ? kHStart : kHFromE;
      if (j > 1) tb |= kEExtend;
      row0.tb.push_back(tb);
    }
    rows.push_back(std::move(row0));
    lo_prev = 0;
  }

  for (std::size_t i = 1; i <= a.size(); ++i) {
    if (h_prev.empty()) break;
    const std::size_t lo = lo_prev;                          // F/diag reach
    const std::size_t hi_prev = lo_prev + h_prev.size() - 1;  // last stored j of prev row
    const std::size_t hi = std::min(hi_prev + 1, b.size());
    if (lo > hi) break;

    TbRow row;
    row.lo = lo;
    std::vector<int> h_cur;
    std::vector<int> f_cur;
    const std::size_t m = hi - lo + 1;
    h_cur.reserve(m);
    f_cur.reserve(m);

    // Vertical (gap in b) and diagonal candidates for the whole row: both
    // read only the previous row, so they vectorize. lo == lo_prev, so
    // window offsets t = j - lo line up with the previous row directly.
    d_buf.resize(m);
    f_buf.resize(m);
    fflag_buf.resize(m);
    const int* score_row = scorer.table() + static_cast<std::size_t>(a[i - 1]) * kScoreDim;
    kern.gapped_row_prep(h_prev.data(), f_prev.data(), h_prev.size(), b.data() + lo,
                         score_row, open_first, ext, m, d_buf.data(), f_buf.data(),
                         fflag_buf.data());

    int e_run = kNegInf;  // E state carried left-to-right within the row
    bool any_alive = false;
    std::size_t first_alive = 0;
    std::size_t last_alive = 0;

    for (std::size_t j = lo; j <= hi; ++j) {
      const std::size_t t = j - lo;
      int f = f_buf[t];
      std::uint8_t tb = fflag_buf[t] ? kFExtend : std::uint8_t{0};

      // Horizontal (gap in a): from current row, previous j.
      int e = kNegInf;
      if (j > lo) {
        const int prev_h = h_cur.back();
        const int from_h = prev_h > kNegInf ? prev_h - open_first : kNegInf;
        const int from_e = e_run > kNegInf ? e_run - ext : kNegInf;
        if (from_e > from_h) {
          e = from_e;
          tb |= kEExtend;
        } else {
          e = from_h;
        }
      }
      e_run = e;

      const int d = d_buf[t];

      int h = std::max({d, e, f});
      if (h == d && d > kNegInf) {
        tb |= kHDiag;
      } else if (h == e && e > kNegInf) {
        tb |= kHFromE;
      } else if (h == f && f > kNegInf) {
        tb |= kHFromF;
      } else {
        tb |= kHStart;
        h = kNegInf;
      }

      if (h < best - xdrop) {
        h = kNegInf;
        tb = (tb & ~kHMask) | kHStart;
      }
      if (f < best - xdrop) f = kNegInf;
      if (e < best - xdrop) e_run = kNegInf;

      h_cur.push_back(h);
      f_cur.push_back(f);
      row.tb.push_back(tb);

      if (h > kNegInf || f > kNegInf || e_run > kNegInf) {
        if (!any_alive) first_alive = j;
        last_alive = j;
        any_alive = true;
      }
      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }

    if (!any_alive) break;

    // Trim the next row's window to the alive region.
    const std::size_t trim = first_alive - lo;
    if (trim > 0) {
      h_cur.erase(h_cur.begin(), h_cur.begin() + static_cast<std::ptrdiff_t>(trim));
      f_cur.erase(f_cur.begin(), f_cur.begin() + static_cast<std::ptrdiff_t>(trim));
    }
    h_cur.resize(last_alive - first_alive + 1, kNegInf);
    f_cur.resize(last_alive - first_alive + 1, kNegInf);
    h_prev = std::move(h_cur);
    f_prev = std::move(f_cur);
    lo_prev = first_alive;
    rows.push_back(std::move(row));
  }

  // Traceback from the best H cell.
  DirResult out;
  out.score = best;
  out.a_len = best_i;
  out.b_len = best_j;
  std::vector<EditOp> rev;
  std::size_t i = best_i;
  std::size_t j = best_j;
  char state = 'H';
  while (i != 0 || j != 0) {
    MRBIO_CHECK(i < rows.size(), "traceback row out of range");
    const TbRow& row = rows[i];
    MRBIO_CHECK(j >= row.lo && j - row.lo < row.tb.size(), "traceback column out of range");
    const std::uint8_t tb = row.tb[j - row.lo];
    if (state == 'H') {
      switch (tb & kHMask) {
        case kHDiag:
          push_op(rev, EditOp::Type::Match);
          --i;
          --j;
          break;
        case kHFromE:
          state = 'E';
          break;
        case kHFromF:
          state = 'F';
          break;
        default:
          MRBIO_CHECK(false, "traceback reached a dead cell");
      }
    } else if (state == 'E') {
      push_op(rev, EditOp::Type::InsertS);
      if ((tb & kEExtend) == 0) state = 'H';
      --j;
    } else {  // 'F'
      push_op(rev, EditOp::Type::InsertQ);
      if ((tb & kFExtend) == 0) state = 'H';
      --i;
    }
  }
  out.ops.assign(rev.rbegin(), rev.rend());
  return out;
}

}  // namespace

GappedAlignment extend_gapped(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> subject, std::size_t q_seed,
                              std::size_t s_seed, const Scorer& scorer, int xdrop) {
  MRBIO_CHECK(q_seed < query.size() && s_seed < subject.size(), "gapped seed out of range");

  // Rightward pass includes the seed column.
  const DirResult right = extend_dir(query.subspan(q_seed), subject.subspan(s_seed),
                                     scorer, xdrop);

  // Leftward pass on reversed prefixes (excluding the seed column). The DP
  // has at most q_seed rows after row 0, each reaching one column past the
  // last, so the q_seed + row0_columns subject bytes left of the seed cover
  // every column it can reach: only that window is copied, not the whole
  // subject prefix.
  const std::size_t s_window =
      std::min(s_seed, q_seed + row0_columns(scorer, xdrop, s_seed));
  std::vector<std::uint8_t> qrev(query.begin(),
                                 query.begin() + static_cast<std::ptrdiff_t>(q_seed));
  std::vector<std::uint8_t> srev(subject.begin() + static_cast<std::ptrdiff_t>(s_seed - s_window),
                                 subject.begin() + static_cast<std::ptrdiff_t>(s_seed));
  std::reverse(qrev.begin(), qrev.end());
  std::reverse(srev.begin(), srev.end());
  const DirResult left = extend_dir(qrev, srev, scorer, xdrop);

  GappedAlignment out;
  out.score = left.score + right.score;
  out.q_start = q_seed - left.a_len;
  out.s_start = s_seed - left.b_len;
  out.q_end = q_seed + right.a_len;
  out.s_end = s_seed + right.b_len;

  // Left ops are in reversed coordinates; flip them back and splice.
  out.ops.assign(left.ops.rbegin(), left.ops.rend());
  for (const EditOp& op : right.ops) {
    if (!out.ops.empty() && out.ops.back().type == op.type) {
      out.ops.back().len += op.len;
    } else {
      out.ops.push_back(op);
    }
  }

  // Walk the ops once for identity/gap accounting.
  std::size_t q = out.q_start;
  std::size_t s = out.s_start;
  for (const EditOp& op : out.ops) {
    out.align_len += op.len;
    switch (op.type) {
      case EditOp::Type::Match:
        for (std::uint32_t k = 0; k < op.len; ++k) {
          if (query[q + k] == subject[s + k] && query[q + k] < kSentinel) ++out.identities;
        }
        q += op.len;
        s += op.len;
        break;
      case EditOp::Type::InsertQ:
        q += op.len;
        out.gaps += op.len;
        break;
      case EditOp::Type::InsertS:
        s += op.len;
        out.gaps += op.len;
        break;
    }
  }
  MRBIO_CHECK(q == out.q_end && s == out.s_end, "edit script does not span the alignment");
  return out;
}

}  // namespace mrbio::blast
