// SMEM search (paper §4.2, Algorithms 2-4) — a faithful port of BWA-MEM's
// bwt_smem1/bwt_seed_strategy1 onto our bidirectional FM-index, templated
// over the occurrence backend and threaded with the software-prefetch
// policy of §4.3.
//
// smem1() returns all SMEMs passing through query position x:
//   forward phase: extend right from x, recording a candidate each time the
//   SA-interval size shrinks (longest candidates last, so the list is
//   reversed before the backward phase);
//   backward phase: extend every candidate left one base at a time; a
//   candidate that can no longer extend becomes an SMEM iff no longer match
//   survives (the "curr empty" test) and it is not contained in a previously
//   emitted SMEM (the "i+1 < last qb" test).
//
// Prefetches fire exactly where Algorithm 4 places them: when a new
// interval is produced that will be extended in a *future* iteration, its
// two Occ cache lines are requested ahead of time.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "index/fm_index.h"
#include "util/prefetch.h"
#include "util/sw_counters.h"

namespace mem2::smem {

/// A super-maximal exact match: query interval [qb, qe) plus bi-interval.
struct Smem {
  index::BiInterval bi;
  std::int32_t qb = 0;
  std::int32_t qe = 0;

  std::int32_t len() const { return qe - qb; }
  bool operator==(const Smem&) const = default;
};

/// bwa's packed (qb<<32|qe) ordering with an interval-start tiebreak for
/// full determinism — the one definition both the scalar collect_smems and
/// the interleaved SmemExecutor sort with.
inline bool smem_less(const Smem& a, const Smem& b) {
  if (a.qb != b.qb) return a.qb < b.qb;
  if (a.qe != b.qe) return a.qe < b.qe;
  return a.bi.k < b.bi.k;
}

/// Scratch buffers reused across calls (the paper's large-contiguous-
/// allocation discipline: one workspace per thread, zero churn).
struct SmemWorkspace {
  struct Entry {
    index::BiInterval bi;
    std::int32_t qe = 0;  // forward-phase end (bwa's info field)
  };
  std::vector<Entry> curr, prev;
  std::vector<Smem> mem1;  // per-call output of smem1 during seeding

  /// An SmemExecutor lane counts its walk here rather than in
  /// util::tls_counters(); collect() adds the counts there once per call.
  /// Every extension loads two buckets (a walk's intervals have k, l >= 1,
  /// so row -1 never comes up), so loads are not counted apart.
  struct Counts {
    std::uint64_t backward_exts = 0;
    std::uint64_t forward_exts = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t smems_found = 0;
  } counts;
};

/// All SMEMs overlapping position x with interval size >= min_intv.
/// Returns the next start position (one past the longest match's end).
/// Results are appended to `out` ordered by increasing qb.
template <class Fm>
int smem1(const Fm& fm, std::span<const seq::Code> q, int x, idx_t min_intv,
          std::vector<Smem>& out, SmemWorkspace& ws,
          const util::PrefetchPolicy& pf) {
  const int len = static_cast<int>(q.size());
  out.clear();
  if (q[static_cast<std::size_t>(x)] > 3) return x + 1;
  if (min_intv < 1) min_intv = 1;

  auto& curr = ws.curr;
  auto& prev = ws.prev;
  curr.clear();

  SmemWorkspace::Entry ik{fm.set_intv(q[static_cast<std::size_t>(x)]),
                          static_cast<std::int32_t>(x + 1)};

  // --- forward extension (Algorithm 4 lines 3-13) ---
  int i;
  for (i = x + 1; i < len; ++i) {
    const seq::Code base = q[static_cast<std::size_t>(i)];
    if (base < 4) {
      index::BiInterval ok[4];
      fm.forward_ext(ik.bi, ok);
      if (ok[base].s != ik.bi.s) {
        curr.push_back(ik);
        if (ok[base].s < min_intv) break;  // too small to extend further
      }
      ik.bi = ok[base];
      ik.qe = static_cast<std::int32_t>(i + 1);
      // The next forward extension reads Occ at rows l-1 and l+s-1.
      if (pf.enabled) {
        fm.prefetch_forward(ik.bi);
      }
    } else {
      curr.push_back(ik);
      break;  // ambiguous base terminates extension
    }
  }
  if (i == len) curr.push_back(ik);  // reached the end of the query
  std::reverse(curr.begin(), curr.end());  // longest matches first
  const int ret = curr.front().qe;
  std::swap(curr, prev);

  // --- backward extension (Algorithm 4 lines 15-34) ---
  for (i = x - 1; i >= -1; --i) {
    const int c =
        i < 0 ? -1
              : (q[static_cast<std::size_t>(i)] < 4 ? q[static_cast<std::size_t>(i)] : -1);
    curr.clear();
    for (const auto& p : prev) {
      index::BiInterval ok[4];
      if (c >= 0) fm.backward_ext(p.bi, ok);
      if (c < 0 || ok[c].s < min_intv) {
        // p cannot extend left: candidate SMEM if no longer match remains.
        if (curr.empty()) {
          if (out.empty() || i + 1 < out.back().qb) {
            out.push_back(Smem{p.bi, static_cast<std::int32_t>(i + 1), p.qe});
            ++util::tls_counters().smems_found;
          }
        }
      } else if (curr.empty() || ok[c].s != curr.back().bi.s) {
        // Extended interval survives into the next backward round; prefetch
        // the Occ lines that round will read (rows k'-1 and k'+s-1).
        if (pf.enabled) fm.prefetch_interval(ok[c]);
        curr.push_back(SmemWorkspace::Entry{ok[c], p.qe});
      }
    }
    if (curr.empty()) break;
    std::swap(curr, prev);
  }
  std::reverse(out.begin(), out.end());  // sort by start coordinate
  return ret;
}

/// Third-round ("LAST-like") seeding: greedy forward scan for the first
/// match of length >= min_len whose interval drops below max_intv.  Port of
/// bwt_seed_strategy1.  Returns the next scan position; `hit` is untouched
/// unless a seed was found (check hit.bi.s > 0).
template <class Fm>
int seed_strategy1(const Fm& fm, std::span<const seq::Code> q, int x,
                   int min_len, idx_t max_intv, Smem& hit) {
  const int len = static_cast<int>(q.size());
  hit = Smem{};
  if (q[static_cast<std::size_t>(x)] > 3) return x + 1;

  index::BiInterval ik = fm.set_intv(q[static_cast<std::size_t>(x)]);
  for (int i = x + 1; i < len; ++i) {
    const seq::Code base = q[static_cast<std::size_t>(i)];
    if (base >= 4) return i + 1;
    index::BiInterval ok[4];
    fm.forward_ext(ik, ok);
    if (ok[base].s < max_intv && i - x >= min_len) {
      hit.bi = ok[base];
      hit.qb = static_cast<std::int32_t>(x);
      hit.qe = static_cast<std::int32_t>(i + 1);
      ++util::tls_counters().smems_found;
      return i + 1;
    }
    ik = ok[base];
  }
  return len;
}

}  // namespace mem2::smem
