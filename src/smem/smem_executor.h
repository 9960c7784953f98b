// Latency-hiding interleaved seeding executor (paper §4.3, Table 4).
//
// smem1()/seed_strategy1() are chains of *dependent* Occ lookups: each
// forward/backward extension needs the previous one's interval before its
// two cache lines can even be addressed, so a single read's walk exposes
// the full DRAM latency of every miss and the scalar kernel's one-step-
// ahead prefetch only hides the few cycles of per-step arithmetic.  The
// paper's batched-prefetch discipline fixes this by keeping *several
// independent* walks in flight: while one read's Occ lines are on their way
// from memory, the CPU does useful work on the other reads.
//
// SmemExecutor runs one C++20 coroutine per lane (K = DriverOptions::
// smem_inflight, default 8).  Each lane takes reads from a cursor shared by
// all lanes and runs collect_smems()' three rounds on them, with the
// smem1()/seed_strategy1() bodies written out in line.  Wherever the next
// step touches Occ lines whose addresses are already known, the lane issues
// their prefetches and suspends:
//
//   before each forward extension (rounds 1-2 and round 3): the next
//     extension depends on the previous one, so the walk parks one
//     extension at a time;
//   before each backward row whose base is unambiguous: all of a row's
//     extensions are addressable the moment the row starts, so the row is
//     consumed as one step and only the row-to-row dependency pays a
//     rotation.
//
// collect() resumes the live lanes round-robin, so every prefetch has K-1
// other lanes' steps to complete before its lane runs again.  The step
// bodies themselves are the plain inline helpers below; the coroutine holds
// only control flow.
//
// Every step extends by the one base the walk reads next: backward_ext1 /
// forward_ext1 count only Occ(c) and the bases above c at the step's two
// rows (inline SSE2 on CP32), where the scalar walk's backward_ext /
// forward_ext decode all four bases and build four intervals to keep one.
// A step touches no thread-local state: each lane counts its extensions,
// prefetches and SMEMs in its SmemWorkspace, and collect() adds them to
// util::tls_counters() once, on return or unwind.  Reads are independent and
// each lane replays the scalar control flow verbatim, so the output (and
// every extension and bucket-load counter) equals collect_smems() for any K
// and interleaving (tests/test_smem_executor).
#pragma once

#include <algorithm>
#include <coroutine>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "smem/seeding.h"

namespace mem2::smem {

/// One unit of executor work: a query plus where its SMEM list goes.
struct QueryRef {
  std::span<const seq::Code> query;
  std::vector<Smem>* out = nullptr;
};

class SmemExecutor {
 public:
  static constexpr int kDefaultInflight = 8;
  static constexpr int kMaxInflight = 64;

  SmemExecutor() = default;
  explicit SmemExecutor(int inflight) { set_inflight(inflight); }

  /// Number of in-flight walks (clamped to [1, kMaxInflight]).
  void set_inflight(int inflight);
  int inflight() const { return inflight_; }

  /// Collect SMEMs for every query, interleaving up to inflight() reads.
  /// Each queries[i].out receives exactly what
  /// collect_smems(fm, queries[i].query, opt, ...) would have produced.
  /// If the index throws, the exception leaves collect() after every lane's
  /// coroutine has been destroyed.
  template <class Fm>
  void collect(const Fm& fm, std::span<const QueryRef> queries,
               const SeedingOptions& opt, const util::PrefetchPolicy& pf);

  /// Coroutine frames currently alive (0 whenever collect() is not running).
  int live_walks() const { return live_walks_; }

 private:
  /// What every lane of one collect() call shares.
  template <class Fm>
  struct Cursor {
    const Fm& fm;
    std::span<const QueryRef> queries;
    const SeedingOptions& opt;
    bool pf;
    std::size_t next = 0;  // first query no lane has taken yet
  };

  /// Owning handle of one lane's coroutine; destroying it destroys the frame.
  class Walk {
   public:
    struct promise_type {
      int* live;
      std::exception_ptr error;

      template <class... Args>
      explicit promise_type(SmemExecutor& ex, Args&&...) : live(&ex.live_walks_) {
        ++*live;
      }
      ~promise_type() { --*live; }
      Walk get_return_object() {
        return Walk(std::coroutine_handle<promise_type>::from_promise(*this));
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { error = std::current_exception(); }
    };

    Walk() = default;
    Walk(Walk&& o) noexcept : h_(std::exchange(o.h_, {})) {}
    Walk& operator=(Walk&& o) noexcept {
      std::swap(h_, o.h_);
      return *this;
    }
    ~Walk() {
      if (h_) h_.destroy();
    }

    /// Run to the next park point; false once the lane has no reads left.
    /// Rethrows whatever the walk threw.
    bool resume() {
      h_.resume();
      if (!h_.done()) return true;
      if (h_.promise().error) std::rethrow_exception(h_.promise().error);
      return false;
    }

   private:
    explicit Walk(std::coroutine_handle<promise_type> h) : h_(h) {}
    std::coroutine_handle<promise_type> h_;
  };

  template <class Fm>
  Walk walk(Cursor<Fm>& cur, SmemWorkspace& ws);

  int inflight_ = kDefaultInflight;
  int live_walks_ = 0;
  std::vector<SmemWorkspace> ws_;  // one per lane, reused across calls
};

// ------------------------------------------------------------- step bodies

namespace walk_step {

/// Query code at i, or -1 when i is off the left end or ambiguous.
inline int code_at(std::span<const seq::Code> q, int i) {
  return i < 0 || q[static_cast<std::size_t>(i)] > 3 ? -1 : q[static_cast<std::size_t>(i)];
}

/// Requests the Occ buckets of a future extension's rows first-1 and
/// first+s-1 (first = k backward, l forward), counted in the lane.
template <class Fm>
inline void prefetch(const Fm& fm, idx_t first, idx_t s, SmemWorkspace& ws) {
  fm.prefetch_rows(first, s);
  ws.counts.prefetches += 2;
}

/// smem1's forward-loop body: extend ik by base c at query position i,
/// pushing ik as a candidate into ws.curr when the interval shrinks.
/// Returns false when the interval got too small to extend further.
template <class Fm>
inline bool forward(const Fm& fm, seq::Code c, int i, idx_t min_intv,
                    SmemWorkspace::Entry& ik, SmemWorkspace& ws) {
  const index::BiInterval next = fm.forward_ext1(ik.bi, c);
  ++ws.counts.forward_exts;
  if (next.s != ik.bi.s) {
    ws.curr.push_back(ik);
    if (next.s < min_intv) return false;
  }
  ik.bi = next;
  ik.qe = static_cast<std::int32_t>(i + 1);
  return true;
}

/// smem1's backward-loop body: the whole row at query position i with base
/// c (-1: no extension possible) over the candidates in ws.prev.  Emits
/// SMEMs into ws.mem1; returns whether any candidate survives into row i-1
/// (ws.prev then holds them, their Occ lines already requested).
template <class Fm>
inline bool backward_row(const Fm& fm, int c, int i, idx_t min_intv, bool pf,
                         SmemWorkspace& ws) {
  auto emit_if_new = [&](const SmemWorkspace::Entry& p) {
    // The "curr empty" test passed; an SMEM is born unless a previously
    // emitted one already covers position i+1 (Algorithm 4's containment
    // test: mem1 is filled right-to-left).
    if (ws.mem1.empty() || i + 1 < ws.mem1.back().qb) {
      ws.mem1.push_back(Smem{p.bi, static_cast<std::int32_t>(i + 1), p.qe});
      ++ws.counts.smems_found;
    }
  };
  ws.curr.clear();
  if (c < 0) {  // every candidate takes the emit branch, curr stays empty
    for (const auto& p : ws.prev) emit_if_new(p);
    return false;
  }
  for (const SmemWorkspace::Entry& p : ws.prev) {
    const index::BiInterval next = fm.backward_ext1(p.bi, c);
    ++ws.counts.backward_exts;
    if (next.s < min_intv) {
      // p cannot extend left: candidate SMEM if no longer match remains.
      if (ws.curr.empty()) emit_if_new(p);
    } else if (ws.curr.empty() || next.s != ws.curr.back().bi.s) {
      // Survives into the next row; request its Occ lines now, exactly where
      // the scalar kernel prefetches (Algorithm 4's placement) — they get the
      // rest of this row plus a rotation to arrive.
      if (pf) prefetch(fm, next.k, next.s, ws);
      ws.curr.push_back(SmemWorkspace::Entry{next, p.qe});
    }
  }
  if (ws.curr.empty()) return false;
  std::swap(ws.curr, ws.prev);
  return true;
}

/// seed_strategy1's loop body: extend ik by base c at query position i of
/// the greedy seed starting at x.  Returns true when the seed is found.
template <class Fm>
inline bool seed(const Fm& fm, seq::Code c, int x, int i, const SeedingOptions& opt,
                 index::BiInterval& ik, Smem& hit, SmemWorkspace& ws) {
  const index::BiInterval next = fm.forward_ext1(ik, c);
  ++ws.counts.forward_exts;
  if (next.s < opt.max_mem_intv && i - x >= opt.min_seed_len) {
    hit = Smem{next, static_cast<std::int32_t>(x), static_cast<std::int32_t>(i + 1)};
    ++ws.counts.smems_found;
    return true;
  }
  ik = next;
  return false;
}

}  // namespace walk_step

// ------------------------------------------------------------ executor impl

template <class Fm>
SmemExecutor::Walk SmemExecutor::walk(Cursor<Fm>& cur, SmemWorkspace& ws) {
  using walk_step::code_at;
  const Fm& fm = cur.fm;
  const SeedingOptions& opt = cur.opt;
  const bool pf = cur.pf;
  const int split_len = static_cast<int>(
      static_cast<double>(opt.min_seed_len) * opt.split_factor + .499);

  while (cur.next < cur.queries.size()) {
    const QueryRef qr = cur.queries[cur.next++];
    const std::span<const seq::Code> q = qr.query;
    std::vector<Smem>& out = *qr.out;
    const int len = static_cast<int>(q.size());
    out.clear();

    // Rounds 1 and 2 run the same smem1 walk: round 1 from every scan
    // position, round 2 from the middle of each long, rare round-1 SMEM.
    std::size_t k2 = 0, old_n = 0;
    for (int x = 0, round = 1;;) {
      int sx = x;
      idx_t min_intv = 1;
      if (round == 1) {
        while (sx < len && q[static_cast<std::size_t>(sx)] > 3) ++sx;
        if (sx == len) {
          round = 2;
          old_n = out.size();
          continue;
        }
      } else {
        while (k2 < old_n &&
               (out[k2].len() < split_len || out[k2].bi.s > opt.split_width))
          ++k2;
        if (k2 == old_n) break;
        sx = (out[k2].qb + out[k2].qe) >> 1;
        min_intv = out[k2].bi.s + 1;
        ++k2;
      }

      // smem1(sx, min_intv) into ws.mem1.
      ws.mem1.clear();
      ws.curr.clear();
      int ret = sx + 1;
      if (code_at(q, sx) >= 0) {
        SmemWorkspace::Entry ik{fm.set_intv(q[static_cast<std::size_t>(sx)]),
                                static_cast<std::int32_t>(sx + 1)};
        int i = sx + 1;
        for (; i < len && q[static_cast<std::size_t>(i)] < 4; ++i) {
          if (pf) walk_step::prefetch(fm, ik.bi.l, ik.bi.s, ws);  // forward() reads l side
          co_await std::suspend_always{};
          if (!walk_step::forward(fm, q[static_cast<std::size_t>(i)], i, min_intv, ik, ws))
            break;
        }
        if (i == len || q[static_cast<std::size_t>(i)] > 3)
          ws.curr.push_back(ik);  // end of query / ambiguous base terminates
        std::reverse(ws.curr.begin(), ws.curr.end());  // longest matches first
        ret = ws.curr.front().qe;
        std::swap(ws.curr, ws.prev);

        for (i = sx - 1;; --i) {
          const int c = code_at(q, i);
          if (c >= 0) {
            // Every entry of the first row is known now; later rows' entries
            // were requested as backward_row produced them.
            if (pf && i == sx - 1)
              for (const auto& p : ws.prev) walk_step::prefetch(fm, p.bi.k, p.bi.s, ws);
            co_await std::suspend_always{};
          }
          if (!walk_step::backward_row(fm, c, i, min_intv, pf, ws)) break;
        }
        std::reverse(ws.mem1.begin(), ws.mem1.end());  // sort by start coordinate
      }
      for (const Smem& m : ws.mem1)
        if (m.len() >= opt.min_seed_len) out.push_back(m);
      if (round == 1) x = ret;
    }

    // Round 3: LAST-like greedy seeds, seed_strategy1 from every scan position.
    for (int x = 0; opt.max_mem_intv > 0 && x < len;) {
      if (q[static_cast<std::size_t>(x)] > 3) {
        ++x;
        continue;
      }
      Smem hit;
      index::BiInterval ik = fm.set_intv(q[static_cast<std::size_t>(x)]);
      int i = x + 1;
      for (; i < len && q[static_cast<std::size_t>(i)] < 4; ++i) {
        if (pf) walk_step::prefetch(fm, ik.l, ik.s, ws);
        co_await std::suspend_always{};
        if (walk_step::seed(fm, q[static_cast<std::size_t>(i)], x, i, opt, ik, hit, ws))
          break;
      }
      if (hit.bi.s > 0) out.push_back(hit);
      x = i == len ? len : i + 1;
    }

    std::sort(out.begin(), out.end(), smem_less);
  }
}

template <class Fm>
void SmemExecutor::collect(const Fm& fm, std::span<const QueryRef> queries,
                           const SeedingOptions& opt,
                           const util::PrefetchPolicy& pf) {
  if (queries.empty()) return;
  const int k = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(inflight_), queries.size()));
  if (ws_.size() < static_cast<std::size_t>(k)) ws_.resize(static_cast<std::size_t>(k));

  // The lanes' counts reach the thread's counters once, when collect()
  // returns or rethrows (so a CounterCapture around it stays exact).
  struct AddCounts {
    std::span<SmemWorkspace> lanes;
    ~AddCounts() {
      util::SwCounters& t = util::tls_counters();
      for (SmemWorkspace& ws : lanes) {
        t.backward_exts += ws.counts.backward_exts;
        t.forward_exts += ws.counts.forward_exts;
        t.occ_bucket_loads += 2 * (ws.counts.backward_exts + ws.counts.forward_exts);
        t.prefetches += ws.counts.prefetches;
        t.smems_found += ws.counts.smems_found;
        ws.counts = {};
      }
    }
  } add_counts{std::span<SmemWorkspace>(ws_).first(static_cast<std::size_t>(k))};
  Cursor<Fm> cur{fm, queries, opt, pf.enabled};
  // Declared after cur: on return or throw every frame is destroyed before
  // the cursor it points at.
  Walk walks[kMaxInflight];
  int act[kMaxInflight];
  for (int l = 0; l < k; ++l) {
    walks[l] = walk(cur, ws_[static_cast<std::size_t>(l)]);
    act[l] = l;
  }

  // The lockstep rotation: by the time a lane resumes, the prefetches it
  // issued before suspending have had n_act-1 other lanes' steps to complete.
  for (int n_act = k; n_act > 0;) {
    for (int s = 0; s < n_act;) {
      if (walks[act[s]].resume())
        ++s;
      else
        act[s] = act[--n_act];  // retire the lane
    }
  }
}

// Instantiated once, in smem_executor.cpp with the library's flags, like
// collect_smems: a caller built with other flags (the tests and perfbench
// compile at -O2) links that copy instead of emitting its own, which the
// linker could otherwise pick for every caller in the binary.
extern template void SmemExecutor::collect<index::FmIndexCp128>(
    const index::FmIndexCp128&, std::span<const QueryRef>, const SeedingOptions&,
    const util::PrefetchPolicy&);
extern template void SmemExecutor::collect<index::FmIndexCp32>(
    const index::FmIndexCp32&, std::span<const QueryRef>, const SeedingOptions&,
    const util::PrefetchPolicy&);

}  // namespace mem2::smem
