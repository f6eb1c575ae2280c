// Hot-path search kernels: the PMA's segment and routing searches,
// shared by the sequential and concurrent PMAs, plus the
// software-prefetch helper used by the read paths.
//
// Two kernels, chosen by what FOLLOWS the search (all choices A/B'd on
// the dev box, min-CPU-time over interleaved runs; see BENCH_PR2.json):
//
//  - Read paths (Find, scan cursor placement) call the dispatched
//    SegmentLowerBound (cpu_dispatch.h): a branchless halving loop whose
//    step compiles to a conditional move — zero branch mispredictions —
//    or its AVX2 widening (search_avx2.h). Nothing depends on the result
//    but a compare, so the chain of data-dependent loads is the whole
//    cost and removing mispredicts wins outright (-40% on
//    BM_SequentialPmaFind). On an array far larger than the caches each
//    load of that chain is its own miss, so Find and the first segment
//    of a range scan prefetch the segment's occupied lines before the
//    search (card x 16 bytes, at most 32 lines at B = 128): all of them
//    are requested with the first miss, and the 2-3 halving loads and
//    the 16-item window find their lines already in flight. Reading
//    lines the search would skip costs no extra round trip. Single
//    thread on a 4-vCPU Xeon (AVX2), 2M keys, zipfian Finds each keyed
//    by the previous result: ConcurrentPMA 417-479 ns without the
//    prefetch, 278-317 ns with it (SequentialPMA 375-444 -> 233-271 ns).
//
//  - Update paths (Insert/Remove) call SegmentLowerBoundForUpdate: an
//    append fast path plus a deliberately BRANCHY binary search. The
//    element shift that follows depends on the result; a predicted
//    branchy search lets the CPU speculate `pos` and start the memmove's
//    loads early, while a cmov chain stalls them behind every level of
//    the search. Branchless lost ~14% on BM_SequentialPmaInsertUniform
//    in the A/B; the ascending pattern additionally gets the fast path
//    (one always-taken branch instead of any search at all).

#pragma once

#include <cstddef>

#include "common/hotpath/cpu_dispatch.h"
#include "pma/item.h"

namespace cpma::hotpath {

/// Branchless lower bound over the keys of the sorted array seg[0..n):
/// index of the first item with key >= `key`, n if none. Read-path
/// kernel; reached via the SegmentLowerBound dispatch on CPUs without
/// AVX2 (or with CPMA_DISABLE_AVX2 set).
inline size_t ScalarItemLowerBound(const Item* seg, size_t n, Key key) {
  const Item* base = seg;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += static_cast<size_t>(base[half - 1].key < key) * half;
    len -= half;
  }
  return static_cast<size_t>(base - seg) +
         ((n > 0 && base->key < key) ? 1 : 0);
}

/// Lower bound for update call sites (see file comment for why this one
/// is branchy). The append fast path reads the segment's last item — for
/// updates that line is touched by the shift anyway, so it costs
/// nothing.
inline size_t SegmentLowerBoundForUpdate(const Item* seg, uint32_t card,
                                         Key key) {
  if (card == 0 || seg[card - 1].key < key) return card;
  size_t lo = 0, hi = card;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (seg[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Items in the head of a segment that a stream-ahead prefetch covers
/// (four lines).
inline constexpr uint32_t kPrefetchHeadItems = 4 * 64 / sizeof(Item);

/// Prefetch seg[0..items) into all cache levels, one hint per line.
/// Two kinds of caller:
///  - stream-ahead: a pass over segment s prefetches the head of s+1
///    (items = min(card, kPrefetchHeadItems)), as the B+-tree baseline
///    prefetches its next leaf (see btree.cc); the hardware prefetcher
///    keeps up once the pass streams inside the segment;
///  - search: a read-path lower bound first prefetches every occupied
///    line (items = card), so the search's dependent loads overlap
///    instead of missing one after another (see the file comment). It
///    is Chen, Gibbons & Mowry's prefetching B+-tree node fetch
///    (SIGMOD 2001) applied to a PMA segment.
inline void PrefetchSegment(const Item* seg, uint32_t items) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr size_t kLine = 64;
  const size_t bytes = static_cast<size_t>(items) * sizeof(Item);
  const char* p = reinterpret_cast<const char*>(seg);
  for (size_t off = 0; off < bytes; off += kLine) {
    __builtin_prefetch(p + off, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)seg;
  (void)items;
#endif
}

}  // namespace cpma::hotpath
