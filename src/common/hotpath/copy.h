// Streaming copy kernels for the rebalance engine (ISSUE 3).
//
// Rebalances move every live element of a window: spreads copy segment
// runs into the storage buffer, resizes repack the whole array into a
// fresh region. Two regimes, chosen by the *window* size (not the run
// size — one spread issues many runs and they should all take the same
// path):
//
//  - Cache-resident windows use plain memcpy. The compiler inlines small
//    fixed-size copies and libc's dispatch already vectorizes large
//    ones; beating it in-cache is not possible, so the scalar kernel IS
//    memcpy.
//  - Windows larger than the last-level cache use AVX2 non-temporal
//    stores (copy_avx2.h, runtime-dispatched like the search kernels).
//    A rebalance writes the buffer exactly once and publishes it with
//    SwapWindow; for a window that cannot fit in LLC anyway, regular
//    stores would evict the *live* array (which concurrent readers are
//    still scanning) to make room for buffer lines that will not be
//    re-read before DRAM evicts them. NT stores keep the copy out of
//    the cache entirely.
//
// The threshold is 2x the OS-reported LLC size (resolved once at
// startup, see cpu_dispatch.cc): a window that big cannot stay resident
// even with a perfectly warm cache, so evicting live data to cache its
// lines is pure loss.

#pragma once

#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/hotpath/cpu_dispatch.h"
#include "pma/item.h"

namespace cpma::hotpath {

/// Portable streaming kernel: plain memcpy (see file comment). Reached
/// via the dispatch on CPUs without AVX2 or with CPMA_DISABLE_AVX2 set.
/// n == 0 is allowed even with null pointers (an empty segment's run) —
/// memcpy itself is not (UB per the standard, and UBSan flags it).
inline void ScalarCopyItems(Item* dst, const Item* src, size_t n) {
  if (n == 0) return;
  std::memcpy(dst, src, n * sizeof(Item));
}

/// Window size in bytes above which rebalance copies switch to the
/// streaming (non-temporal) kernel: 2x the detected LLC (resolved once;
/// cpu_dispatch.cc).
size_t StreamWindowBytes();

/// Decide once per rebalance whether its copies should stream.
inline bool StreamCopyPreferred(size_t window_bytes) {
  return window_bytes >= StreamWindowBytes();
}

/// Copy `n` items (non-overlapping). `stream` selects the dispatched
/// non-temporal kernel and should be the StreamCopyPreferred() verdict
/// for the whole window this run belongs to.
inline void CopyItems(Item* dst, const Item* src, size_t n, bool stream) {
  if (n == 0) return;
  if (stream) {
    detail::g_stream_copy.load(std::memory_order_relaxed)(dst, src, n);
  } else {
    std::memcpy(dst, src, n * sizeof(Item));
  }
}

/// Publish barrier for a batch of streaming copies: call once per
/// window after its CopyItems runs, before the buffer is made
/// visible to other threads. Non-temporal stores are weakly ordered —
/// neither a mutex unlock nor a release store is guaranteed to drain
/// the write-combining buffers, only sfence is. One fence per window
/// (not per run) keeps the streamed stores overlapped.
inline void StreamCopyFlush(bool stream) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (stream) _mm_sfence();
#else
  (void)stream;
#endif
}

}  // namespace cpma::hotpath
