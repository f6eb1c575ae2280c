// Tagged memory accesses for the optimistic (seqlock) read path (§3.1
// extension, ISSUE 4).
//
// An optimistic reader runs on storage that a latched writer may be
// mutating at the same time; the gate's version word decides afterwards
// whether the data it read was stable. Two requirements follow:
//
//  1. Every racing access must be *word-atomic* so a torn read yields
//     some previously-stored word, never a wild value — indices computed
//     from it stay bounded and the version check discards the result.
//  2. The race must be visible to ThreadSanitizer as a pair of atomic
//     accesses, not silenced with suppressions: `ctest -L concurrent`
//     under the tsan preset runs with the optimistic path enabled.
//
// TaggedLoad/TaggedStore are always compiled as relaxed atomics: on every
// target we support a relaxed word load/store is the same instruction as
// a plain one, so the production binary is unchanged and TSan sees
// atomics. The *bulk* helpers (copy/move) cannot stay word-atomic and
// fast at once, so they are memcpy/memmove in production — the validated
// retry makes torn data harmless, and per-word tearing is exactly what
// the word-aligned copies produce — and per-word atomic loops under TSan
// so the instrumented build is data-race-free by the letter of the
// memory model. The memory-ordering argument for the surrounding
// version-word protocol lives in common/latches.h (SeqVersion).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

// CPMA_TSAN: 1 when compiling under ThreadSanitizer (gcc defines
// __SANITIZE_THREAD__; clang exposes __has_feature(thread_sanitizer)).
#if defined(__SANITIZE_THREAD__)
#define CPMA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CPMA_TSAN 1
#endif
#endif
#ifndef CPMA_TSAN
#define CPMA_TSAN 0
#endif

namespace cpma {

/// Relaxed atomic load of a word that may be concurrently stored by a
/// latched mutator. Compiles to a plain load.
template <typename T>
inline T TaggedLoad(const T* p) {
  static_assert(std::is_trivially_copyable<T>::value && sizeof(T) <= 8,
                "tagged accesses are single words");
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}

/// Relaxed atomic store paired with TaggedLoad. Compiles to a plain
/// store; callers must hold the location's gate in WRITE/REBAL state so
/// the gate version word is odd while the store is in flight.
template <typename T>
inline void TaggedStore(T* p, T v) {
  static_assert(std::is_trivially_copyable<T>::value && sizeof(T) <= 8,
                "tagged accesses are single words");
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}

/// Bulk copy dst <- src of `bytes` (multiple of 8, ranges disjoint) that
/// an optimistic reader may be reading. memcpy in production (see file
/// comment), per-word atomic stores under TSan.
inline void TaggedCopyWords(void* dst, const void* src, size_t bytes) {
#if CPMA_TSAN
  auto* d = static_cast<uint64_t*>(dst);
  const auto* s = static_cast<const uint64_t*>(src);
  for (size_t i = 0; i < bytes / 8; ++i) {
    __atomic_store_n(d + i, s[i], __ATOMIC_RELAXED);
  }
#else
  std::memcpy(dst, src, bytes);
#endif
}

/// Overlap-safe variant (segment shifts). memmove in production,
/// direction-aware per-word atomic loop under TSan.
inline void TaggedMoveWords(void* dst, const void* src, size_t bytes) {
#if CPMA_TSAN
  auto* d = static_cast<uint64_t*>(dst);
  const auto* s = static_cast<const uint64_t*>(src);
  const size_t n = bytes / 8;
  if (d < s) {
    for (size_t i = 0; i < n; ++i) {
      __atomic_store_n(d + i, s[i], __ATOMIC_RELAXED);
    }
  } else {
    for (size_t i = n; i-- > 0;) {
      __atomic_store_n(d + i, s[i], __ATOMIC_RELAXED);
    }
  }
#else
  std::memmove(dst, src, bytes);
#endif
}

/// Reader-side bulk copy out of racing storage into private memory
/// (optimistic scans copying a segment run before validation). memcpy in
/// production, per-word atomic loads under TSan.
inline void TaggedReadWords(void* dst, const void* src, size_t bytes) {
#if CPMA_TSAN
  auto* d = static_cast<uint64_t*>(dst);
  const auto* s = static_cast<const uint64_t*>(src);
  for (size_t i = 0; i < bytes / 8; ++i) {
    d[i] = __atomic_load_n(s + i, __ATOMIC_RELAXED);
  }
#else
  std::memcpy(dst, src, bytes);
#endif
}

}  // namespace cpma
