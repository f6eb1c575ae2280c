#include "common/hotpath/cpu_dispatch.h"

#include <cstdlib>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/hotpath/copy.h"
#include "common/hotpath/copy_avx2.h"
#include "common/hotpath/locate.h"
#include "common/hotpath/locate_avx2.h"
#include "common/hotpath/search.h"
#include "common/hotpath/search_avx2.h"

namespace cpma::hotpath {

namespace {
size_t ResolveTrampoline(const Item* seg, size_t n, Key key);
void ResolveCopyTrampoline(Item* dst, const Item* src, size_t n);
size_t ResolveLocateTrampoline(const Key* routes, size_t n, Key key);
}  // namespace

namespace detail {
// Constant-initialized, so a lookup issued from another TU's dynamic
// initializer still resolves correctly instead of racing static init.
std::atomic<ItemLowerBoundFn> g_item_lower_bound{&ResolveTrampoline};
std::atomic<ItemCopyFn> g_stream_copy{&ResolveCopyTrampoline};
std::atomic<LocateRouteFn> g_locate_route{&ResolveLocateTrampoline};
}  // namespace detail

bool Avx2Supported() {
#if CPMA_HAVE_AVX2_IMPL
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool Avx2DisabledByEnv() {
  const char* env = std::getenv("CPMA_DISABLE_AVX2");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

namespace {
// One CPUID + env decision shared by every kernel family.
bool UseAvx2() { return Avx2Supported() && !Avx2DisabledByEnv(); }
}  // namespace

ItemLowerBoundFn ResolveItemLowerBound() {
#if CPMA_HAVE_AVX2_IMPL
  if (UseAvx2()) return &Avx2ItemLowerBound;
#endif
  return &ScalarItemLowerBound;
}

ItemCopyFn ResolveStreamCopy() {
#if CPMA_HAVE_AVX2_COPY_IMPL
  if (UseAvx2()) return &Avx2StreamCopyItems;
#endif
  return &ScalarCopyItems;
}

LocateRouteFn ResolveLocateRoute() {
#if CPMA_HAVE_AVX2_LOCATE_IMPL
  if (UseAvx2()) return &Avx2LocateRoute;
#endif
  return &ScalarLocateRoute;
}

namespace {
// Concurrent first calls all store the same pointer; relaxed is fine
// (for all three trampolines).
size_t ResolveTrampoline(const Item* seg, size_t n, Key key) {
  const ItemLowerBoundFn fn = ResolveItemLowerBound();
  detail::g_item_lower_bound.store(fn, std::memory_order_relaxed);
  return fn(seg, n, key);
}

void ResolveCopyTrampoline(Item* dst, const Item* src, size_t n) {
  const ItemCopyFn fn = ResolveStreamCopy();
  detail::g_stream_copy.store(fn, std::memory_order_relaxed);
  fn(dst, src, n);
}

size_t ResolveLocateTrampoline(const Key* routes, size_t n, Key key) {
  const LocateRouteFn fn = ResolveLocateRoute();
  detail::g_locate_route.store(fn, std::memory_order_relaxed);
  return fn(routes, n, key);
}
}  // namespace

size_t StreamWindowBytes() {
  static const size_t bytes = [] {
    constexpr size_t kFallback = size_t{32} << 20;
    long llc = -1;
#if defined(__linux__) && defined(_SC_LEVEL3_CACHE_SIZE)
    llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    if (llc <= 0) return kFallback;
    // 2x LLC: below that a warm cache could still hold the window, and
    // evicting it for a one-shot copy might pay off on the next scan.
    return static_cast<size_t>(llc) * 2;
  }();
  return bytes;
}

const char* ActiveDispatchName() {
  ItemLowerBoundFn fn =
      detail::g_item_lower_bound.load(std::memory_order_relaxed);
  if (fn == &ResolveTrampoline) {
    fn = ResolveItemLowerBound();
    detail::g_item_lower_bound.store(fn, std::memory_order_relaxed);
  }
#if CPMA_HAVE_AVX2_IMPL
  if (fn == &Avx2ItemLowerBound) return "avx2";
#endif
  return "scalar";
}

const char* ActiveCopyDispatchName() {
  ItemCopyFn fn = detail::g_stream_copy.load(std::memory_order_relaxed);
  if (fn == &ResolveCopyTrampoline) {
    fn = ResolveStreamCopy();
    detail::g_stream_copy.store(fn, std::memory_order_relaxed);
  }
#if CPMA_HAVE_AVX2_COPY_IMPL
  if (fn == &Avx2StreamCopyItems) return "avx2";
#endif
  return "scalar";
}

const char* ActiveLocateDispatchName() {
  LocateRouteFn fn = detail::g_locate_route.load(std::memory_order_relaxed);
  if (fn == &ResolveLocateTrampoline) {
    fn = ResolveLocateRoute();
    detail::g_locate_route.store(fn, std::memory_order_relaxed);
  }
#if CPMA_HAVE_AVX2_LOCATE_IMPL
  if (fn == &Avx2LocateRoute) return "avx2";
#endif
  return "scalar";
}

}  // namespace cpma::hotpath
