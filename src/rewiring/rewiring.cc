#include "rewiring/rewiring.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>

#include "common/failpoint.h"
#include "common/tagged.h"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace cpma {

namespace {

size_t RoundUp(size_t x, size_t align) {
  return (x + align - 1) / align * align;
}

bool ForceNoRewire() {
  const char* env = std::getenv("CPMA_FORCE_NO_REWIRE");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

#if defined(__linux__)

// ftruncate can be interrupted by a signal before completing (EINTR);
// retry until it settles one way or the other.
int FtruncateRetry(int fd, off_t len) {
  int rc;
  do {
    rc = ftruncate(fd, len);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

// mmap is not documented to fail with EINTR, but file-backed mappings
// can surface it through the backing store on some kernels; a defensive
// retry loop costs nothing on the success path.
void* MmapRetry(void* addr, size_t len, int prot, int flags, int fd,
                off_t off) {
  for (;;) {
    void* p = mmap(addr, len, prot, flags, fd, off);
    if (p != MAP_FAILED || errno != EINTR) return p;
  }
}

// Returns the memfd on success; on failure returns -1 with errno
// describing the reason and *failed_call naming the syscall.
int CreateMemFd(size_t bytes, const char** failed_call) {
#if defined(SYS_memfd_create)
  if (CPMA_FAILPOINT("rewiring.memfd")) {
    errno = EMFILE;
    *failed_call = "memfd_create(injected)";
    return -1;
  }
  int fd = static_cast<int>(syscall(SYS_memfd_create, "cpma_rewire", 0u));
  if (fd < 0) {
    *failed_call = "memfd_create";
    return -1;
  }
  const bool truncate_injected = CPMA_FAILPOINT("rewiring.ftruncate");
  if (truncate_injected) errno = ENOSPC;
  if (truncate_injected || FtruncateRetry(fd, static_cast<off_t>(bytes)) != 0) {
    *failed_call = truncate_injected ? "ftruncate(injected)" : "ftruncate";
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  return fd;
#else
  (void)bytes;
  errno = ENOSYS;
  *failed_call = "memfd_create(unsupported)";
  return -1;
#endif
}

// Remap retry tuning: transient failures (EAGAIN/ENOMEM can clear when
// another thread releases mappings or the kernel reclaims) get a few
// attempts with capped exponential backoff before we give up on the
// zero-copy publish.
constexpr int kRemapAttempts = 4;
constexpr int kRemapBackoffBaseUs = 50;
constexpr int kRemapBackoffCapUs = 2000;

bool ErrnoTransient(int err) {
  return err == EAGAIN || err == ENOMEM || err == EINTR;
}

#endif  // __linux__

}  // namespace

std::unique_ptr<RewiredRegion> RewiredRegion::Create(size_t region_bytes,
                                                     size_t buffer_bytes,
                                                     bool want_huge_pages,
                                                     Status* status) {
  auto r = std::unique_ptr<RewiredRegion>(new RewiredRegion());
#if defined(__linux__)
  r->page_size_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
#endif
  r->region_bytes_ = RoundUp(region_bytes, r->page_size_);
  r->buffer_bytes_ = RoundUp(buffer_bytes, r->page_size_);
  const size_t total = r->region_bytes_ + r->buffer_bytes_;

#if defined(__linux__)
  if (!ForceNoRewire()) {
    const char* failed_call = nullptr;
    r->fd_ = CreateMemFd(total, &failed_call);
    if (r->fd_ < 0) {
      std::fprintf(stderr,
                   "cpma: rewiring unavailable: %s failed: errno %d (%s); "
                   "falling back to anonymous copy backend\n",
                   failed_call, errno, std::strerror(errno));
    } else {
      void* region = nullptr;
      void* buffer = nullptr;
      if (CPMA_FAILPOINT("rewiring.mmap")) {
        errno = ENOMEM;
      } else {
        region = MmapRetry(nullptr, r->region_bytes_, PROT_READ | PROT_WRITE,
                           MAP_SHARED, r->fd_, 0);
        buffer = MmapRetry(nullptr, r->buffer_bytes_, PROT_READ | PROT_WRITE,
                           MAP_SHARED, r->fd_,
                           static_cast<off_t>(r->region_bytes_));
        if (region == MAP_FAILED) region = nullptr;
        if (buffer == MAP_FAILED) buffer = nullptr;
      }
      if (region == nullptr || buffer == nullptr) {
        std::fprintf(stderr,
                     "cpma: rewiring unavailable: mmap failed: errno %d (%s); "
                     "falling back to anonymous copy backend\n",
                     errno, std::strerror(errno));
        if (region != nullptr) munmap(region, r->region_bytes_);
        if (buffer != nullptr) munmap(buffer, r->buffer_bytes_);
        close(r->fd_);
        r->fd_ = -1;
      } else {
        r->region_ = static_cast<char*>(region);
        r->buffer_ = static_cast<char*>(buffer);
#if defined(MADV_HUGEPAGE)
        if (want_huge_pages) {
          // Best effort; memfd-backed maps usually stay on 4K pages unless
          // the kernel enables THP for shmem, but asking is free.
          madvise(region, r->region_bytes_, MADV_HUGEPAGE);
          madvise(buffer, r->buffer_bytes_, MADV_HUGEPAGE);
        }
#endif
        const size_t region_pages = r->region_bytes_ / r->page_size_;
        const size_t buffer_pages = r->buffer_bytes_ / r->page_size_;
        r->region_backing_.resize(region_pages);
        r->buffer_backing_.resize(buffer_pages);
        for (size_t i = 0; i < region_pages; ++i) r->region_backing_[i] = i;
        for (size_t i = 0; i < buffer_pages; ++i) {
          r->buffer_backing_[i] = region_pages + i;
        }
        if (status != nullptr) *status = Status::OK();
        return r;
      }
    }
  }
#endif  // __linux__

  // Fallback: plain allocation, SwapPages copies. This is the last rung
  // of the ladder — if even this fails, report ResourceExhausted instead
  // of letting bad_alloc/abort take the process down.
  (void)want_huge_pages;
  char* region_mem = nullptr;
  char* buffer_mem = nullptr;
  if (!CPMA_FAILPOINT("rewiring.fallback_alloc")) {
    region_mem =
        static_cast<char*>(::operator new(r->region_bytes_, std::nothrow));
    buffer_mem =
        static_cast<char*>(::operator new(r->buffer_bytes_, std::nothrow));
  }
  if (region_mem == nullptr || buffer_mem == nullptr) {
    ::operator delete(region_mem);
    ::operator delete(buffer_mem);
    if (status != nullptr) {
      *status = Status::ResourceExhausted(
          "RewiredRegion fallback allocation failed (" +
          std::to_string(total) + " bytes)");
    }
    return nullptr;
  }
  r->region_ = region_mem;
  r->buffer_ = buffer_mem;
  std::memset(r->region_, 0, r->region_bytes_);
  std::memset(r->buffer_, 0, r->buffer_bytes_);
  if (status != nullptr) *status = Status::OK();
  return r;
}

RewiredRegion::~RewiredRegion() {
#if defined(__linux__)
  if (fd_ >= 0) {
    munmap(region_, region_bytes_);
    munmap(buffer_, buffer_bytes_);
    close(fd_);
    return;
  }
#endif
  ::operator delete(region_);
  ::operator delete(buffer_);
}

bool RewiredRegion::CanSwap(size_t region_offset, size_t buffer_offset,
                            size_t len) const {
  if (len == 0) return false;
  if (region_offset % page_size_ != 0 || buffer_offset % page_size_ != 0 ||
      len % page_size_ != 0) {
    return false;
  }
  return region_offset + len <= region_bytes_ &&
         buffer_offset + len <= buffer_bytes_;
}

#if defined(__linux__)

// Republish [first_page, first_page + pages) of `base` from the backing
// table, coalescing physically contiguous runs into single mmap calls
// (runs are long right after creation; they fragment as swaps
// accumulate, which is the realistic rewiring behaviour). Transient
// errors retry with capped exponential backoff. Returns false (with the
// range possibly partially remapped) on persistent failure or when the
// rewiring.remap_run failpoint fires; the caller restores.
bool RewiredRegion::RemapRuns(char* base, size_t first_page, size_t pages,
                              const std::vector<size_t>& backing, size_t lo,
                              bool allow_failpoints) {
  size_t i = 0;
  while (i < pages) {
    size_t run = 1;
    while (i + run < pages &&
           backing[lo + i + run] == backing[lo + i] + run) {
      ++run;
    }
    void* addr = base + (first_page + i) * page_size_;
    const off_t file_off = static_cast<off_t>(backing[lo + i] * page_size_);
    bool mapped = false;
    for (int attempt = 0; attempt < kRemapAttempts; ++attempt) {
      if (attempt > 0) {
        const int us = std::min(kRemapBackoffCapUs,
                                kRemapBackoffBaseUs << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
      if (allow_failpoints && CPMA_FAILPOINT("rewiring.remap_run")) {
        errno = ENOMEM;  // injected transient failure: retry like a real one
        continue;
      }
      void* res = mmap(addr, run * page_size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_FIXED, fd_, file_off);
      if (res == addr) {
        mapped = true;
        break;
      }
      CPMA_CHECK_MSG(res == MAP_FAILED,
                     "mmap(MAP_FIXED) returned an unexpected address "
                     "during rewiring");
      if (!ErrnoTransient(errno)) break;
    }
    if (!mapped) return false;
    num_remaps_.fetch_add(1, std::memory_order_relaxed);
    i += run;
  }
  return true;
}

bool RewiredRegion::TrySwapRemap(size_t region_offset, size_t buffer_offset,
                                 size_t len) {
  const size_t pages = len / page_size_;
  const size_t r0 = region_offset / page_size_;
  const size_t b0 = buffer_offset / page_size_;
  // Swap the backing tables, then republish both ranges.
  for (size_t i = 0; i < pages; ++i) {
    std::swap(region_backing_[r0 + i], buffer_backing_[b0 + i]);
  }
  if (RemapRuns(region_, r0, pages, region_backing_, r0,
                /*allow_failpoints=*/true) &&
      RemapRuns(buffer_, b0, pages, buffer_backing_, b0,
                /*allow_failpoints=*/true)) {
    return true;
  }
  // A run failed to publish partway through: un-swap the tables and
  // republish both ranges from the restored tables so every virtual page
  // maps its pre-call physical page again. Restoration must not fail —
  // a half-restored range would alias region and buffer pages — so it
  // bypasses failpoints and a persistent kernel failure here is still
  // terminal (with errno in the message via CheckFailed).
  const int saved_errno = errno;
  for (size_t i = 0; i < pages; ++i) {
    std::swap(region_backing_[r0 + i], buffer_backing_[b0 + i]);
  }
  CPMA_CHECK_MSG(RemapRuns(region_, r0, pages, region_backing_, r0,
                           /*allow_failpoints=*/false),
                 "failed to restore region mappings after remap failure");
  CPMA_CHECK_MSG(RemapRuns(buffer_, b0, pages, buffer_backing_, b0,
                           /*allow_failpoints=*/false),
                 "failed to restore buffer mappings after remap failure");
  DegradeToCopy("remap publication failed", saved_errno);
  return false;
}

#endif  // __linux__

void RewiredRegion::DegradeToCopy(const char* reason, int saved_errno) {
  num_remap_failures_.fetch_add(1, std::memory_order_relaxed);
  bool was = degraded_.exchange(true, std::memory_order_relaxed);
  if (!was) {
    std::fprintf(stderr,
                 "cpma: rewiring degraded to copy publishes: %s: errno %d "
                 "(%s)\n",
                 reason, saved_errno, std::strerror(saved_errno));
  }
}

void RewiredRegion::SwapPages(size_t region_offset, size_t buffer_offset,
                              size_t len) {
  CPMA_CHECK(CanSwap(region_offset, buffer_offset, len));

#if defined(__linux__)
  if (fd_ >= 0 && !degraded_.load(std::memory_order_relaxed)) {
    if (CPMA_FAILPOINT("rewiring.remap")) {
      // Whole-publication failure injected before any mapping changed:
      // degrade straight to the copy path below.
      DegradeToCopy("injected rewiring.remap failure", ENOMEM);
    } else if (TrySwapRemap(region_offset, buffer_offset, len)) {
      return;
    }
    // TrySwapRemap restored the old mappings; fall through to copy.
  }
#endif

  // Fallback: single copy buffer -> region (callers stage data in the
  // buffer; this is the classical two-copies rebalance, second copy
  // here). The destination races with optimistic gate readers, so the
  // copy is tagged (common/tagged.h).
  TaggedCopyWords(region_ + region_offset, buffer_ + buffer_offset, len);
  num_remaps_.fetch_add(1, std::memory_order_relaxed);
  num_fallback_copies_.fetch_add(1, std::memory_order_relaxed);
}

size_t RewiredRegion::backing_page_bytes() const {
#if defined(__linux__)
  // Walk /proc/self/smaps to the mapping holding the live region and
  // report 2 MiB iff the kernel has PMD-sized pages faulted in for it
  // (memfd maps show ShmemPmdMapped/FilePmdMapped, the plain-new
  // fallback AnonHugePages). Reading smaps is microseconds — callers
  // are bench reporters, not hot paths.
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return page_size_;
  const unsigned long target = reinterpret_cast<unsigned long>(region_);
  char line[256];
  bool in_mapping = false;
  size_t result = page_size_;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line, "%lx-%lx ", &lo, &hi) == 2) {
      if (in_mapping && target < lo) break;  // past our mapping
      in_mapping = target >= lo && target < hi;
      continue;
    }
    if (!in_mapping) continue;
    size_t kb = 0;
    if (std::sscanf(line, "AnonHugePages: %zu", &kb) == 1 ||
        std::sscanf(line, "ShmemPmdMapped: %zu", &kb) == 1 ||
        std::sscanf(line, "FilePmdMapped: %zu", &kb) == 1) {
      if (kb > 0) {
        result = 2u * 1024 * 1024;
        break;
      }
    }
  }
  std::fclose(f);
  return result;
#else
  return page_size_;
#endif
}

}  // namespace cpma
