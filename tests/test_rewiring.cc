// Tests for mmap-based memory rewiring: aliasing behaviour, page swaps,
// fallback copies and alignment validation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "rewiring/rewiring.h"

namespace cpma {
namespace {

// Scoped CPMA_FORCE_NO_REWIRE=1: the env knob is read once per Create,
// so setting it only around construction pins that region (and only
// that region) to the anonymous fallback backend.
class ForcedNoRewire {
 public:
  ForcedNoRewire() {
    const char* prev = std::getenv("CPMA_FORCE_NO_REWIRE");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("CPMA_FORCE_NO_REWIRE", "1", 1);
  }
  ~ForcedNoRewire() {
    if (had_prev_) {
      setenv("CPMA_FORCE_NO_REWIRE", prev_.c_str(), 1);
    } else {
      unsetenv("CPMA_FORCE_NO_REWIRE");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(Rewiring, CreateZeroInitialised) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  ASSERT_NE(r, nullptr);
  for (size_t i = 0; i < r->region_bytes(); ++i) {
    ASSERT_EQ(r->data()[i], 0);
  }
}

TEST(Rewiring, RoundsUpToPages) {
  auto r = RewiredRegion::Create(1, 1);
  EXPECT_EQ(r->region_bytes() % r->page_size(), 0u);
  EXPECT_GE(r->region_bytes(), r->page_size());
}

TEST(Rewiring, SwapMovesBufferContentIntoRegion) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  const size_t page = r->page_size();
  std::memset(r->data(), 0xAA, page);
  std::memset(r->buffer(), 0xBB, page);
  r->SwapPages(0, 0, page);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[0]), 0xBB);
  EXPECT_EQ(static_cast<unsigned char>(r->data()[page - 1]), 0xBB);
  if (r->rewiring_enabled()) {
    // True rewiring is an exchange: the old region page is now the buffer.
    EXPECT_EQ(static_cast<unsigned char>(r->buffer()[0]), 0xAA);
  }
}

TEST(Rewiring, SwapAtNonZeroOffsets) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  const size_t page = r->page_size();
  std::memset(r->buffer() + 2 * page, 0x11, 3 * page);
  r->SwapPages(5 * page, 2 * page, 3 * page);
  for (size_t i = 0; i < 3 * page; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(r->data()[5 * page + i]), 0x11);
  }
  // Neighbours untouched.
  EXPECT_EQ(r->data()[4 * page], 0);
  EXPECT_EQ(r->data()[8 * page], 0);
}

TEST(Rewiring, RepeatedSwapsStayConsistent) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  const size_t page = r->page_size();
  // Write generation tags through the buffer, swap, verify, repeat. This
  // exercises the backing-table bookkeeping as the mappings fragment.
  for (int gen = 1; gen <= 20; ++gen) {
    const size_t off = (static_cast<size_t>(gen) % 8) * page;
    std::memset(r->buffer() + off, gen, page);
    r->SwapPages(off, off, page);
    ASSERT_EQ(r->data()[off], static_cast<char>(gen)) << "gen " << gen;
  }
}

TEST(Rewiring, CanSwapValidatesAlignment) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  const size_t page = r->page_size();
  EXPECT_TRUE(r->CanSwap(0, 0, page));
  EXPECT_FALSE(r->CanSwap(1, 0, page));
  EXPECT_FALSE(r->CanSwap(0, 1, page));
  EXPECT_FALSE(r->CanSwap(0, 0, page / 2));
  EXPECT_FALSE(r->CanSwap(0, 0, 0));
  EXPECT_FALSE(r->CanSwap(r->region_bytes(), 0, page));
  EXPECT_TRUE(r->CanSwap(r->region_bytes() - page, 0, page));
}

TEST(Rewiring, LargeMultiPageSwap) {
  const size_t bytes = 1 << 20;
  auto r = RewiredRegion::Create(bytes, bytes);
  std::vector<char> expect(bytes);
  std::iota(expect.begin(), expect.end(), 0);
  std::memcpy(r->buffer(), expect.data(), bytes);
  r->SwapPages(0, 0, bytes);
  EXPECT_EQ(std::memcmp(r->data(), expect.data(), bytes), 0);
}

TEST(Rewiring, RemapCounterAdvances) {
  auto r = RewiredRegion::Create(1 << 16, 1 << 16);
  const uint64_t before = r->num_remaps();
  r->SwapPages(0, 0, r->page_size());
  EXPECT_GT(r->num_remaps(), before);
}

TEST(Rewiring, AliasingAfterInterleavedSwaps) {
  // Swap pages 0 and 1 with buffer pages in opposite order and verify the
  // contents land where expected even as backing offsets scramble.
  auto r = RewiredRegion::Create(1 << 14, 1 << 14);
  const size_t page = r->page_size();
  std::memset(r->buffer() + 0 * page, 0x01, page);
  std::memset(r->buffer() + 1 * page, 0x02, page);
  r->SwapPages(0 * page, 1 * page, page);  // region p0 <- 0x02
  r->SwapPages(1 * page, 0 * page, page);  // region p1 <- 0x01
  EXPECT_EQ(r->data()[0], 0x02);
  EXPECT_EQ(r->data()[page], 0x01);
  // Swap them back out and in once more.
  std::memset(r->buffer() + 2 * page, 0x03, page);
  r->SwapPages(0, 2 * page, page);
  EXPECT_EQ(r->data()[0], 0x03);
}

// ---------------------------------------- degraded backend (ISSUE 7)
//
// CPMA_FORCE_NO_REWIRE=1 must yield a region that is slower (SwapPages
// copies) but otherwise indistinguishable: same zero-init, same swap
// semantics, same alignment validation. The `norewire` CTest
// configuration re-runs this whole suite plus test_concurrent_pma under
// the env var; these tests additionally pin the contract in-process so
// a plain `ctest` run covers it too.

TEST(RewiringNoRewire, ForcedFallbackIsFullyFunctional) {
  ForcedNoRewire guard;
  Status status;
  auto r = RewiredRegion::Create(1 << 16, 1 << 16, true, &status);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(r->rewiring_enabled());
  EXPECT_FALSE(r->degraded_to_copy());  // fallback != degraded-after-failure
  // Zero-initialised, page-rounded, swap moves buffer content.
  const size_t page = r->page_size();
  EXPECT_EQ(r->region_bytes() % page, 0u);
  for (size_t i = 0; i < r->region_bytes(); ++i) ASSERT_EQ(r->data()[i], 0);
  std::memset(r->buffer() + page, 0x5C, 2 * page);
  const uint64_t copies_before = r->num_fallback_copies();
  r->SwapPages(3 * page, page, 2 * page);
  for (size_t i = 0; i < 2 * page; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(r->data()[3 * page + i]), 0x5C);
  }
  EXPECT_EQ(r->data()[2 * page], 0);
  EXPECT_EQ(r->data()[5 * page], 0);
  EXPECT_GT(r->num_fallback_copies(), copies_before);
  // Alignment validation is backend-independent.
  EXPECT_TRUE(r->CanSwap(0, 0, page));
  EXPECT_FALSE(r->CanSwap(1, 0, page));
}

TEST(RewiringNoRewire, ForcedFallbackSurvivesRepeatedSwaps) {
  ForcedNoRewire guard;
  auto r = RewiredRegion::Create(1 << 14, 1 << 14);
  ASSERT_NE(r, nullptr);
  ASSERT_FALSE(r->rewiring_enabled());
  const size_t page = r->page_size();
  for (int gen = 1; gen <= 20; ++gen) {
    const size_t off = (static_cast<size_t>(gen) % 4) * page;
    std::memset(r->buffer() + off, gen, page);
    r->SwapPages(off, off, page);
    ASSERT_EQ(r->data()[off], static_cast<char>(gen)) << "gen " << gen;
  }
}

TEST(RewiringNoRewire, EnvReadPerCreateNotProcessWide) {
  std::unique_ptr<RewiredRegion> forced;
  {
    ForcedNoRewire guard;
    forced = RewiredRegion::Create(1 << 14, 1 << 14);
  }
  auto fresh = RewiredRegion::Create(1 << 14, 1 << 14);
  ASSERT_NE(forced, nullptr);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(forced->rewiring_enabled());
  // With the env var restored, a new region negotiates its own backend
  // (real rewiring on any Linux box where memfd works).
  if (fresh->rewiring_enabled()) {
    EXPECT_EQ(fresh->num_fallback_copies(), 0u);
  }
}

}  // namespace
}  // namespace cpma
