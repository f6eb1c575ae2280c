// Per-key FIFO ordering for the async modes (ISSUE 5).
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// runs the deterministic scenarios on the scalar and AVX2 kernels, the
// concurrent pass re-runs everything (including the multi-writer FIFO
// storm) under TSan, where the queue hand-off to the rebalancer and the
// stamp-ordered merges must stay race-free.
//
//  - StrictHandoffAppliesInOrder: a writer whose op triggers a
//    fence-moving multi-gate rebalance hands it to the master inside
//    the combining queue; the op lands exactly once and a later op on
//    the same key wins (FIFO). An op found outside its gate's fences
//    aborts the process (ConcurrentPMA::OwnerApplyAndDrain), so the
//    hand-off is checked on every run.
//  - FifoStorm*: three writers, per-key monotone values, bursts of
//    same-key ops with no flush in between, tiny segments so fences
//    move constantly; the final state must be exactly the last issued
//    op per key in all three async modes.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_pma.h"

namespace cpma {
namespace {

/// Smallest legal geometry: 4-slot segments, 2 segments per gate, 4
/// initial segments (2 gates). All preloaded keys land in gate 0 (gate
/// 1 starts with an empty fence range), so the first global rebalance
/// provably moves the fence between the two gates.
ConcurrentConfig TinyConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 4;
  cfg.pma.initial_num_segments = 4;
  cfg.segments_per_gate = 2;
  cfg.rebalancer_workers = 1;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 1;
  return cfg;
}

/// Fill gate 0 with 7 of its 8 slots so the next ascending insert that
/// hits a full segment must escalate to a multi-gate rebalance.
void PreloadSevens(ConcurrentPMA* pma) {
  for (Key k = 10; k <= 70; k += 10) pma->Insert(k, k);
  pma->Flush();
  ASSERT_EQ(pma->num_global_rebalances(), 0u);
}

/// Ascending inserts above the preload until one triggers a global
/// rebalance (its target segment is full and the in-gate window cannot
/// absorb it). Returns the keys inserted, in order; the last one is the
/// op that rode the fence move inside the combining queue.
std::vector<Key> InsertUntilGlobalRebalance(ConcurrentPMA* pma) {
  std::vector<Key> keys;
  for (Key k = 75; k < 75 + 16; ++k) {
    keys.push_back(k);
    pma->Insert(k, 1000 + k);
    if (pma->num_global_rebalances() > 0) break;
  }
  return keys;
}

TEST(RerouteOrder, StrictHandoffAppliesInOrder) {
  ConcurrentPMA pma(TinyConfig(ConcurrentConfig::AsyncMode::kOneByOne));

  PreloadSevens(&pma);
  const std::vector<Key> keys = InsertUntilGlobalRebalance(&pma);
  ASSERT_GT(pma.num_global_rebalances(), 0u)
      << "scenario failed to force a multi-gate rebalance";
  pma.Flush();

  // The op whose key crossed the moved fence was folded into the
  // master's merged spread: every op applied exactly once, at its
  // stamped position.
  for (Key k : keys) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    EXPECT_EQ(v, 1000 + k) << "key " << k;
  }
  // Per-key FIFO: a younger op on the fence-crossing key wins.
  const Key crossed = keys.back();
  pma.Insert(crossed, 4242);
  pma.Flush();
  Value v = 0;
  ASSERT_TRUE(pma.Find(crossed, &v));
  EXPECT_EQ(v, 4242);

  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
}

// ------------------------------------------------------------- storm

struct StormParam {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

class FifoStorm : public ::testing::TestWithParam<StormParam> {};

// Three writers, disjoint key strides, per-key monotone values, and —
// the part the pre-ISSUE-5 contract could not survive — bursts of
// consecutive ops on the SAME key with no Flush between them, while
// tiny segments keep fences moving. Strict ordering must deliver the
// last issued op per key as the final state, exactly.
TEST_P(FifoStorm, LastIssuedOpWinsPerKey) {
  ConcurrentPMA pma(TinyConfig(GetParam().mode));
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 8000;
  constexpr Key kRange = 1 << 10;

  std::vector<std::map<Key, std::optional<Value>>> last(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(500 + static_cast<uint64_t>(w));
      auto& mine = last[static_cast<size_t>(w)];
      Value ctr = 0;
      for (int i = 0; i < kOpsPerWriter;) {
        const Key k =
            rng.NextBounded(kRange) * kWriters + static_cast<Key>(w);
        // Burst of 1-4 ops on this key, issued back to back.
        const int burst = 1 + static_cast<int>(rng.NextBounded(4));
        for (int b = 0; b < burst && i < kOpsPerWriter; ++b, ++i) {
          if (rng.NextBounded(4) == 0) {
            pma.Remove(k);
            mine[k] = std::nullopt;
          } else {
            const Value v = ++ctr;
            pma.Insert(k, v);
            mine[k] = v;
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();

  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  size_t expected = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (const auto& [k, v] : last[static_cast<size_t>(w)]) {
      Value got = 0;
      const bool found = pma.Find(k, &got);
      if (v.has_value()) {
        ++expected;
        ASSERT_TRUE(found) << "writer " << w << " key " << k;
        ASSERT_EQ(got, *v) << "writer " << w << " key " << k;
      } else {
        ASSERT_FALSE(found) << "writer " << w << " removed key " << k;
      }
    }
  }
  EXPECT_EQ(pma.Size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FifoStorm,
    ::testing::Values(
        StormParam{ConcurrentConfig::AsyncMode::kSync, "sync"},
        StormParam{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        StormParam{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<StormParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cpma
