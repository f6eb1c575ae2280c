// Tests for the concurrent PMA: single-threaded semantics first (against
// a std::map oracle), then multi-threaded stress across all async modes,
// with invariants validated at quiesce points. Resize storms are forced
// with tiny segments.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/rebalancer.h"

namespace cpma {
namespace {

using AsyncMode = ConcurrentConfig::AsyncMode;

ConcurrentConfig SmallConfig(AsyncMode mode, size_t seg_cap = 16,
                             int64_t t_delay = 10) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = seg_cap;
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = t_delay;
  return cfg;
}

// ---------------------------------------------------------- basic single

TEST(ConcurrentPma, InsertFindSmoke) {
  ConcurrentPMA pma;
  pma.Insert(10, 100);
  pma.Insert(5, 50);
  pma.Insert(20, 200);
  pma.Flush();
  Value v = 0;
  EXPECT_TRUE(pma.Find(10, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(pma.Find(5, &v));
  EXPECT_FALSE(pma.Find(15, &v));
  EXPECT_EQ(pma.Size(), 3u);
}

TEST(ConcurrentPma, UpsertAndRemove) {
  ConcurrentPMA pma;
  pma.Insert(1, 10);
  pma.Insert(1, 20);
  pma.Remove(1);
  pma.Remove(99);  // absent
  pma.Flush();
  EXPECT_FALSE(pma.Find(1, nullptr));
  EXPECT_EQ(pma.Size(), 0u);
}

TEST(ConcurrentPma, EmptyStructureBehaves) {
  ConcurrentPMA pma;
  EXPECT_EQ(pma.SumAll(), 0u);
  EXPECT_FALSE(pma.Find(7, nullptr));
  int n = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 0);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPma, NameReflectsMode) {
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kSync)).Name().find("sync"),
            std::string::npos);
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kOneByOne))
                .Name()
                .find("1by1"),
            std::string::npos);
  EXPECT_NE(ConcurrentPMA(SmallConfig(AsyncMode::kBatch)).Name().find("batch"),
            std::string::npos);
}

class ConcurrentPmaModes : public ::testing::TestWithParam<AsyncMode> {};

TEST_P(ConcurrentPmaModes, SingleThreadMatchesOracle) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  std::map<Key, Value> oracle;
  Random rng(42);
  for (int op = 0; op < 30000; ++op) {
    Key k = rng.NextBounded(4000);
    if (rng.NextBounded(10) < 7) {
      Value v = rng.Next();
      pma.Insert(k, v);
      oracle[k] = v;
    } else {
      pma.Remove(k);
      oracle.erase(k);
    }
    if (op % 10000 == 9999) {
      pma.Flush();
      std::string err;
      ASSERT_TRUE(pma.CheckInvariants(&err)) << err << " at op " << op;
      ASSERT_EQ(pma.Size(), oracle.size()) << "at op " << op;
    }
  }
  pma.Flush();
  std::vector<std::pair<Key, Value>> got;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    got.emplace_back(k, v);
    return true;
  });
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first);
    ASSERT_EQ(got[i].second, it->second);
  }
}

TEST_P(ConcurrentPmaModes, GrowAndShrinkThroughResizes) {
  ConcurrentPMA pma(SmallConfig(GetParam(), /*seg_cap=*/8, /*t_delay=*/5));
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) pma.Insert(static_cast<Key>(i), i);
  pma.Flush();
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kN));
  EXPECT_GT(pma.num_resizes(), 0u) << "tiny segments must force resizes";
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  const size_t grown = pma.capacity();
  for (int i = 0; i < kN; ++i) pma.Remove(static_cast<Key>(i));
  pma.Flush();
  EXPECT_EQ(pma.Size(), 0u);
  EXPECT_LT(pma.capacity(), grown);
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  // Still usable after the storm.
  pma.Insert(1, 2);
  pma.Flush();
  EXPECT_TRUE(pma.Find(1, nullptr));
}

TEST_P(ConcurrentPmaModes, SequentialKeysWorstCase) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  for (Key k = 0; k < 30000; ++k) pma.Insert(k, k * 2);
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  Value v;
  for (Key k = 0; k < 30000; k += 977) {
    ASSERT_TRUE(pma.Find(k, &v));
    ASSERT_EQ(v, k * 2);
  }
}

TEST_P(ConcurrentPmaModes, ScanBoundsAndEarlyStop) {
  ConcurrentPMA pma(SmallConfig(GetParam()));
  for (Key k = 0; k < 2000; ++k) pma.Insert(k * 10, k);
  pma.Flush();
  std::vector<Key> seen;
  pma.Scan(95, 205, [&](Key k, Value) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 200u);
  int visited = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConcurrentPmaModes,
                         ::testing::Values(AsyncMode::kSync,
                                           AsyncMode::kOneByOne,
                                           AsyncMode::kBatch),
                         [](const ::testing::TestParamInfo<AsyncMode>& info) {
                           switch (info.param) {
                             case AsyncMode::kSync: return "Sync";
                             case AsyncMode::kOneByOne: return "OneByOne";
                             case AsyncMode::kBatch: return "Batch";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------------------- concurrent

struct StressParam {
  AsyncMode mode;
  int writers;
  int readers;
  bool skewed;
  size_t seg_cap;
};

class ConcurrentStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConcurrentStress, WritersAndScannersConverge) {
  const StressParam p = GetParam();
  ConcurrentPMA pma(SmallConfig(p.mode, p.seg_cap, /*t_delay=*/5));
  constexpr int kOpsPerWriter = 8000;
  const uint64_t key_space = 1 << 16;

  // Per-writer disjoint key ranges let us compute the expected final
  // state without cross-thread op ordering ambiguity.
  std::vector<std::map<Key, Value>> expected(p.writers);
  std::vector<std::thread> threads;
  std::atomic<bool> stop_readers{false};

  for (int w = 0; w < p.writers; ++w) {
    threads.emplace_back([&, w] {
      Random rng(1000 + w);
      ZipfDistribution zipf(key_space, 1.2);
      auto& exp = expected[w];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        uint64_t raw = p.skewed ? zipf.Sample(rng)
                                : 1 + rng.NextBounded(key_space);
        // Disjoint: key = raw * writers + w.
        Key k = raw * static_cast<uint64_t>(p.writers) + w;
        if (rng.NextBounded(10) < 7) {
          pma.Insert(k, k + i);
          exp[k] = k + i;
        } else {
          pma.Remove(k);
          exp.erase(k);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < p.readers; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop_readers.load()) {
        sink += pma.SumAll();
        Value v;
        pma.Find(12345, &v);
      }
      (void)sink;
    });
  }
  for (auto& t : threads) t.join();
  stop_readers.store(true);
  for (auto& t : readers) t.join();
  pma.Flush();

  std::map<Key, Value> oracle;
  for (auto& exp : expected) oracle.insert(exp.begin(), exp.end());

  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), oracle.size());
  std::vector<std::pair<Key, Value>> got;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    got.emplace_back(k, v);
    return true;
  });
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first) << "at index " << i;
    ASSERT_EQ(got[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentStress,
    ::testing::Values(StressParam{AsyncMode::kSync, 4, 2, false, 16},
                      StressParam{AsyncMode::kSync, 4, 2, true, 16},
                      StressParam{AsyncMode::kOneByOne, 4, 2, false, 16},
                      StressParam{AsyncMode::kOneByOne, 8, 0, true, 16},
                      StressParam{AsyncMode::kOneByOne, 4, 2, true, 8},
                      StressParam{AsyncMode::kBatch, 4, 2, false, 16},
                      StressParam{AsyncMode::kBatch, 8, 0, true, 16},
                      StressParam{AsyncMode::kBatch, 4, 2, true, 8}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      const auto& p = info.param;
      std::string name;
      switch (p.mode) {
        case AsyncMode::kSync: name = "Sync"; break;
        case AsyncMode::kOneByOne: name = "OneByOne"; break;
        case AsyncMode::kBatch: name = "Batch"; break;
      }
      name += "_w" + std::to_string(p.writers) + "r" +
              std::to_string(p.readers);
      name += p.skewed ? "_zipf" : "_uniform";
      name += "_B" + std::to_string(p.seg_cap);
      return name;
    });

TEST(ConcurrentPmaHeavy, HighSkewSingleHotGate) {
  // All writers hammer the same tiny key range: the worst case for gate
  // contention, exercising the combining queue continuously.
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 16, /*t_delay=*/2));
  constexpr int kWriters = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        // Insert-only, disjoint keys in a hot range.
        pma.Insert(static_cast<Key>(i * kWriters + w), 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kWriters * kOps));
  EXPECT_GT(pma.num_queued_ops(), 0u)
      << "hot-gate workload should exercise the combining queue";
}

TEST(ConcurrentPmaHeavy, ResizeStormWithConcurrentScanners) {
  // Tiny capacity + rapid growth and shrink while scanners run: stresses
  // the epoch/invalidation protocol.
  ConcurrentConfig cfg = SmallConfig(AsyncMode::kOneByOne, 8);
  ConcurrentPMA pma(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int r = 0; r < 3; ++r) {
    scanners.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load()) sink += pma.SumAll();
      (void)sink;
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 4000; ++i) {
          pma.Insert(static_cast<Key>(i * 4 + w), i);
        }
        for (int i = 0; i < 4000; ++i) {
          pma.Remove(static_cast<Key>(i * 4 + w));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : scanners) t.join();
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 0u);
  EXPECT_GT(pma.num_resizes(), 1u);
}

TEST(ConcurrentPmaHeavy, ReadersSeeConsistentValuesForStableKeys) {
  // Keys 0..999 are written once and never touched again; concurrent
  // writers churn a disjoint range. Readers must always see the stable
  // keys with their exact values.
  ConcurrentPMA pma(SmallConfig(AsyncMode::kOneByOne));
  for (Key k = 0; k < 1000; ++k) pma.Insert(2 * k, k + 7);  // even keys
  pma.Flush();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    // Capture r by value: a [&] capture would read the loop counter while
    // the main thread increments it (a TSan-reported data race).
    readers.emplace_back([&, r] {
      Random rng(r);
      while (!stop.load()) {
        Key k = 2 * rng.NextBounded(1000);
        Value v = 0;
        if (!pma.Find(k, &v) || v != k / 2 + 7) {
          failed.store(true);
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 3; ++round) {
      for (Key k = 0; k < 30000; ++k) {
        pma.Insert(100000 + 2 * k + 1, k);  // odd keys, far range
      }
      for (Key k = 0; k < 30000; ++k) pma.Remove(100000 + 2 * k + 1);
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  pma.Flush();
  EXPECT_FALSE(failed.load()) << "a stable key disappeared or changed";
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPmaHeavy, FlushDrainsBatchQueues) {
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 16, /*t_delay=*/500));
  // With a long t_delay, updates sit in queues; Flush must force them.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 2000; ++i) {
        pma.Insert(static_cast<Key>(i * 4 + w), 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();
  EXPECT_EQ(pma.Size(), 8000u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(ConcurrentPmaStats, RebalancesAndBatchesAreCounted) {
  ConcurrentPMA pma(SmallConfig(AsyncMode::kBatch, 8, /*t_delay=*/1));
  for (Key k = 0; k < 20000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_GT(pma.num_local_rebalances(), 0u);
  EXPECT_GT(pma.num_resizes(), 0u);
}

// Right-edge appends, the ycsb_e write path. A sync writer hands its op
// to the rebalancer inside its gate's queue, so nearly every global
// window is a merged spread; only an adaptive merged plan keeps the
// appends from re-triggering ever more windows at the edge. One client
// thread in sync mode makes the counts deterministic; only the append
// phase is counted.
uint64_t GlobalRebalancesForAppends(bool adaptive) {
  ConcurrentConfig cfg;  // paper geometry: B = 128, 8 segments per gate
  cfg.async_mode = AsyncMode::kSync;
  cfg.rebalancer_workers = 2;
  cfg.pma.adaptive = adaptive;
  ConcurrentPMA pma(cfg);
  for (Key k = 2; k <= 400000; k += 2) pma.Insert(k, k);
  const uint64_t global0 = pma.num_global_rebalances();
  const uint64_t local0 = pma.num_local_rebalances();
  for (Key k = 400001; k <= 600000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_EQ(pma.Size(), 400000u);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
  const uint64_t global = pma.num_global_rebalances() - global0;
  std::printf("adaptive=%d appends: %llu global, %llu local rebalances\n",
              adaptive ? 1 : 0, static_cast<unsigned long long>(global),
              static_cast<unsigned long long>(pma.num_local_rebalances() -
                                              local0));
  return global;
}

TEST(ConcurrentPmaStats, AdaptiveMergedSpreadsHalveAppendWindows) {
  const uint64_t adaptive = GlobalRebalancesForAppends(true);
  const uint64_t even = GlobalRebalancesForAppends(false);
  EXPECT_GT(even, 0u);
  EXPECT_LE(2 * adaptive, even)
      << "adaptive " << adaptive << " vs even " << even << " global windows";
}

}  // namespace
}  // namespace cpma
