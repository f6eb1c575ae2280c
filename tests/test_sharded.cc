// Sharded front end (ISSUE 8): router, coalescing front door, ordered
// cross-shard scans, and shard-local fault containment.
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// runs the deterministic router/cursor/batch scenarios; the concurrent
// pass re-runs everything under TSan, where the coalescing flush
// hand-off (append lock -> flush lock -> UpdateBatch block stamping)
// and the k-way merged scans against live writers must stay race-free.
//
//  - Router*: range partition edge cases (domain ends, custom splitter
//    boundaries, monotonicity), hash partition coverage + stability.
//  - ScanCursor*: the pull-based chunk cursor underlying the merge —
//    concatenated chunks == the sorted range, one segment run per
//    chunk, trimming, empty ranges, resuming from the last delivered
//    key after an insert, nested scans, and the forced-fallback path
//    delivering the same runs.
//  - UpdateBatch*: block stamp reservation applies a producer-ordered
//    run exactly like one-by-one issue (same-key runs: last op wins),
//    also when the run spans resizes under its one epoch pin.
//  - Coalescing*: staged ops are invisible until a size/age/Flush
//    trigger; the age flusher bounds visibility lag without Flush().
//  - FifoThroughCoalescing (storm, x3 async modes): the ISSUE 5 storm
//    driven through the coalescing front door — 3 writers, same-key
//    bursts, tiny segments — per-key last-issued-op must win exactly.
//  - ScanUnderWriters: ordered cross-shard scans (range concatenation
//    AND hash k-way merge) stay strictly ascending while writers mutate
//    every shard.
//  - ChaosShardLocal: with storage.create failing process-wide, only
//    the shard that resizes meets the fault and retries; the idle shards
//    neither retry nor resize, and every op still applies exactly
//    (containment: a fault amplified by load on one key range cannot
//    reach the rest of the fleet).
//  - EnvKnobs: CPMA_SHARDS / CPMA_COALESCE_OPS / CPMA_COALESCE_AGE_MS
//    override the config; garbage values are ignored with a warning.
//  - Placement: pin_workers pins shard i's rebalancer master to
//    pin-order slot i.

#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/pin.h"
#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "ebr_wait.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

/// Tiny per-shard geometry (see test_reroute_order.cc): 4-slot
/// segments, 2 per gate, so fences move and resizes trigger constantly
/// under storm load.
ConcurrentConfig TinyShard(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 4;
  cfg.pma.initial_num_segments = 4;
  cfg.segments_per_gate = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 1;
  return cfg;
}

ShardedConfig TinySharded(size_t shards, ShardedConfig::Partition part,
                          size_t coalesce = 0,
                          ConcurrentConfig::AsyncMode mode =
                              ConcurrentConfig::AsyncMode::kSync) {
  ShardedConfig cfg;
  cfg.shard = TinyShard(mode);
  cfg.num_shards = shards;
  cfg.partition = part;
  cfg.coalesce_ops = coalesce;
  cfg.coalesce_age_ms = 1;
  return cfg;
}

// ------------------------------------------------------------- router

TEST(Router, RangeDefaultSplittersCoverTheDomain) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kRange));
  EXPECT_EQ(pma.ShardOf(kKeyMin), 0u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 3u);
  // Monotone non-decreasing over an ascending key sweep.
  size_t prev = 0;
  std::set<size_t> seen;
  for (Key k = 0; k < 64; ++k) {
    const Key key = (kKeyMax / 63) * k;
    const size_t s = pma.ShardOf(key);
    ASSERT_GE(s, prev) << "router not monotone at key " << key;
    ASSERT_LT(s, 4u);
    prev = s;
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "uniform split left a shard unreachable";
}

TEST(Router, RangeCustomSplitterBoundaries) {
  ShardedConfig cfg = TinySharded(4, ShardedConfig::Partition::kRange);
  cfg.splitters = {1000, 2000, 3000};
  ShardedPMA pma(cfg);
  // A splitter is the LOWEST key of the right-hand shard.
  EXPECT_EQ(pma.ShardOf(0), 0u);
  EXPECT_EQ(pma.ShardOf(999), 0u);
  EXPECT_EQ(pma.ShardOf(1000), 1u);
  EXPECT_EQ(pma.ShardOf(1999), 1u);
  EXPECT_EQ(pma.ShardOf(2000), 2u);
  EXPECT_EQ(pma.ShardOf(2999), 2u);
  EXPECT_EQ(pma.ShardOf(3000), 3u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 3u);
}

TEST(Router, SingleShardRoutesEverythingToZero) {
  ShardedPMA pma(TinySharded(1, ShardedConfig::Partition::kRange));
  EXPECT_EQ(pma.ShardOf(kKeyMin), 0u);
  EXPECT_EQ(pma.ShardOf(kKeyMax), 0u);
  EXPECT_EQ(pma.num_shards(), 1u);
}

TEST(Router, HashCoversAllShardsAndIsStable) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash));
  std::set<size_t> seen;
  for (Key k = 0; k < 4096; ++k) {
    const size_t s = pma.ShardOf(k);
    ASSERT_LT(s, 4u);
    ASSERT_EQ(s, pma.ShardOf(k)) << "router not deterministic";
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "splitmix64 left a shard empty on 4k keys";
}

// --------------------------------------------------------- scan cursor

TEST(ScanCursor, ChunksConcatenateToTheSortedRange) {
  ConcurrentConfig cfg = TinyShard(ConcurrentConfig::AsyncMode::kSync);
  cfg.segments_per_gate = 8;  // a gate holds many segments' worth
  ConcurrentPMA pma(cfg);
  std::vector<Key> keys;
  for (Key k = 10; k <= 1000; k += 10) {
    keys.push_back(k);
    pma.Insert(k, k * 2);
  }
  pma.Flush();

  ConcurrentPMA::ScanCursor cur(pma, kKeyMin, kKeyMax);
  std::vector<Item> chunk;
  std::vector<Item> all;
  while (cur.NextChunk(&chunk)) {
    ASSERT_FALSE(chunk.empty()) << "NextChunk returned true with no items";
    // One segment run per chunk, never a gate's worth.
    ASSERT_LE(chunk.size(), pma.config().pma.segment_capacity);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(all.size(), keys.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].key, keys[i]);
    EXPECT_EQ(all[i].value, keys[i] * 2);
    if (i > 0) {
      ASSERT_GT(all[i].key, all[i - 1].key);
    }
  }
}

TEST(ScanCursor, TrimsToTheRequestedRange) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  for (Key k = 1; k <= 200; ++k) pma.Insert(k, k);
  pma.Flush();

  ConcurrentPMA::ScanCursor cur(pma, 50, 150);
  std::vector<Item> chunk;
  std::vector<Key> got;
  while (cur.NextChunk(&chunk)) {
    for (const Item& it : chunk) got.push_back(it.key);
  }
  ASSERT_EQ(got.size(), 101u);
  EXPECT_EQ(got.front(), 50u);
  EXPECT_EQ(got.back(), 150u);
}

TEST(ScanCursor, EmptyAndInvertedRanges) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  pma.Insert(100, 1);
  pma.Flush();
  std::vector<Item> chunk;
  {
    ConcurrentPMA::ScanCursor cur(pma, 200, 100);  // min > max
    EXPECT_FALSE(cur.NextChunk(&chunk));
  }
  {
    ConcurrentPMA::ScanCursor cur(pma, 101, 99999);  // nothing in range
    EXPECT_FALSE(cur.NextChunk(&chunk));
  }
}

TEST(ScanCursor, ResumesFromTheLastDeliveredKey) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  std::set<Key> expect;
  for (Key k = 10; k <= 400; k += 10) {
    pma.Insert(k, k);
    expect.insert(k);
  }
  pma.Flush();

  ConcurrentPMA::ScanCursor cur(pma, kKeyMin, kKeyMax);
  std::vector<Item> chunk;
  ASSERT_TRUE(cur.NextChunk(&chunk));
  std::vector<Key> got;
  for (const Item& it : chunk) got.push_back(it.key);
  const Key last = got.back();
  // Both land in the gate the cursor stands in: the gap above `last`
  // is still ahead of the cursor, the one below it is behind.
  pma.Insert(last + 5, last + 5);
  pma.Insert(last - 5, last - 5);
  pma.Flush();
  while (cur.NextChunk(&chunk)) {
    for (const Item& it : chunk) got.push_back(it.key);
  }
  expect.insert(last + 5);
  EXPECT_EQ(std::vector<Key>(expect.begin(), expect.end()), got);
}

TEST(ScanCursor, NestedScanReturnsItsOwnItems) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  for (Key k = 1; k <= 300; ++k) pma.Insert(k, k * 3);
  pma.Flush();

  // Each outer item opens an inner scan from the same thread; the two
  // must not share a run buffer.
  Key expect_outer = 50;
  bool ok = true;
  pma.Scan(50, 250, [&](Key k, Value v) {
    ok = ok && k == expect_outer++ && v == k * 3;
    Key expect_inner = k;
    pma.Scan(k, k + 20, [&](Key ik, Value iv) {
      ok = ok && ik == expect_inner++ && iv == ik * 3;
      return true;
    });
    ok = ok && expect_inner == k + 21;
    return true;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(expect_outer, 251u);
}

TEST(ScanCursor, ForcedFallbackDeliversTheSameRuns) {
  auto runs = [](ConcurrentPMA* pma) {
    Random rng(41);
    for (int i = 0; i < 2000; ++i) {
      const Key k = 1 + rng.NextBounded(5000);
      pma->Insert(k, k ^ 0x5A5A);
    }
    pma->Flush();
    std::vector<std::vector<Item>> out;
    ConcurrentPMA::ScanCursor cur(*pma, 700, 4300);
    std::vector<Item> chunk;
    while (cur.NextChunk(&chunk)) out.push_back(chunk);
    return out;
  };
  ConcurrentPMA optimistic(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  const auto want = runs(&optimistic);
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");
  ConcurrentPMA blocking(TinyShard(ConcurrentConfig::AsyncMode::kSync));
  ASSERT_EQ(blocking.optimistic_retries(), 0);
  const auto got = runs(&blocking);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "run " << r;
    for (size_t i = 0; i < got[r].size(); ++i) {
      EXPECT_EQ(got[r][i].key, want[r][i].key);
      EXPECT_EQ(got[r][i].value, want[r][i].value);
    }
  }
  EXPECT_GT(blocking.num_read_fallbacks(), 0u);
  EXPECT_EQ(blocking.num_optimistic_gate_reads(), 0u);
}

// -------------------------------------------------------- update batch

TEST(UpdateBatch, AppliesAProducerOrderedRunExactly) {
  ConcurrentPMA pma(TinyShard(ConcurrentConfig::AsyncMode::kOneByOne));
  // Same-key runs: the LAST op of the run must win (block stamps
  // reproduce issue order). Key 7: insert 1, insert 2, remove, insert 3.
  std::vector<GateOp> ops = {
      {GateOp::Type::kInsert, 7, 1, 0},  {GateOp::Type::kInsert, 5, 50, 0},
      {GateOp::Type::kInsert, 7, 2, 0},  {GateOp::Type::kRemove, 7, 0, 0},
      {GateOp::Type::kInsert, 9, 90, 0}, {GateOp::Type::kInsert, 7, 3, 0},
  };
  pma.UpdateBatch(ops.data(), ops.size());
  pma.UpdateBatch(nullptr, 0);  // n = 0 is a no-op
  pma.Flush();

  Value v = 0;
  ASSERT_TRUE(pma.Find(7, &v));
  EXPECT_EQ(v, 3u);
  ASSERT_TRUE(pma.Find(5, &v));
  EXPECT_EQ(v, 50u);
  ASSERT_TRUE(pma.Find(9, &v));
  EXPECT_EQ(v, 90u);
  EXPECT_EQ(pma.Size(), 3u);
}

// One run spanning several resizes of a tiny shard. UpdateBatch pins
// the epoch once for the run; an op that meets an invalidated gate
// re-pins and restarts on the new structure. Every op must still land
// in issue order (per key the last op wins), the structure must stay
// valid under a concurrent Find/Scan reader, and the structures the
// resizes retired must be freed once the run is over. Sync and
// one-by-one writers wait for each resize, so those runs span several;
// a batch-mode run never waits for the master and may queue most of
// its ops before the master merges them, so there the resizes may fall
// after the run.
TEST(UpdateBatch, RunSpanningResizesKeepsFifo) {
  using Mode = ConcurrentConfig::AsyncMode;
  for (Mode mode : {Mode::kSync, Mode::kOneByOne, Mode::kBatch}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    ConcurrentPMA pma(TinyShard(mode));
    constexpr size_t kOps = 4000;
    constexpr Key kKeys = 1024;
    Random rng(7 + static_cast<uint64_t>(mode));
    std::vector<GateOp> ops;
    std::map<Key, Value> model;
    for (size_t i = 0; i < kOps; ++i) {
      const Key k = 1 + rng.NextBounded(kKeys);
      if (rng.NextBounded(4) == 0) {
        ops.push_back({GateOp::Type::kRemove, k, 0, 0});
        model.erase(k);
      } else {
        ops.push_back({GateOp::Type::kInsert, k, i + 1, 0});
        model[k] = i + 1;
      }
    }

    std::atomic<bool> stop{false};
    std::thread reader([&] {
      Random r(99);
      while (!stop.load(std::memory_order_relaxed)) {
        Value v = 0;
        pma.Find(1 + r.NextBounded(kKeys), &v);
        const Key lo = r.NextBounded(kKeys);
        Key prev = 0;
        bool first = true;
        pma.Scan(lo, lo + 64, [&](Key k, Value) {
          EXPECT_TRUE(first || k > prev) << "scan out of order";
          first = false;
          prev = k;
          return true;
        });
      }
    });
    const uint64_t resizes_before = pma.num_resizes();
    pma.UpdateBatch(ops.data(), ops.size());
    if (mode != Mode::kBatch) {
      EXPECT_GE(pma.num_resizes(), resizes_before + 3)
          << "the run should span several resizes";
    }
    pma.Flush();
    stop.store(true);
    reader.join();
    EXPECT_GT(pma.num_resizes(), resizes_before);

    std::string err;
    ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
    ASSERT_EQ(pma.Size(), model.size());
    std::map<Key, Value> got;
    pma.Scan(0, kKeyMax, [&](Key k, Value v) {
      got[k] = v;
      return true;
    });
    EXPECT_EQ(got, model) << "per key, the last op of the run must win";

    const EpochGCStats ebr = AwaitNoPendingGarbage(pma);
    EXPECT_GT(ebr.retired_count, 0u);
    EXPECT_EQ(ebr.pending_count, 0u) << "retired structures must drain";
  }
}

// ---------------------------------------------------------- coalescing

TEST(Coalescing, StagedOpsBecomeVisibleOnFlush) {
  ShardedConfig cfg = TinySharded(2, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/1000);
  cfg.coalesce_age_ms = 0;  // no ager: only Flush() can drain
  ShardedPMA pma(cfg);
  for (Key k = 1; k <= 10; ++k) pma.Insert(k, k);
  Value v = 0;
  EXPECT_FALSE(pma.Find(1, &v)) << "staged op visible before any flush";
  pma.Flush();
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    EXPECT_EQ(v, k);
  }
  const auto st = pma.GetStats();
  EXPECT_EQ(st.coalesced_ops, 10u);
  EXPECT_EQ(st.direct_ops, 0u);
  EXPECT_GE(st.coalesced_flushes, 1u);
}

TEST(Coalescing, SizeTriggerFlushesWithoutExplicitFlush) {
  ShardedConfig cfg = TinySharded(1, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/4);
  cfg.coalesce_age_ms = 0;
  ShardedPMA pma(cfg);
  for (Key k = 1; k <= 4; ++k) pma.Insert(k, k);  // 4th hits the trigger
  pma.shard(0).Flush();  // drain the shard's async queues only
  Value v = 0;
  EXPECT_TRUE(pma.Find(1, &v)) << "size trigger did not flush the run";
  EXPECT_EQ(pma.GetStats().coalesced_flushes, 1u);
}

TEST(Coalescing, AgeFlusherBoundsVisibilityLag) {
  ShardedConfig cfg = TinySharded(2, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/1000);
  cfg.coalesce_age_ms = 1;
  ShardedPMA pma(cfg);
  pma.Insert(42, 4242);
  // One staged op, far below the size trigger: only the ager can
  // deliver it. Poll with a generous deadline (CI boxes stall).
  Value v = 0;
  bool seen = false;
  for (int i = 0; i < 2000 && !seen; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seen = pma.Find(42, &v);
  }
  ASSERT_TRUE(seen) << "age flusher never delivered the staged op";
  EXPECT_EQ(v, 4242u);
  EXPECT_GE(pma.GetStats().age_flushes, 1u);
}

// --------------------------------------------------- fifo storm (x3)

struct StormParam {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

class FifoThroughCoalescing : public ::testing::TestWithParam<StormParam> {};

// The ISSUE 5 storm (test_reroute_order.cc) driven through the sharded
// coalescing front door: 3 writers, per-key monotone values, bursts of
// same-key ops with no flush in between, 4 hash shards (one writer's
// stream spans every shard), coalesce runs of 8 racing the 1 ms age
// flusher. Per-key, per-producer FIFO must survive the staging layer:
// the final state is exactly the last issued op per key.
TEST_P(FifoThroughCoalescing, LastIssuedOpWinsPerKey) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash,
                             /*coalesce=*/8, GetParam().mode));
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
  for (size_t s = 0; s < pma.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(pma.shard(s).CheckInvariants(&err))
        << "shard " << s << ": " << err;
  }
  // Everything went through staging, nothing took the direct path.
  const auto st = pma.GetStats();
  EXPECT_EQ(st.direct_ops, 0u);
  EXPECT_EQ(st.coalesced_ops,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FifoThroughCoalescing,
    ::testing::Values(
        StormParam{ConcurrentConfig::AsyncMode::kSync, "sync"},
        StormParam{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        StormParam{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<StormParam>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------- scans under writers

void ScanOrderingUnderWriters(ShardedConfig::Partition part) {
  ShardedPMA pma(TinySharded(4, part, /*coalesce=*/8,
                             ConcurrentConfig::AsyncMode::kOneByOne));
  constexpr int kWriters = 2;
  constexpr Key kRange = 1 << 12;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(900 + static_cast<uint64_t>(w));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        pma.Insert(rng.NextBounded(kRange), ++i);
        if (rng.NextBounded(8) == 0) pma.Remove(rng.NextBounded(kRange));
      }
    });
  }
  // Ordered scans while every shard mutates: strictly ascending keys,
  // both for full-range and for a mid-range window.
  for (int pass = 0; pass < 50; ++pass) {
    const Key lo = pass % 2 == 0 ? kKeyMin : kRange / 4;
    const Key hi = pass % 2 == 0 ? kKeyMax : (3 * kRange) / 4;
    Key prev = 0;
    bool first = true;
    pma.Scan(lo, hi, [&](Key k, Value) {
      EXPECT_TRUE(first || k > prev)
          << "out-of-order emission: " << prev << " then " << k;
      EXPECT_GE(k, lo);
      EXPECT_LE(k, hi);
      first = false;
      prev = k;
      return true;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  pma.Flush();

  // Quiesced: the ordered scan agrees with per-shard SumAll exactly.
  uint64_t scan_sum = 0;
  size_t scan_count = 0;
  pma.Scan(kKeyMin, kKeyMax, [&](Key, Value v) {
    scan_sum += v;
    ++scan_count;
    return true;
  });
  EXPECT_EQ(scan_sum, pma.SumAll());
  EXPECT_EQ(scan_count, pma.Size());
}

TEST(ShardedScan, RangeConcatenationStaysOrderedUnderWriters) {
  ScanOrderingUnderWriters(ShardedConfig::Partition::kRange);
}

TEST(ShardedScan, HashMergeStaysOrderedUnderWriters) {
  ScanOrderingUnderWriters(ShardedConfig::Partition::kHash);
}

TEST(ShardedScan, EarlyStopIsHonored) {
  ShardedPMA pma(TinySharded(4, ShardedConfig::Partition::kHash));
  for (Key k = 1; k <= 100; ++k) pma.Insert(k, k);
  pma.Flush();
  size_t seen = 0;
  pma.Scan(kKeyMin, kKeyMax, [&](Key, Value) { return ++seen < 10; });
  EXPECT_EQ(seen, 10u);
}

// ------------------------------------------------------ chaos (shard-local)

// Process-wide fault, shard-local blast radius: with storage.create
// failing for the next two storages anywhere in the process, only the
// shard that resizes under load meets the fault — it retries the
// allocation and resizes — while the idle shards neither retry nor
// resize, and every op still lands.
TEST(ChaosShardLocal, DegradationStaysOnTheLoadedShard) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (CPMA_ENABLE_FAILPOINTS=OFF)";
  }
  failpoint::ClearAll();
  ShardedConfig cfg = TinySharded(4, ShardedConfig::Partition::kRange,
                                  /*coalesce=*/8,
                                  ConcurrentConfig::AsyncMode::kOneByOne);
  cfg.splitters = {10000, 20000, 30000};
  ShardedPMA pma(cfg);  // initial storages created before the fault

  ASSERT_TRUE(failpoint::Set("storage.create", "times:2"));
  // Storm shard 0's key range only, from two threads, until it resized.
  // Writer w owns the keys of parity w, so its last op per key is final.
  constexpr int kWriters = 2;
  constexpr int kOps = 2000;
  std::vector<std::map<Key, Value>> last(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(1200 + static_cast<uint64_t>(w));
      auto& mine = last[static_cast<size_t>(w)];
      for (int i = 0; i < kOps; ++i) {
        const Key k = rng.NextBounded(5000) * kWriters + static_cast<Key>(w);
        pma.Insert(k, static_cast<Value>(i));
        mine[k] = static_cast<Value>(i);
      }
    });
  }
  for (auto& t : writers) t.join();
  pma.Flush();
  EXPECT_EQ(failpoint::Fires("storage.create"), 2u);
  failpoint::ClearAll();

  ASSERT_GT(pma.shard(0).num_resizes(), 0u)
      << "scenario failed to resize the loaded shard";
  EXPECT_GT(pma.shard(0).num_rebalance_retries(), 0u)
      << "the loaded shard's resize should have met the fault";
  for (size_t s = 1; s < pma.num_shards(); ++s) {
    EXPECT_EQ(pma.shard(s).num_rebalance_retries(), 0u) << "shard " << s;
    EXPECT_EQ(pma.shard(s).num_resizes(), 0u) << "shard " << s;
  }

  // Containment is not data loss: the contents are exactly the last
  // value each writer wrote per key.
  std::map<Key, Value> oracle;
  for (const auto& mine : last) oracle.insert(mine.begin(), mine.end());
  auto it = oracle.begin();
  pma.Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
    EXPECT_NE(it, oracle.end()) << "extra key " << k;
    if (it == oracle.end()) return false;
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second) << "key " << k;
    ++it;
    return true;
  });
  EXPECT_EQ(it, oracle.end()) << "scan stopped short";
  EXPECT_EQ(pma.Size(), oracle.size());
  for (size_t s = 0; s < pma.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(pma.shard(s).CheckInvariants(&err))
        << "shard " << s << ": " << err;
  }
}

// ------------------------------------------------------------ env knobs

TEST(ShardedEnvKnobs, OverrideConfigStrictly) {
  {
    ScopedEnv env("CPMA_SHARDS", "8");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.num_shards(), 8u);
  }
  {
    ScopedEnv env("CPMA_COALESCE_OPS", "16");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.coalesce_ops(), 16u);
  }
  {
    ScopedEnv env("CPMA_COALESCE_AGE_MS", "7");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange,
                               /*coalesce=*/8));
    EXPECT_EQ(pma.coalesce_age_ms(), 7);
  }
  {
    // Garbage must not silently change the fleet size.
    ScopedEnv env("CPMA_SHARDS", "many");
    ShardedPMA pma(TinySharded(2, ShardedConfig::Partition::kRange));
    EXPECT_EQ(pma.num_shards(), 2u);
  }
}

// ------------------------------------------------------------ placement

// Thread ids of this process (/proc/self/task).
std::set<std::string> TaskIds() {
  std::set<std::string> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ids.insert(e->d_name);
    }
    closedir(dir);
  }
  return ids;
}

// The Cpus_allowed_list of one thread, e.g. "0-3" or "2".
std::string AllowedCpus(const std::string& tid) {
  std::ifstream status("/proc/self/task/" + tid + "/status");
  const std::string field = "Cpus_allowed_list:";
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) {
      const size_t b = line.find_first_not_of(" \t", field.size());
      return b == std::string::npos ? "" : line.substr(b);
    }
  }
  return "";
}

TEST(Placement, PinWorkersPinsEachShardMaster) {
  if (Topology().num_cpus < 2 || TaskIds().empty()) {
    GTEST_SKIP() << "needs affinity control, two CPUs and /proc/self/task";
  }
  const std::set<std::string> before = TaskIds();
  ShardedConfig cfg = TinySharded(2, ShardedConfig::Partition::kRange);
  cfg.pin_workers = true;
  ShardedPMA pma(cfg);
  const std::multiset<std::string> want = {std::to_string(PinCpuForSlot(0)),
                                           std::to_string(PinCpuForSlot(1))};
  // Each master pins itself once it runs; the EBR collectors stay
  // unpinned (their allowed list is the process's whole set).
  std::multiset<std::string> pinned;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    pinned.clear();
    for (const std::string& tid : TaskIds()) {
      if (before.count(tid) != 0) continue;
      const std::string cpus = AllowedCpus(tid);
      if (want.count(cpus) != 0) pinned.insert(cpus);
    }
    if (pinned == want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(pinned, want);
  for (Key k = 0; k < 1000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_EQ(pma.Size(), 1000u);
}

}  // namespace
}  // namespace cpma
