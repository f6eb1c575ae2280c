// Graceful-degradation suite (ISSUE 7): every library layer that gained
// a failpoint is driven through its injected-failure path and must
// degrade — never abort, never lose data:
//
//   storage    TryCreate surfaces ResourceExhausted instead of aborting
//   sharded    a fleet LoadSorted whose helper threads fail to spawn
//              builds their shards on the others (the caller at worst)
//   epoch_gc   slot-chunk allocation failure installs the emergency
//              reserve chunk; registration still succeeds
//   rebalancer resize allocation failure retries, degrades, and on
//              exhaustion requeues every drained op (exact final state
//              after recovery), reporting through the error callback;
//              the stall watchdog trips on an injected master stall
//
// All tests skip when failpoints are compiled out
// (CPMA_ENABLE_FAILPOINTS=OFF).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch_gc.h"
#include "common/failpoint.h"
#include "concurrent/concurrent_pma.h"
#include "pma/storage.h"
#include "sharded/sharded_pma.h"

namespace cpma {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (CPMA_ENABLE_FAILPOINTS=OFF)";
    }
    failpoint::ClearAll();
  }
  void TearDown() override { failpoint::ClearAll(); }
};

// -------------------------------------------------------------- storage

TEST_F(FaultInjectionTest, StorageTryCreateSurfacesStatus) {
  ASSERT_TRUE(failpoint::Set("storage.create", "once"));
  Status st;
  auto storage = Storage::TryCreate(8, 32, &st);
  EXPECT_EQ(storage, nullptr);
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  // The failpoint has recovered: the retry succeeds.
  st = Status::OK();
  storage = Storage::TryCreate(8, 32, &st);
  ASSERT_NE(storage, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(storage->num_segments(), 8u);
}

// -------------------------------------------------------- sharded load

// A 4-shard fleet's LoadSorted builds the shards on the caller plus
// min(4, CPUs) - 1 helper threads; the spawn failpoint makes helpers
// fail to start. Whatever spawned, the fleet must hold exactly the run.
void LoadFourShardsExactly() {
  ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.partition = ShardedConfig::Partition::kHash;  // every shard gets keys
  ShardedPMA fleet(cfg);
  std::vector<Item> items;
  for (Key k = 1; k <= 20000; ++k) items.push_back({k * 7919, k});
  ASSERT_TRUE(fleet.LoadSorted(items.data(), items.size()).ok());
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(fleet.shard(s).CheckInvariants(&err)) << "shard " << s << err;
    EXPECT_GT(fleet.shard(s).Size(), 0u) << "shard " << s;
  }
  std::vector<Item> got;
  fleet.Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
    got.push_back({k, v});
    return true;
  });
  ASSERT_EQ(got.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(got[i].key, items[i].key) << "item " << i;
    ASSERT_EQ(got[i].value, items[i].value) << "item " << i;
  }
}

size_t LoadHelpers() {
  return std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency())) -
         1;
}

TEST_F(FaultInjectionTest, LoadSortedBuildsInlineWhenNoThreadSpawns) {
  ASSERT_TRUE(failpoint::Set("sharded.load_spawn", "always"));
  LoadFourShardsExactly();
  EXPECT_EQ(failpoint::Fires("sharded.load_spawn"), LoadHelpers())
      << "every helper spawn must fail: the caller builds all four";
}

TEST_F(FaultInjectionTest, LoadSortedBuildsOnPartialSpawn) {
  ASSERT_TRUE(failpoint::Set("sharded.load_spawn", "times:1"));
  LoadFourShardsExactly();
  EXPECT_EQ(failpoint::Fires("sharded.load_spawn"),
            std::min<size_t>(1, LoadHelpers()));
}

// ------------------------------------------------------------- epoch GC

TEST_F(FaultInjectionTest, EpochGCInstallsEmergencyChunkOnGrowthFailure) {
  EpochGC::Options opts;
  opts.initial_threads = 1;  // one slot chunk; slot 33 forces growth
  EpochGC gc(opts);
  ASSERT_TRUE(failpoint::Set("epoch_gc.slot_chunk", "always"));
  std::vector<EpochSlot*> slots;
  std::set<EpochSlot*> distinct;
  for (int i = 0; i < 40; ++i) {
    EpochSlot* s = gc.RegisterThread();
    ASSERT_NE(s, nullptr) << "registration " << i;
    slots.push_back(s);
    distinct.insert(s);
  }
  EXPECT_EQ(distinct.size(), slots.size());
  EXPECT_GE(failpoint::Fires("epoch_gc.slot_chunk"), 1u);
  // The emergency-backed slots are fully functional.
  std::atomic<int> freed{0};
  gc.Enter(slots.back());
  gc.Retire([](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
            &freed, 8);
  gc.Collect();
  EXPECT_EQ(freed.load(), 0) << "pinned epoch must block reclamation";
  gc.Exit(slots.back());
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
  for (auto* s : slots) gc.UnregisterThread(s);
}

// ----------------------------------------------------------- rebalancer

ConcurrentConfig SmallConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 32;
  cfg.segments_per_gate = 4;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 1;
  return cfg;
}

TEST_F(FaultInjectionTest, ResizeRetriesThroughTransientAllocFailure) {
  ConcurrentPMA pma(SmallConfig(ConcurrentConfig::AsyncMode::kSync));
  // Two transient failures: the in-resize retry rungs absorb them
  // without ever surfacing an error.
  ASSERT_TRUE(failpoint::Set("storage.create", "times:2"));
  constexpr Key kKeys = 4000;
  for (Key k = 0; k < kKeys; ++k) pma.Insert(k, k + 1);
  pma.Flush();
  ASSERT_GE(pma.num_resizes(), 1u);
  EXPECT_GE(pma.num_rebalance_retries(), 2u);
  EXPECT_TRUE(pma.last_error().ok()) << pma.last_error().ToString();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  for (Key k = 0; k < kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    ASSERT_EQ(v, k + 1);
  }
}

struct ResizeExhaustionCase {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

class ResizeExhaustionTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<ResizeExhaustionCase> {};

TEST_P(ResizeExhaustionTest, RequeuesOpsAndRecoversExactState) {
  ConcurrentPMA pma(SmallConfig(GetParam().mode));
  std::atomic<int> errors{0};
  Status first_error;
  std::mutex first_error_mu;
  pma.SetErrorCallback([&](const Status& s) {
    errors.fetch_add(1);
    std::lock_guard<std::mutex> lk(first_error_mu);
    if (first_error.ok()) first_error = s;
  });
  // Enough consecutive failures to exhaust a whole resize ladder (3
  // attempts per resize at this size) at least twice — exercising the
  // requeue + deferred-retry path — before recovering for good.
  ASSERT_TRUE(failpoint::Set("storage.create", "times:8"));
  constexpr Key kKeys = 4000;
  for (Key k = 0; k < kKeys; ++k) pma.Insert(k, k * 2 + 1);
  pma.Flush();
  failpoint::ClearAll();
  // The storm is over and Flush drained everything: the final state must
  // be exact — no lost or duplicated op — and the failure must have been
  // reported.
  EXPECT_GE(errors.load(), 1);
  {
    std::lock_guard<std::mutex> lk(first_error_mu);
    EXPECT_EQ(first_error.code(), Status::Code::kResourceExhausted)
        << first_error.ToString();
  }
  EXPECT_FALSE(pma.last_error().ok());
  EXPECT_GE(pma.num_rebalance_retries(), 3u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  for (Key k = 0; k < kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 2 + 1);
  }
}

// A caller blocked by a lasting allocation failure: a sync or 1by1
// Insert whose op a failed resize requeued (it pops the op again and
// re-requests the window), or a Flush() (Drain runs deferred batches at
// once). Either way a resize-failure retry keeps its backoff (10 ms
// doubling, capped at 1 s), so the failed resizes in 500 ms stay a
// handful (10 + 20 + 40 + 80 + 160 ms of backoff fit 5-6 of them) instead
// of one per ladder pass. Once allocation recovers, the blocked caller
// returns with every op applied.
TEST_P(ResizeExhaustionTest, BlockedCallerKeepsRetryBackoff) {
  ConcurrentPMA pma(SmallConfig(GetParam().mode));
  std::atomic<int> errors{0};
  pma.SetErrorCallback([&](const Status&) { errors.fetch_add(1); });
  ASSERT_TRUE(failpoint::Set("storage.create", "always"));
  constexpr Key kKeys = 4000;
  std::atomic<bool> done{false};
  std::thread caller([&] {
    for (Key k = 0; k < kKeys; ++k) pma.Insert(k, k + 3);
    pma.Flush();
    done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (errors.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int before = errors.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const int during = errors.load() - before;
  const bool returned_while_failing = done.load();
  failpoint::ClearAll();
  caller.join();  // returns within one backoff step (<= 1 s)
  ASSERT_GE(before, 1) << "no resize failed under storage.create";
  EXPECT_FALSE(returned_while_failing)
      << "caller returned with storage failing";
  EXPECT_LE(during, 20) << "resize retries ran without their backoff";
  EXPECT_TRUE(done.load());
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kKeys));
  for (Key k = 0; k < kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << "key " << k;
    ASSERT_EQ(v, k + 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ResizeExhaustionTest,
    ::testing::Values(
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kSync, "sync"},
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        ResizeExhaustionCase{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<ResizeExhaustionCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(FaultInjectionTest, WatchdogTripsOnInjectedStall) {
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kSync);
  cfg.watchdog_ms = 20;
  ConcurrentPMA pma(cfg);
  EXPECT_EQ(pma.num_watchdog_trips(), 0u);
  // Stall the master's next dispatch for ~2.5 watchdog intervals: the
  // checker must observe a frozen stamp at least once.
  ASSERT_TRUE(failpoint::Set("rebalancer.stall", "once"));
  for (Key k = 0; k < 2000; ++k) pma.Insert(k, k);
  pma.Flush();
  // The stall is synchronous inside a dispatch that Flush waited for, so
  // the trip (if any is ever going to happen) has been recorded by now.
  EXPECT_GE(pma.num_watchdog_trips(), 1u);
  EXPECT_EQ(failpoint::Fires("rebalancer.stall"), 1u);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 2000u);
}

TEST_F(FaultInjectionTest, WatchdogStaysQuietOnHealthyRun) {
  ConcurrentConfig cfg = SmallConfig(ConcurrentConfig::AsyncMode::kBatch);
  cfg.watchdog_ms = 200;  // generous vs. millisecond-scale rebalances
  ConcurrentPMA pma(cfg);
  for (Key k = 0; k < 4000; ++k) pma.Insert(k, k);
  pma.Flush();
  EXPECT_EQ(pma.num_watchdog_trips(), 0u);
}

}  // namespace
}  // namespace cpma
