// Stress-label soak (ROADMAP item, ISSUE 3; per-key order checking
// added in ISSUE 5): a mixed read/write/batch workload that churns the
// concurrent PMA for a configurable wall-clock budget while readers
// continuously scan and point-look-up. Writers own disjoint key strides
// (key % W == w), so despite full concurrency every writer knows its
// exact surviving set at the end and the final state is checked
// key-by-key, on top of the structural invariants.
//
// Writers issue bursts of consecutive ops on the SAME key with no Flush
// anywhere in the storm — multiple ops per key in flight through
// combining queues, rebalancer merges and resizes. Per-key FIFO (§3.5)
// guarantees the final state is exactly the last issued op per key, and
// the soak asserts it; an op found outside its gate's fences aborts the
// run (ConcurrentPMA::OwnerApplyAndDrain).
//
// Gated out of tier-1 by duration, not by label: the default budget is
// short enough for CI (the `stress` ctest label stays green in
// seconds); set CPMA_SOAK_MS for minutes/hours-scale runs, e.g.
//
//   CPMA_SOAK_MS=3600000 build/tests/test_stress_soak
//
// With CPMA_SOAK_JSON=<path> each soak appends one JSON record (JSONL)
// of its knobs and counters — the artifact the nightly workflow
// uploads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/timer.h"
#include "concurrent/concurrent_pma.h"

namespace cpma {
namespace {

int64_t SoakBudgetMs() {
  const char* env = std::getenv("CPMA_SOAK_MS");
  if (env != nullptr && env[0] != '\0') {
    return std::atoll(env);
  }
  return 1200;  // CI default: a real soak is opted into via the env var
}

struct SoakParam {
  ConcurrentConfig::AsyncMode mode;
  const char* name;
};

ConcurrentConfig SoakConfig(const SoakParam& p) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 32;
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = p.mode;
  cfg.t_delay_ms = 2;
  cfg.parallel_rebalance_min_gates = 2;
  return cfg;
}

void AppendSoakJson(const SoakParam& p, int64_t budget_ms, size_t survivors,
                    uint64_t reads, const ConcurrentPMA& pma) {
  const char* path = std::getenv("CPMA_SOAK_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  // EBR stats (ISSUE 6): the retired-bytes high-water mark and the
  // pending max are how a long soak proves reclamation stayed bounded
  // over hours of churn — the nightly workflow graphs these from the
  // uploaded JSONL.
  const EpochGCStats ebr = pma.ebr_stats();
  std::fprintf(
      f,
      "{\"bench\": \"stress_soak\", \"mode\": \"%s\", "
      "\"budget_ms\": %lld, "
      "\"survivors\": %zu, \"reads\": %llu, \"queued_ops\": %llu, "
      "\"local_rebalances\": %llu, "
      "\"global_rebalances\": %llu, \"resizes\": %llu, "
      "\"batches\": %llu, \"read_fallbacks\": %llu, "
      "\"ebr_pending\": %llu, \"ebr_pending_bytes\": %llu, "
      "\"ebr_retired_bytes_hwm\": %llu, \"ebr_retired_bytes\": %llu, "
      "\"ebr_epoch_advances\": %llu, \"ebr_collections\": %llu}\n",
      p.name, static_cast<long long>(budget_ms), survivors,
      static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(pma.num_queued_ops()),
      static_cast<unsigned long long>(pma.num_local_rebalances()),
      static_cast<unsigned long long>(pma.num_global_rebalances()),
      static_cast<unsigned long long>(pma.num_resizes()),
      static_cast<unsigned long long>(pma.num_batches()),
      static_cast<unsigned long long>(pma.num_read_fallbacks()),
      static_cast<unsigned long long>(ebr.pending_count),
      static_cast<unsigned long long>(ebr.pending_bytes),
      static_cast<unsigned long long>(ebr.retired_bytes_hwm),
      static_cast<unsigned long long>(ebr.retired_bytes),
      static_cast<unsigned long long>(ebr.epoch_advances),
      static_cast<unsigned long long>(ebr.collections));
  std::fclose(f);
}

class StressSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(StressSoak, MixedChurnKeepsInvariants) {
  const SoakParam param = GetParam();
  ConcurrentPMA pma(SoakConfig(param));

  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  const int64_t budget_ms = SoakBudgetMs();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Final expected state per key: a value, or nullopt for removed.
  std::vector<std::map<Key, std::optional<Value>>> last(kWriters);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(1000 + static_cast<uint64_t>(w));
      Timer timer;
      auto& mine = last[static_cast<size_t>(w)];
      // Free-running bursts on the same key, no Flush.
      Value ctr = 0;
      while (timer.ElapsedSeconds() * 1000.0 <
             static_cast<double>(budget_ms)) {
        for (int i = 0; i < 256;) {
          const Key k =
              rng.NextBounded(1 << 16) * kWriters + static_cast<Key>(w);
          const int burst = 1 + static_cast<int>(rng.NextBounded(4));
          for (int b = 0; b < burst && i < 256; ++b, ++i) {
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
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(2000 + static_cast<uint64_t>(r));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (r == 0) {
          // Full fold: exercises gate hand-over-hand under churn.
          volatile uint64_t sink = pma.SumAll();
          (void)sink;
          ++local;
        } else {
          for (int i = 0; i < 512; ++i) {
            Value v;
            pma.Find(rng.NextBounded((1 << 16) * kWriters), &v);
            ++local;
          }
        }
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
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
  EXPECT_GT(reads.load(), 0u);
  std::printf(
      "[soak] mode=%s budget_ms=%lld survivors=%zu reads=%llu "
      "rebal(local=%llu global=%llu resizes=%llu batches=%llu)\n",
      param.name, static_cast<long long>(budget_ms), expected,
      static_cast<unsigned long long>(reads.load()),
      static_cast<unsigned long long>(pma.num_local_rebalances()),
      static_cast<unsigned long long>(pma.num_global_rebalances()),
      static_cast<unsigned long long>(pma.num_resizes()),
      static_cast<unsigned long long>(pma.num_batches()));
  AppendSoakJson(param, budget_ms, expected, reads.load(), pma);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StressSoak,
    ::testing::Values(
        SoakParam{ConcurrentConfig::AsyncMode::kSync, "sync"},
        SoakParam{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        SoakParam{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return std::string(info.param.name);
    });

// ----------------------------------------------------- chaos soak (ISSUE 7)
//
// The soak workload, with a fault conductor re-arming random
// failpoint sites mid-storm using finite (times:1..3) policies — so
// every injected fault eventually recovers and the run must converge to
// the exact per-key final state despite resize-allocation failures,
// remap-publication failures, degraded region creation and injected
// master stalls. Seeded via CPMA_CHAOS_SEED for reproduction: a failing
// seed from CI replays bit-identically (the conductor's arm schedule is
// a pure function of seed and iteration, not wall clock).

uint64_t ChaosSeed() {
  const char* env = std::getenv("CPMA_CHAOS_SEED");
  if (env != nullptr && env[0] != '\0') {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return 12345;
}

// Sites the conductor may arm mid-run. All are recoverable-by-design
// under finite policies: creation faults degrade the next storage to the
// copy backend, remap faults degrade one region, alloc faults run the
// resize ladder, the stall only delays. threadpool.spawn is excluded —
// it only fires during construction, before the storm.
constexpr const char* kChaosSites[] = {
    "storage.create",   "rewiring.remap", "rewiring.remap_run",
    "rewiring.memfd",   "rewiring.mmap",  "rewiring.ftruncate",
    "rebalancer.stall", "epoch_gc.slot_chunk",
};

void AppendChaosJson(const SoakParam& p, uint64_t seed, int64_t budget_ms,
                     size_t survivors, uint64_t reads, uint64_t arms,
                     uint64_t fires, uint64_t errors,
                     const ConcurrentPMA& pma) {
  const char* path = std::getenv("CPMA_SOAK_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"bench\": \"chaos_soak\", \"mode\": \"%s\", \"seed\": %llu, "
      "\"budget_ms\": %lld, \"survivors\": %zu, \"reads\": %llu, "
      "\"fault_arms\": %llu, \"failpoint_fires\": %llu, "
      "\"errors_reported\": %llu, \"rebalance_retries\": %llu, "
      "\"watchdog_trips\": %llu, \"remap_failures\": %llu, "
      "\"fallback_backend_active\": %s, \"resizes\": %llu, "
      "\"batches\": %llu}\n",
      p.name, static_cast<unsigned long long>(seed),
      static_cast<long long>(budget_ms), survivors,
      static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(arms),
      static_cast<unsigned long long>(fires),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(pma.num_rebalance_retries()),
      static_cast<unsigned long long>(pma.num_watchdog_trips()),
      static_cast<unsigned long long>(pma.storage_num_remap_failures()),
      pma.fallback_backend_active() ? "true" : "false",
      static_cast<unsigned long long>(pma.num_resizes()),
      static_cast<unsigned long long>(pma.num_batches()));
  std::fclose(f);
}

class ChaosSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ChaosSoak, FaultStormConvergesToExactState) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (CPMA_ENABLE_FAILPOINTS=OFF)";
  }
  failpoint::ClearAll();
  const SoakParam param = GetParam();
  ConcurrentConfig cfg = SoakConfig(param);
  cfg.watchdog_ms = 50;  // exercised by the rebalancer.stall arms
  cfg.pma.use_rewiring = true;  // remap publishes reach the remap sites
  ConcurrentPMA pma(cfg);

  std::atomic<uint64_t> errors{0};
  pma.SetErrorCallback([&](const Status&) { errors.fetch_add(1); });

  const uint64_t seed = ChaosSeed();
  const int64_t budget_ms = SoakBudgetMs();
  // Pre-arm deterministic faults so even the shortest budget injects
  // into the first resize and the first remap publication.
  ASSERT_TRUE(failpoint::Set("storage.create", "times:1"));
  ASSERT_TRUE(failpoint::Set("rewiring.remap", "once"));

  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::map<Key, std::optional<Value>>> last(kWriters);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(seed * 1000 + static_cast<uint64_t>(w));
      Timer timer;
      auto& mine = last[static_cast<size_t>(w)];
      Value ctr = 0;
      while (timer.ElapsedSeconds() * 1000.0 <
             static_cast<double>(budget_ms)) {
        for (int i = 0; i < 256;) {
          const Key k =
              rng.NextBounded(1 << 16) * kWriters + static_cast<Key>(w);
          const int burst = 1 + static_cast<int>(rng.NextBounded(4));
          for (int b = 0; b < burst && i < 256; ++b, ++i) {
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
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(seed * 2000 + static_cast<uint64_t>(r));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (r == 0) {
          volatile uint64_t sink = pma.SumAll();
          (void)sink;
          ++local;
        } else {
          for (int i = 0; i < 512; ++i) {
            Value v;
            pma.Find(rng.NextBounded((1 << 16) * kWriters), &v);
            ++local;
          }
        }
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // The conductor: every few ms, re-arm one random site with a finite
  // policy. The (site, policy) sequence is a pure function of the seed.
  std::atomic<uint64_t> arms{0};
  std::thread conductor([&] {
    Random rng(seed);
    constexpr size_t kNumSites =
        sizeof(kChaosSites) / sizeof(kChaosSites[0]);
    while (!stop.load(std::memory_order_relaxed)) {
      const char* site = kChaosSites[rng.NextBounded(kNumSites)];
      char spec[16];
      std::snprintf(spec, sizeof(spec), "times:%u",
                    1 + static_cast<unsigned>(rng.NextBounded(3)));
      if (failpoint::Set(site, spec)) arms.fetch_add(1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + rng.NextBounded(4)));
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  conductor.join();
  for (auto& t : readers) t.join();
  // Storm over: disarm everything, then drain. Every armed policy was
  // finite, so the structure has already recovered (or will during this
  // Flush) — convergence must not depend on the ClearAll. Capture the
  // fire count first: ClearAll drops the sites and their counters.
  const uint64_t total_fires = failpoint::TotalFires();
  failpoint::ClearAll();
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
  EXPECT_GT(total_fires, 0u)
      << "a chaos soak that injected nothing proved nothing";
  std::printf(
      "[chaos] mode=%s seed=%llu budget_ms=%lld survivors=%zu arms=%llu "
      "fires=%llu errors=%llu retries=%llu watchdog=%llu "
      "remap_failures=%llu degraded_backend=%d\n",
      param.name, static_cast<unsigned long long>(seed),
      static_cast<long long>(budget_ms), expected,
      static_cast<unsigned long long>(arms.load()),
      static_cast<unsigned long long>(total_fires),
      static_cast<unsigned long long>(errors.load()),
      static_cast<unsigned long long>(pma.num_rebalance_retries()),
      static_cast<unsigned long long>(pma.num_watchdog_trips()),
      static_cast<unsigned long long>(pma.storage_num_remap_failures()),
      pma.fallback_backend_active() ? 1 : 0);
  AppendChaosJson(param, seed, budget_ms, expected, reads.load(),
                  arms.load(), total_fires, errors.load(), pma);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChaosSoak,
    ::testing::Values(
        SoakParam{ConcurrentConfig::AsyncMode::kSync, "sync"},
        SoakParam{ConcurrentConfig::AsyncMode::kOneByOne, "1by1"},
        SoakParam{ConcurrentConfig::AsyncMode::kBatch, "batch"}),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cpma
