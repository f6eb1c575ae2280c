// Optimistic versioned-gate read path (ISSUE 4).
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// covers the scalar/AVX2 kernels under CPMA_DISABLE_AVX2, the
// concurrent pass runs the same hammers under TSan, where the tagged
// accesses (common/tagged.h) must keep the seqlock races expressed as
// atomics — any missed tagging fails the tsan preset, no suppressions.
//
//  - GateVersionParity: the seqlock word is even exactly when no
//    writer/rebalancer owns the chunk, across every state-machine edge
//    including the WRITE -> REBAL hand-off.
//  - TornReadHammer: writers mutate one hot gate while readers
//    Find/Scan through it; every observed value must be the writer
//    invariant (a torn-but-validated window would surface garbage).
//  - ScanDuringFenceMovingRebalance: ascending inserts drive local and
//    global rebalances plus resizes under running scans; scans must
//    stay sorted, duplicate-free and value-consistent while fences
//    move beneath them.
//  - ShortScansCompleteUnderAppends: short scans at the appended right
//    edge, where rebalances move fences constantly, return every key
//    inserted before they began — none skipped across a moved fence.
//  - *ReadersCompleteUnderChurn: SumAll, Scan and Find stay exact on a
//    pinned key set while waves of inserts and removals around it move
//    fences, on the optimistic path and with every read latched.
//  - ForcedFallback*: CPMA_OPTIMISTIC_RETRIES=0 disables the optimistic
//    path; the blocking latch protocol must pass the same checks, and
//    the fallback counter proves which path served the reads.
//  - QuiescentReadsNeverFallBack: with no writers, every read must be
//    served optimistically (fallback counter stays zero).
//  - GateReadTallyExactAtQuiescence: the per-thread striped scan tally
//    sums to exactly one read per gate per full pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/latches.h"
#include "common/random.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/gate.h"

namespace cpma {
namespace {

GateOp Ins(Key k) { return GateOp{GateOp::Type::kInsert, k, k}; }

/// Writer invariant: the only value ever stored for `k`. Readers that
/// observe anything else caught a torn read escaping validation.
Value ValueFor(Key k) { return k * 0x9E3779B97F4A7C15ull + 1; }

ConcurrentConfig SmallGateConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 32;  // small segments: frequent rebalances
  cfg.segments_per_gate = 4;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 5;
  return cfg;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(OptimisticRead, GateVersionParity) {
  Gate g(0, 0, 8);
  auto stable = [&] { return SeqVersion::Stable(g.version().ReadBegin()); };
  EXPECT_TRUE(stable());

  // Writer acquire/release brackets one mutation window.
  ASSERT_EQ(g.WriterAccess(Ins(5), /*allow_queue=*/false), GateAccess::kOwner);
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // Readers never open a window.
  Key k = 5;
  ASSERT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);
  EXPECT_TRUE(stable());
  g.ReaderRelease();
  EXPECT_TRUE(stable());

  // Master acquire/release brackets one window.
  g.MasterAcquire();
  EXPECT_FALSE(stable());
  g.MasterRelease();
  EXPECT_TRUE(stable());

  // WRITE -> REBAL hand-off keeps the same window open end to end.
  ASSERT_EQ(g.WriterAccess(Ins(6), false), GateAccess::kOwner);
  const uint64_t during_write = g.version().ReadBegin();
  g.TransferToRebalancer();
  EXPECT_EQ(g.version().ReadBegin(), during_write);  // still odd, no bump
  g.MasterAcquire();  // takes over the transferred window
  EXPECT_EQ(g.version().ReadBegin(), during_write);
  g.MasterRelease();
  EXPECT_TRUE(stable());
  ASSERT_TRUE(g.WriterReacquireAfterRebal());
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // A validated window rejects any intervening mutation.
  const uint64_t v = g.version().ReadBegin();
  ASSERT_TRUE(g.version().Validate(v));
  ASSERT_EQ(g.WriterAccess(Ins(7), false), GateAccess::kOwner);
  EXPECT_FALSE(g.version().Validate(v));
  g.WriterRelease();
  EXPECT_FALSE(g.version().Validate(v));  // exact equality, not parity
}

// Shared hammer body: writers churn a small hot key set (upsert/remove
// with the ValueFor invariant) while readers point-read and scan it.
// Checks hold in both the optimistic and the forced-fallback mode.
void RunTornReadHammer(ConcurrentPMA* pma, int num_writers, int num_readers,
                       int rounds) {
  constexpr Key kHotKeys = 512;  // spans a handful of small gates
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_values{0};
  std::atomic<uint64_t> order_violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < num_writers; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        // Each writer owns the keys congruent to it; overwrites and
        // removals keep gates mutating (odd version windows) all along.
        for (Key k = static_cast<Key>(w) + 1; k <= kHotKeys;
             k += static_cast<Key>(num_writers)) {
          pma->Insert(k, ValueFor(k));
          if ((k + static_cast<Key>(r)) % 3 == 0) pma->Remove(k);
        }
      }
      stop.store(true, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      uint64_t it = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = 1 + (it * 31 + static_cast<uint64_t>(t)) % kHotKeys;
        Value v = 0;
        if (pma->Find(k, &v) && v != ValueFor(k)) {
          torn_values.fetch_add(1, std::memory_order_relaxed);
        }
        if (++it % 64 == 0) {
          Key prev = 0;
          bool have_prev = false;
          pma->Scan(1, kHotKeys, [&](Key key, Value value) {
            if (have_prev && key <= prev) {
              order_violations.fetch_add(1, std::memory_order_relaxed);
            }
            if (value != ValueFor(key)) {
              torn_values.fetch_add(1, std::memory_order_relaxed);
            }
            prev = key;
            have_prev = true;
            return true;
          });
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn_values.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);
  pma->Flush();
  std::string err;
  EXPECT_TRUE(pma->CheckInvariants(&err)) << err;
}

TEST(OptimisticRead, TornReadHammer) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/200);
  // Reads raced with writers on hot gates; some scans should still have
  // validated latch-free (not a hard guarantee, but a budget of 8
  // windows across this workload failing every single time would mean
  // the optimistic path is broken).
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, ScanDuringFenceMovingRebalance) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kOneByOne));
  constexpr Key kTotal = 50000;
  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  // Ascending interleaved inserts: grows through many local and global
  // rebalances and several resizes, so fences move constantly.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (Key k = static_cast<Key>(w) + 1; k <= kTotal; k += kWriters) {
        pma.Insert(k, ValueFor(k));
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Key prev = 0;
        bool have_prev = false;
        pma.Scan(kKeyMin, kKeyMax, [&](Key key, Value value) {
          if ((have_prev && key <= prev) || value != ValueFor(key)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          prev = key;
          have_prev = true;
          return true;
        });
        // SumAll shares the per-gate validation; just exercise it.
        volatile uint64_t sink = pma.SumAll();
        (void)sink;
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : scanners) th.join();
  EXPECT_EQ(bad.load(), 0u);

  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), static_cast<size_t>(kTotal));
  uint64_t expect_sum = 0;
  for (Key k = 1; k <= kTotal; ++k) expect_sum += ValueFor(k);
  EXPECT_EQ(pma.SumAll(), expect_sum);
  // The array grew through resizes; the global rebalance machinery must
  // actually have run for this test to mean anything.
  EXPECT_GT(pma.num_resizes() + pma.num_global_rebalances(), 0u);
}

// Scan completeness at the moving right edge: appenders keep the last
// gates rebalancing (fences move under the scanners), while short scans
// start just below the frontier every key of which was inserted before
// the scan began. Such keys are present for the scan's whole lifetime,
// so the scan must return them all, consecutively, up to its length —
// a cursor that trusted a stale gate's fences would skip the keys a
// rebalance moved out of that gate.
TEST(OptimisticRead, ShortScansCompleteUnderAppends) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kPreload = 200000;
  constexpr int kAppenders = 2;
  for (Key k = 1; k <= kPreload; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();

  // Appender t inserts kPreload + 1 + t + i * kAppenders in order and
  // publishes how many it finished; every key at or below frontier()
  // was therefore inserted before the caller read the counters.
  std::atomic<uint64_t> appended[kAppenders] = {};
  auto frontier = [&] {
    uint64_t rounds = UINT64_MAX;
    for (const auto& a : appended) {
      rounds = std::min(rounds, a.load(std::memory_order_acquire));
    }
    return kPreload + rounds * kAppenders;
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Key k = kPreload + 1 + static_cast<Key>(t) + i * kAppenders;
        pma.Insert(k, ValueFor(k));
        appended[t].store(i + 1, std::memory_order_release);
      }
    });
  }
  std::atomic<uint64_t> scans{0}, gapped{0}, bad{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Random rng(0x5CA4 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const Key edge = frontier();
        const Key start = edge - rng.NextBounded(512);
        const uint64_t len = 1 + rng.NextBounded(100);
        const uint64_t want = std::min<uint64_t>(len, edge - start + 1);
        uint64_t got = 0;
        Key prev = start - 1;
        bool gap = false;
        pma.Scan(start, kKeyMax, [&](Key k, Value v) {
          if (k <= prev || v != ValueFor(k)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          } else if (k <= edge && k != prev + 1) {
            gap = true;
          }
          prev = k;
          return ++got < len;
        });
        if (got < want) gap = true;
        gapped.fetch_add(gap, std::memory_order_relaxed);
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(gapped.load(), 0u) << "of " << scans.load() << " scans";
  EXPECT_GT(scans.load(), 0u);
  EXPECT_GT(frontier(), kPreload);  // the appenders moved the edge
}

// Every reader stays exact while fences move: 4,096 pinned keys (the
// multiples of 4, value 1) are never touched, while two writers insert
// and then remove the keys between them (value 0) in waves, driving
// global rebalances, resizes and shrinks under the readers. SumAll, a
// full Scan and Find of a pinned key must each see exactly the pinned
// set, however the read was served: `budget` 0 puts every read on the
// READ latch.
void RunReadersCompleteUnderChurn(int budget) {
  ConcurrentConfig cfg = SmallGateConfig(ConcurrentConfig::AsyncMode::kSync);
  cfg.optimistic_retries = budget;
  ConcurrentPMA pma(cfg);
  constexpr Key kPinned = 4096;
  constexpr Key kTop = 4 * kPinned;
  for (Key k = 4; k <= kTop; k += 4) pma.Insert(k, 1);
  pma.Flush();

  // Writers stop only between waves, so each finishes at least one.
  // Inserting downwards makes rebalances push keys left, across the low
  // fence a stale descent must walk back over.
  std::atomic<bool> stop_writers{false}, stop_readers{false};
  std::vector<std::thread> writers;
  for (Key w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      auto mine = [&](Key k) { return k % 4 != 0 && (k / 4) % 2 == w; };
      do {
        for (Key k = kTop; k-- > 1;) {
          if (mine(k)) pma.Insert(k, 0);
        }
        for (Key k = 1; k < kTop; ++k) {
          if (mine(k)) pma.Remove(k);
        }
      } while (!stop_writers.load(std::memory_order_relaxed));
    });
  }
  std::atomic<uint64_t> bad_sums{0}, bad_scans{0}, bad_finds{0}, passes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Random rng(0xC4u + static_cast<uint64_t>(t));
      while (!stop_readers.load(std::memory_order_relaxed)) {
        if (pma.SumAll() != kPinned) bad_sums.fetch_add(1);
        Key prev = 0;
        uint64_t sum = 0;
        bool ok = true;
        pma.Scan(kKeyMin, kKeyMax, [&](Key k, Value v) {
          ok = ok && k > prev && (k % 4 == 0) == (v == 1);
          prev = k;
          sum += v;
          return true;
        });
        if (!ok || sum != kPinned) bad_scans.fetch_add(1);
        for (int i = 0; i < 64; ++i) {
          const Key k = 4 * (1 + rng.NextBounded(kPinned));
          Value v = 0;
          if (!pma.Find(k, &v) || v != 1) bad_finds.fetch_add(1);
        }
        passes.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop_writers.store(true);
  for (auto& th : writers) th.join();
  stop_readers.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(bad_sums.load(), 0u) << "of " << passes.load() << " passes";
  EXPECT_EQ(bad_scans.load(), 0u) << "of " << passes.load() << " passes";
  EXPECT_EQ(bad_finds.load(), 0u) << "of " << passes.load() << " passes";
  EXPECT_GT(passes.load(), 0u);
  // The fences must actually have moved for the test to mean anything.
  EXPECT_GT(pma.num_global_rebalances(), 0u);
  EXPECT_GT(pma.num_resizes(), 0u);
  pma.Flush();
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kPinned));
}

TEST(OptimisticRead, ReadersCompleteUnderChurn) {
  RunReadersCompleteUnderChurn(/*budget=*/8);
}

TEST(OptimisticRead, ForcedFallbackReadersCompleteUnderChurn) {
  RunReadersCompleteUnderChurn(/*budget=*/0);
}

TEST(OptimisticRead, ForcedFallbackMatchesBlocking) {
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  ASSERT_EQ(pma.optimistic_retries(), 0);
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/120);
  // Every read took the blocking latch; none validated optimistically.
  EXPECT_GT(pma.num_read_fallbacks(), 0u);
  EXPECT_EQ(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, QuiescentReadsNeverFallBack) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kN = 4096;
  for (Key k = 1; k <= kN; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();

  std::vector<std::thread> readers;
  std::atomic<uint64_t> misses{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (Key k = static_cast<Key>(t) + 1; k <= kN; k += 4) {
        Value v = 0;
        if (!pma.Find(k, &v) || v != ValueFor(k)) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      uint64_t count = 0;
      pma.Scan(1, kN, [&](Key, Value) {
        ++count;
        return true;
      });
      if (count != kN) misses.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  // No mutators: every window validates on the first attempt, so the
  // blocking path must never have been taken.
  EXPECT_EQ(pma.num_read_fallbacks(), 0u);
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

// The scan tally is striped per thread and summed on read, and the sum
// is exact at quiescence: a full pass (SumAll or Scan) reads every gate
// once, optimistically, so N threads running one pass each raise it by
// exactly N x num_gates. Fresh threads every round walk the round-robin
// stripe choice past the stripe count, so stripes are shared too.
TEST(OptimisticRead, GateReadTallyExactAtQuiescence) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kN = 4096;
  uint64_t value_sum = 0;
  for (Key k = 1; k <= kN; ++k) {
    pma.Insert(k, ValueFor(k));
    value_sum += ValueFor(k);
  }
  pma.Flush();
  const ConcurrentConfig& cfg = pma.config();
  const uint64_t num_gates =
      pma.capacity() / (cfg.pma.segment_capacity * cfg.segments_per_gate);
  ASSERT_GT(num_gates, 2u);

  constexpr int kThreads = 5;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t before = pma.num_optimistic_gate_reads();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, round] {
        if (round % 2 == 0) {
          EXPECT_EQ(pma.SumAll(), value_sum);
          return;
        }
        uint64_t count = 0;
        pma.Scan(0, kKeyMax, [&](Key, Value) {
          ++count;
          return true;
        });
        EXPECT_EQ(count, kN);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(pma.num_optimistic_gate_reads() - before,
              kThreads * num_gates)
        << "round " << round;
  }
  EXPECT_EQ(pma.num_read_fallbacks(), 0u);
}

TEST(OptimisticRead, EnvKnobOverridesConfig) {
  {
    ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "3");
    ConcurrentPMA pma;
    EXPECT_EQ(pma.optimistic_retries(), 3);
  }
  ConcurrentConfig cfg;
  EXPECT_EQ(cfg.optimistic_retries, 8);
  cfg.optimistic_retries = 2;
  ConcurrentPMA pma(cfg);
  EXPECT_EQ(pma.optimistic_retries(), 2);
}

}  // namespace
}  // namespace cpma
