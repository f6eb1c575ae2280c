// Unit tests for the common substrate: Status, Random, Zipf/Uniform
// distributions, latches and the epoch GC.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/epoch_gc.h"
#include "common/latches.h"
#include "common/random.h"
#include "common/status.h"
#include "common/zipf.h"

namespace cpma {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::KeyNotFound("42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsKeyNotFound());
  EXPECT_EQ(s.message(), "42");
  EXPECT_NE(s.ToString().find("KeyNotFound"), std::string::npos);
}

TEST(Status, DistinguishesCodes) {
  EXPECT_TRUE(Status::KeyAlreadyExists().IsKeyAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_FALSE(Status::Internal().ok());
}

// ---------------------------------------------------------------- Random

TEST(Random, DeterministicPerSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Random, BoundedStaysInRange) {
  Random rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Random, DoubleInUnitInterval) {
  Random rng(2);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, RoughlyUniform) {
  Random rng(3);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 10 * 0.9);
    EXPECT_LT(b, kDraws / 10 * 1.1);
  }
}

// ------------------------------------------------------------------ Zipf

TEST(Zipf, SamplesInRange) {
  ZipfDistribution z(1u << 20, 1.0);
  Random rng(4);
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = z.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1u << 20);
  }
}

TEST(Zipf, SkewConcentratesMass) {
  // With alpha = 2 the first value should absorb ~ 1/zeta(2) ~ 61% of
  // the mass; with alpha = 1 much less.
  Random rng(5);
  auto frac_first = [&](double alpha) {
    ZipfDistribution z(1u << 27, alpha);
    int hits = 0;
    const int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      if (z.Sample(rng) == 1) ++hits;
    }
    return static_cast<double>(hits) / kDraws;
  };
  double f2 = frac_first(2.0);
  double f1 = frac_first(1.0);
  EXPECT_GT(f2, 0.5);
  EXPECT_LT(f1, 0.2);
  EXPECT_GT(f2, f1);
}

TEST(Zipf, HigherAlphaLowerMedianValue) {
  Random rng(6);
  auto median = [&](double alpha) {
    ZipfDistribution z(1u << 24, alpha);
    std::vector<uint64_t> v(10001);
    for (auto& x : v) x = z.Sample(rng);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_LT(median(2.0), median(1.0));
}

TEST(KeyDistribution, UniformCoversRange) {
  Random rng(7);
  auto d = KeyDistribution::Uniform(100);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(d.Sample(rng));
  EXPECT_GT(seen.size(), 95u);
  EXPECT_GE(*seen.begin(), 1u);
  EXPECT_LE(*seen.rbegin(), 100u);
}

TEST(KeyDistribution, TaggedDispatch) {
  Random rng(8);
  auto u = KeyDistribution::Uniform(10);
  auto z = KeyDistribution::Zipf(10, 1.5);
  EXPECT_FALSE(u.is_zipf());
  EXPECT_TRUE(z.is_zipf());
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(u.Sample(rng), 10u);
    EXPECT_LE(z.Sample(rng), 10u);
  }
}

// --------------------------------------------------------------- Latches

TEST(OptimisticLock, ReadValidatesWhenQuiescent) {
  OptimisticLock l;
  bool ok = false;
  uint64_t v = l.ReadLockOrRestart(ok);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(l.CheckOrRestart(v));
}

TEST(OptimisticLock, WriteInvalidatesReaders) {
  OptimisticLock l;
  bool ok = false;
  uint64_t v = l.ReadLockOrRestart(ok);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(l.WriteLock());
  l.WriteUnlock();
  EXPECT_FALSE(l.CheckOrRestart(v));
}

TEST(OptimisticLock, UpgradeFailsAfterWrite) {
  OptimisticLock l;
  bool ok = false;
  uint64_t v = l.ReadLockOrRestart(ok);
  ASSERT_TRUE(l.WriteLock());
  l.WriteUnlock();
  EXPECT_FALSE(l.UpgradeToWriteLock(v));
}

TEST(OptimisticLock, ObsoleteNodesRejectAccess) {
  OptimisticLock l;
  ASSERT_TRUE(l.WriteLock());
  l.WriteUnlockObsolete();
  EXPECT_TRUE(l.IsObsolete());
  bool ok = true;
  l.ReadLockOrRestart(ok);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(l.WriteLock());
}

TEST(OptimisticLock, ConcurrentWritersCount) {
  OptimisticLock l;
  std::atomic<int> counter{0};
  int shared = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(l.WriteLock());
        ++shared;
        l.WriteUnlock();
        counter.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared, 20000);
}

// -------------------------------------------------------------- EpochGC

void CountingFree(void* p) {
  static_cast<std::atomic<int>*>(p)->fetch_add(1);
}

TEST(EpochGC, RetiredMemoryFreedWhenNoReaders) {
  EpochGC gc;
  std::atomic<int> freed{0};
  gc.Retire(&CountingFree, &freed, 8);
  EXPECT_EQ(gc.PendingGarbage(), 1u);
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(gc.PendingGarbage(), 0u);
}

TEST(EpochGC, ActiveReaderBlocksCollection) {
  EpochGC gc;
  std::atomic<int> freed{0};
  EpochSlot* slot = gc.RegisterThread();
  gc.Enter(slot);
  gc.Retire(&CountingFree, &freed, 8);
  gc.Collect();
  EXPECT_EQ(freed.load(), 0) << "reader in older epoch must block frees";
  gc.Exit(slot);
  gc.Collect();
  EXPECT_EQ(freed.load(), 1);
  gc.UnregisterThread(slot);
}

// Observe-don't-advance (ISSUE 6): a reader pinned at epoch E keeps
// epoch-E garbage alive, but once the epoch has advanced past E, a NEW
// reader (which observes the advanced epoch) does not wedge the older
// garbage — reclamation is blocked only by genuinely older pins.
TEST(EpochGC, ReaderInNewerEpochDoesNotBlockOlderGarbage) {
  EpochGC gc;
  std::atomic<int> freed{0};
  EpochSlot* parked = gc.RegisterThread();
  gc.Enter(parked);  // pins the retire epoch
  gc.Retire(&CountingFree, &freed, 8);
  // The parked pin blocks the free, but Collect still advances the
  // global epoch (the parked reader lags by at most one).
  EXPECT_EQ(gc.Collect(), 0u);
  EpochSlot* late = gc.RegisterThread();
  gc.Enter(late);  // observes the advanced epoch
  gc.Exit(parked);
  gc.Collect();
  EXPECT_EQ(freed.load(), 1) << "late reader must not block older garbage";
  gc.Exit(late);
  gc.UnregisterThread(parked);
  gc.UnregisterThread(late);
}

TEST(EpochGC, EpochGuardRefreshAdvancesEpoch) {
  EpochGC gc;
  std::atomic<int> freed{0};
  {
    EpochGuard guard(gc);
    gc.Retire(&CountingFree, &freed, 8);
    gc.Collect();
    EXPECT_EQ(freed.load(), 0);
    guard.Refresh();  // new epoch is newer than the garbage
    gc.Collect();
    EXPECT_EQ(freed.load(), 1);
  }
}

TEST(EpochGC, ManyThreadsChurn) {
  EpochGC gc;
  std::atomic<int> freed{0};
  std::atomic<int> retired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        EpochGuard guard(gc);
        gc.Retire(&CountingFree, &freed, 8);
        retired.fetch_add(1);
        if (i % 10 == 0) gc.Collect();
      }
    });
  }
  for (auto& t : threads) t.join();
  gc.Collect();
  EXPECT_EQ(freed.load(), retired.load());
}

TEST(EpochGC, DestructorFreesLeftovers) {
  std::atomic<int> freed{0};
  {
    EpochGC gc;
    gc.Retire(&CountingFree, &freed, 8);
  }
  EXPECT_EQ(freed.load(), 1);
}

}  // namespace
}  // namespace cpma
