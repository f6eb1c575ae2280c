// Tests for the YCSB workload generator (bench/workloads.h) and the
// tail-attribution machinery (TailEventRing / TailRecorder): generator
// determinism, mix proportions and skew over large draws, and the
// event-ring / slow-op attribution contracts the bench drivers rely on.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "../bench/workloads.h"
#include "concurrent/event_ring.h"

// TailRecorder lives in the bench driver header; it only needs the
// flag/JSON-free parts, which are header-only.
#include "../bench/driver.h"

namespace cpma {
namespace {

using bench::Chooser;
using bench::FindMix;
using bench::MixSpec;
using bench::TailRecorder;
using bench::WorkloadGenerator;
using bench::YcsbOp;
using bench::YcsbOpSpec;

// ---------------------------------------------------------------------------
// Workload generator: determinism.

TEST(Workloads, SameSeedSameSequence) {
  const MixSpec* mix = FindMix('A');
  ASSERT_NE(mix, nullptr);
  WorkloadGenerator g1(*mix, /*records=*/10000, /*thread=*/0,
                       /*threads=*/4, /*seed=*/42);
  WorkloadGenerator g2(*mix, 10000, 0, 4, 42);
  for (int i = 0; i < 10000; ++i) {
    const YcsbOpSpec a = g1.Next();
    const YcsbOpSpec b = g2.Next();
    ASSERT_EQ(a.op, b.op) << "op " << i;
    ASSERT_EQ(a.key, b.key) << "op " << i;
    ASSERT_EQ(a.scan_len, b.scan_len) << "op " << i;
  }
}

TEST(Workloads, DifferentThreadsDifferentStreams) {
  const MixSpec* mix = FindMix('A');
  ASSERT_NE(mix, nullptr);
  WorkloadGenerator g0(*mix, 10000, 0, 4, 42);
  WorkloadGenerator g1(*mix, 10000, 1, 4, 42);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    const YcsbOpSpec a = g0.Next();
    const YcsbOpSpec b = g1.Next();
    if (a.op == b.op && a.key == b.key) ++same;
  }
  // Streams are independent; a handful of coincidences is fine, a
  // mostly-identical stream is a seeding bug.
  EXPECT_LT(same, 100);
}

TEST(Workloads, InsertKeysDisjointAcrossThreads) {
  for (char m : {'D', 'I'}) {
    const MixSpec* mix = FindMix(m);
    ASSERT_NE(mix, nullptr) << m;
    const uint64_t records = 5000;
    std::set<Key> seen;
    for (uint64_t t = 0; t < 4; ++t) {
      WorkloadGenerator g(*mix, records, t, 4, 7);
      for (int i = 0; i < 2000; ++i) {
        const YcsbOpSpec op = g.Next();
        if (op.op != YcsbOp::kInsert) continue;
        EXPECT_GT(op.key, records) << "inserts go above the preload";
        EXPECT_TRUE(seen.insert(op.key).second)
            << "mix " << m << ": insert key collided across threads: "
            << op.key;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workload generator: mix proportions and skew over 1M draws.

TEST(Workloads, MixProportionsWithinTolerance) {
  const size_t kDraws = 1u << 20;
  for (char m : {'A', 'B', 'C', 'D', 'E', 'F', 'I', 'S'}) {
    const MixSpec* mix = FindMix(m);
    ASSERT_NE(mix, nullptr) << m;
    WorkloadGenerator g(*mix, 100000, 0, 1, 99);
    size_t counts[bench::kNumYcsbOps] = {};
    for (size_t i = 0; i < kDraws; ++i) {
      ++counts[static_cast<size_t>(g.Next().op)];
    }
    const double want[bench::kNumYcsbOps] = {mix->read, mix->update,
                                             mix->insert, mix->scan,
                                             mix->rmw};
    for (size_t op = 0; op < bench::kNumYcsbOps; ++op) {
      const double got =
          static_cast<double>(counts[op]) / static_cast<double>(kDraws);
      EXPECT_NEAR(got, want[op], 0.005)
          << "mix " << m << " op " << bench::YcsbOpName(
                 static_cast<YcsbOp>(op));
    }
  }
}

TEST(Workloads, ZipfianIsSkewedAndInRange) {
  const MixSpec* mix = FindMix('C');  // 100% zipfian reads
  ASSERT_NE(mix, nullptr);
  const uint64_t records = 100000;
  const size_t kDraws = 1u << 20;
  WorkloadGenerator g(*mix, records, 0, 1, 3);
  std::map<Key, size_t> freq;
  for (size_t i = 0; i < kDraws; ++i) {
    const Key k = g.Next().key;
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, records);
    ++freq[k];
  }
  // Sort by frequency: under zipf(0.99) over 100k records the hottest
  // handful of keys should own a clearly super-uniform share. Uniform
  // would give each key ~10.5 draws; the #1 zipf key gets ~5-6% of all
  // draws. Use a very loose bound so this never flakes.
  std::vector<size_t> by_freq;
  by_freq.reserve(freq.size());
  for (const auto& kv : freq) by_freq.push_back(kv.second);
  std::sort(by_freq.rbegin(), by_freq.rend());
  EXPECT_GT(by_freq[0], kDraws / 100)
      << "hottest zipf key should own >1% of draws";
  size_t top10 = 0;
  for (size_t i = 0; i < 10 && i < by_freq.size(); ++i) top10 += by_freq[i];
  EXPECT_GT(top10, kDraws / 5)
      << "10 hottest zipf keys should own >20% of draws";
  // Scrambling spreads hot ranks over the key space: the two hottest
  // keys should not be adjacent small keys (1,2,...).
  EXPECT_GT(freq.size(), 10000u) << "tail keys must still appear";
}

TEST(Workloads, LatestChooserReadsNearFrontier) {
  const MixSpec* mix = FindMix('D');  // 95r/5i, latest
  ASSERT_NE(mix, nullptr);
  const uint64_t records = 100000;
  WorkloadGenerator g(*mix, records, 0, 1, 11);
  const size_t kDraws = 1u << 20;
  size_t near = 0, reads = 0;
  for (size_t i = 0; i < kDraws; ++i) {
    const YcsbOpSpec op = g.Next();
    if (op.op != YcsbOp::kRead) continue;
    ++reads;
    // "Latest" means most reads land close behind the insert frontier.
    if (op.key + 1000 >= g.frontier()) ++near;
  }
  ASSERT_GT(reads, 0u);
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(reads), 0.5)
      << "latest chooser must concentrate reads near the frontier";
}

TEST(Workloads, ScanLengthsBoundedWithSaneMean) {
  const MixSpec* mix = FindMix('E');
  ASSERT_NE(mix, nullptr);
  WorkloadGenerator g(*mix, 100000, 0, 1, 5);
  uint64_t total = 0, scans = 0;
  for (int i = 0; i < 200000; ++i) {
    const YcsbOpSpec op = g.Next();
    if (op.op != YcsbOp::kScan) continue;
    ASSERT_GE(op.scan_len, 1u);
    ASSERT_LE(op.scan_len, mix->max_scan_len);
    total += op.scan_len;
    ++scans;
  }
  ASSERT_GT(scans, 0u);
  const double mean =
      static_cast<double>(total) / static_cast<double>(scans);
  // Uniform over [1,100] -> mean 50.5; allow generous slack.
  EXPECT_GT(mean, 40.0);
  EXPECT_LT(mean, 61.0);
}

// ---------------------------------------------------------------------------
// TailEventRing.

TEST(TailEventRing, DisabledIsNoOp) {
  TailEventRing ring;
  ring.Record(TailEvent::kResize, 100, 200);
  ring.RecordInstant(TailEvent::kWatchdogStall);
  EXPECT_EQ(ring.count(TailEvent::kResize), 0u);
  EXPECT_EQ(ring.count(TailEvent::kWatchdogStall), 0u);
  std::vector<TailEventRecord> out;
  ring.Drain(&out);
  EXPECT_TRUE(out.empty());
}

TEST(TailEventRing, RecordCountDrainReset) {
  TailEventRing ring;
  ring.Enable();
  ring.Record(TailEvent::kRebalanceWindow, 100, 250);
  ring.Record(TailEvent::kResize, 300, 900);
  ring.RecordInstant(TailEvent::kReadFallback);
  EXPECT_EQ(ring.count(TailEvent::kRebalanceWindow), 1u);
  EXPECT_EQ(ring.count(TailEvent::kResize), 1u);
  EXPECT_EQ(ring.count(TailEvent::kReadFallback), 1u);
  std::vector<TailEventRecord> out;
  ring.Drain(&out);
  ASSERT_EQ(out.size(), 3u);
  bool saw_rebalance = false;
  for (const TailEventRecord& e : out) {
    if (e.type == TailEvent::kRebalanceWindow) {
      saw_rebalance = true;
      EXPECT_EQ(e.start_ns, 100u);
      EXPECT_EQ(e.end_ns, 250u);
    }
  }
  EXPECT_TRUE(saw_rebalance);
  ring.Reset();
  EXPECT_EQ(ring.count(TailEvent::kRebalanceWindow), 0u);
  out.clear();
  ring.Drain(&out);
  EXPECT_TRUE(out.empty());
}

TEST(TailEventRing, WrapKeepsNewestCapacityRecords) {
  TailEventRing ring;
  ring.Enable();
  const size_t n = TailEventRing::kCapacity + 100;
  for (size_t i = 0; i < n; ++i) {
    ring.Record(TailEvent::kCoalesceFlush, i, i + 1);
  }
  EXPECT_EQ(ring.count(TailEvent::kCoalesceFlush), n);
  std::vector<TailEventRecord> out;
  ring.Drain(&out);
  EXPECT_EQ(out.size(), TailEventRing::kCapacity);
  // The survivors are the newest kCapacity events.
  for (const TailEventRecord& e : out) {
    EXPECT_GE(e.start_ns, n - TailEventRing::kCapacity);
  }
}

// ---------------------------------------------------------------------------
// TailRecorder.

TEST(TailRecorder, KeepsKSlowest) {
  TailRecorder rec(4);
  // Offer 10 ops with durations 1..10 (start=0..9 scaled).
  for (uint64_t i = 1; i <= 10; ++i) {
    rec.Offer(1000 * i, 1000 * i + i * 10);
  }
  // Attribution with no events: everything in the kept set is "none",
  // and only the 4 slowest survive.
  const TailRecorder::Attribution a = rec.Attribute({});
  EXPECT_EQ(a.ops, 4u);
  EXPECT_EQ(a.none, 4u);
  EXPECT_EQ(a.stall + a.resize + a.rebalance + a.flush + a.fallback, 0u);
  // The fastest kept op had duration 7*10 ns.
  EXPECT_EQ(a.threshold_ns, 70u);
}

TEST(TailRecorder, AttributesByOverlapWithPriority) {
  TailRecorder rec(8);
  rec.Offer(100, 200);  // overlaps rebalance only
  rec.Offer(300, 400);  // overlaps rebalance AND resize -> resize wins
  rec.Offer(500, 600);  // overlaps nothing
  rec.Offer(700, 800);  // overlaps stall AND resize -> stall wins
  std::vector<TailEventRecord> events = {
      {TailEvent::kRebalanceWindow, 150, 350},
      {TailEvent::kResize, 390, 420},
      {TailEvent::kResize, 690, 710},
      {TailEvent::kWatchdogStall, 750, 750},
  };
  const TailRecorder::Attribution a = rec.Attribute(events);
  EXPECT_EQ(a.ops, 4u);
  EXPECT_EQ(a.rebalance, 1u);
  EXPECT_EQ(a.resize, 1u);
  EXPECT_EQ(a.stall, 1u);
  EXPECT_EQ(a.none, 1u);
  EXPECT_EQ(a.flush, 0u);
  EXPECT_EQ(a.fallback, 0u);
}

TEST(TailRecorder, MergeCombinesAcrossThreads) {
  TailRecorder a(4), b(4);
  for (uint64_t i = 1; i <= 4; ++i) a.Offer(0, i * 10);        // 10..40
  for (uint64_t i = 5; i <= 8; ++i) b.Offer(0, i * 10);        // 50..80
  a.Merge(b);
  const TailRecorder::Attribution attr = a.Attribute({});
  EXPECT_EQ(attr.ops, 4u);
  EXPECT_EQ(attr.threshold_ns, 50u);  // 50,60,70,80 survive the merge
}

}  // namespace
}  // namespace cpma
