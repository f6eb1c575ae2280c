// Direct unit tests for the batch-merge spread machinery (paper §3.5):
// CountMerged, PlanMergedSpread (even and adaptive), MergedCopyToBuffer,
// MergedStreamInto and CanonicalizeBatch — the code paths the rebalancer
// uses to fold combining queues into window rebalances and resizes.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "concurrent/rebalancer.h"
#include "pma/spread.h"
#include "pma/storage.h"

namespace cpma {
namespace {

// Fill segments with keys 10, 20, 30, ... continuing across segments.
void FillStorage(Storage* st, const std::vector<uint32_t>& cards) {
  Key k = 10;
  for (size_t s = 0; s < cards.size(); ++s) {
    for (uint32_t i = 0; i < cards[s]; ++i) {
      st->segment(s)[i] = {k, k * 2};
      k += 10;
    }
    st->set_card(s, cards[s]);
  }
  st->RebuildRoutes(0, cards.size());
}

std::vector<Item> Dump(const Storage& st) {
  std::vector<Item> out;
  for (size_t s = 0; s < st.num_segments(); ++s) {
    for (uint32_t i = 0; i < st.card(s); ++i) {
      out.push_back(st.segment(s)[i]);
    }
  }
  return out;
}

TEST(CanonicalizeBatch, LastOpPerKeyWins) {
  std::deque<GateOp> q;
  q.push_back({GateOp::Type::kInsert, 5, 100});
  q.push_back({GateOp::Type::kInsert, 3, 1});
  q.push_back({GateOp::Type::kRemove, 5, 0});
  q.push_back({GateOp::Type::kInsert, 5, 200});
  q.push_back({GateOp::Type::kRemove, 3, 0});
  auto batch = CanonicalizeBatch(q);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].key, 3u);
  EXPECT_TRUE(batch[0].is_delete);
  EXPECT_EQ(batch[1].key, 5u);
  EXPECT_FALSE(batch[1].is_delete);
  EXPECT_EQ(batch[1].value, 200u);
}

TEST(CountMerged, ClassifiesInsertsUpsertsDeletes) {
  Storage st(4, 8);
  FillStorage(&st, {4, 4, 0, 0});  // keys 10..80
  std::vector<BatchEntry> ops = {
      {15, 1, false},   // new insert
      {20, 9, false},   // upsert (key exists)
      {30, 0, true},    // delete existing
      {99, 0, true},    // delete absent: no-op
      {100, 5, false},  // new insert
  };
  size_t ins = 0, del = 0;
  size_t total = CountMerged(st, 0, 4, ops, &ins, &del);
  EXPECT_EQ(ins, 2u);
  EXPECT_EQ(del, 1u);
  EXPECT_EQ(total, 8u + 2u - 1u);
}

TEST(MergedCopy, ProducesSortedMergedContent) {
  Storage st(4, 8);
  FillStorage(&st, {4, 4, 0, 0});
  std::vector<BatchEntry> ops = {
      {15, 1, false}, {20, 9, false}, {30, 0, true}, {100, 5, false}};
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(st, 0, 4, ops, &ins, &del);
  WindowPlan plan = PlanMergedSpread(st, 0, 4, total);
  MergedCopyToBuffer(&st, plan, ops);
  FinishSpread(&st, plan);

  std::map<Key, Value> expect = {{10, 20}, {15, 1},  {20, 9},  {40, 80},
                                 {50, 100}, {60, 120}, {70, 140},
                                 {80, 160}, {100, 5}};
  auto got = Dump(st);
  ASSERT_EQ(got.size(), expect.size());
  auto it = expect.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    EXPECT_EQ(got[i].key, it->first);
    EXPECT_EQ(got[i].value, it->second);
  }
  // Targets even (traditional policy) and routes rebuilt.
  for (size_t s = 0; s + 1 < 4; ++s) {
    EXPECT_LE(st.card(s + 1) > 0 ? st.card(s) - st.card(s + 1) : 0, 1u);
  }
}

TEST(MergedCopy, DeleteEverything) {
  Storage st(2, 8);
  FillStorage(&st, {4, 4});
  std::vector<BatchEntry> ops;
  for (Key k = 10; k <= 80; k += 10) ops.push_back({k, 0, true});
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(st, 0, 2, ops, &ins, &del);
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(del, 8u);
  WindowPlan plan = PlanMergedSpread(st, 0, 2, total);
  MergedCopyToBuffer(&st, plan, ops);
  FinishSpread(&st, plan);
  EXPECT_TRUE(Dump(st).empty());
  EXPECT_EQ(st.route(1), kKeySentinel);
}

TEST(MergedStream, ResizeMergesIntoFreshStorage) {
  Storage old_st(2, 8);
  FillStorage(&old_st, {6, 6});  // keys 10..120
  std::vector<BatchEntry> ops = {
      {5, 55, false}, {60, 0, true}, {125, 7, false}};
  size_t ins = 0, del = 0;
  const size_t total =
      CountMerged(old_st, 0, 2, ops, &ins, &del);
  EXPECT_EQ(total, 12u + 2u - 1u);
  Storage fresh(4, 8);
  MergedStreamInto(old_st, ops, total, &fresh);
  auto got = Dump(fresh);
  ASSERT_EQ(got.size(), total);
  EXPECT_EQ(got.front().key, 5u);
  EXPECT_EQ(got.back().key, 125u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].key, got[i].key);
    EXPECT_NE(got[i].key, 60u);
  }
  // Fresh cards even and routes consistent.
  std::string unused;
  for (size_t s = 1; s < 4; ++s) {
    if (fresh.card(s) > 0) {
      EXPECT_EQ(fresh.route(s), fresh.segment(s)[0].key);
    }
  }
}

TEST(MergedCopy, EmptyBatchIsAPureSpread) {
  Storage st(4, 8);
  FillStorage(&st, {7, 1, 0, 2});  // keys 10..100
  std::vector<BatchEntry> ops;  // empty batch: merge degenerates to spread
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(st, 0, 4, ops, &ins, &del);
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(ins, 0u);
  EXPECT_EQ(del, 0u);
  WindowPlan plan = PlanMergedSpread(st, 0, 4, total);
  MergedCopyToBuffer(&st, plan, ops);
  FinishSpread(&st, plan);
  auto got = Dump(st);
  ASSERT_EQ(got.size(), 10u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, (i + 1) * 10);
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GE(st.card(s), 2u);  // evenly re-spread
    EXPECT_LE(st.card(s), 3u);
  }
}

TEST(MergedCopy, BatchConfinedToOneSegment) {
  // Every batch key lands inside segment 1's key range; the merge must
  // still emit segments 0, 2, 3 as unbroken runs around it.
  Storage st(4, 8);
  FillStorage(&st, {4, 4, 4, 4});  // keys 10..160
  std::vector<BatchEntry> ops = {
      {51, 1, false},  // insert inside segment 1
      {60, 9, false},  // upsert of an existing segment-1 key
      {70, 0, true},   // delete a segment-1 key
      {75, 2, false},  // insert inside segment 1
  };
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(st, 0, 4, ops, &ins, &del);
  EXPECT_EQ(ins, 2u);
  EXPECT_EQ(del, 1u);
  EXPECT_EQ(total, 16u + 2u - 1u);
  WindowPlan plan = PlanMergedSpread(st, 0, 4, total);
  MergedCopyToBuffer(&st, plan, ops);
  FinishSpread(&st, plan);
  std::map<Key, Value> expect;
  for (Key k = 10; k <= 160; k += 10) {
    if (k != 70) expect[k] = k * 2;
  }
  expect[51] = 1;
  expect[60] = 9;
  expect[75] = 2;
  auto got = Dump(st);
  ASSERT_EQ(got.size(), expect.size());
  auto it = expect.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    EXPECT_EQ(got[i].key, it->first);
    EXPECT_EQ(got[i].value, it->second);
  }
}

TEST(MergedCopy, AdaptivePlanFollowsInsertionPredictor) {
  // Sync and one-by-one global windows are merged spreads: the appended
  // ops arrive merged, and the plan must still steer the gaps to where
  // the predictor says the next inserts go — the right edge here.
  constexpr uint32_t B = 16;
  constexpr size_t kSegs = 8;
  Storage st(kSegs, B);
  FillStorage(&st, {12, 12, 12, 12, 12, 12, 12, 15});  // keys 10..990
  for (int i = 0; i < 40; ++i) st.bump_insert_count(kSegs - 1);
  for (int i = 0; i < 5; ++i) st.bump_insert_count(2);
  std::vector<BatchEntry> ops;
  for (Key k = 1000; k < 1010; ++k) ops.push_back({k, k, false});  // appends
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(st, 0, kSegs, ops, &ins, &del);
  ASSERT_EQ(total, 99u + 10u);
  ASSERT_LE(total, kSegs * (B - 1));

  WindowPlan plan = PlanMergedSpread(st, 0, kSegs, total, /*adaptive=*/true);
  size_t sum = 0;
  for (size_t j = 0; j < kSegs; ++j) {
    EXPECT_GE(plan.target_card[j], 1u) << "segment " << j;
    EXPECT_LE(plan.target_card[j], B - 1) << "segment " << j;
    if (j != kSegs - 1) {
      EXPECT_LT(plan.target_card[kSegs - 1], plan.target_card[j])
          << "the hottest segment must get the most gaps";
    }
    sum += plan.target_card[j];
  }
  EXPECT_EQ(sum, total);
  EXPECT_LT(plan.target_card[2], plan.target_card[0]);  // warm < cold

  MergedCopyToBuffer(&st, plan, ops);  // checks the plan total itself
  FinishSpread(&st, plan);
  auto got = Dump(st);
  ASSERT_EQ(got.size(), total);
  for (size_t i = 1; i < got.size(); ++i) ASSERT_LT(got[i - 1].key, got[i].key);
  EXPECT_EQ(got.back().key, 1009u);
  for (size_t s = 1; s < kSegs; ++s) {
    EXPECT_EQ(st.route(s), st.segment(s)[0].key);
  }
}

TEST(MergedCopy, AdaptivePlanStaysInsideTheBand) {
  // Any predictor state and any merged total, adaptive or even split:
  // targets sum to the total, keep >= 1 element per segment, and leave
  // every segment a free slot whenever the window can afford one
  // (m <= n*(B-1)). Every caller requires that much room, so one spread
  // always makes room for the insertion that triggered it.
  Random rng(19);
  for (int round = 0; round < 300; ++round) {
    const uint32_t B = 8u << rng.NextBounded(3);
    const size_t n = size_t{2} << rng.NextBounded(4);
    Storage st(n, B);
    std::vector<uint32_t> cards(n);
    for (auto& c : cards) c = 1 + static_cast<uint32_t>(rng.NextBounded(B));
    FillStorage(&st, cards);
    for (size_t s = 0; s < n; ++s) {
      const uint64_t bumps = rng.NextBounded(4) == 0 ? rng.NextBounded(500)
                                                      : rng.NextBounded(3);
      for (uint64_t i = 0; i < bumps; ++i) st.bump_insert_count(s);
    }
    const size_t m = n + rng.NextBounded(n * (B - 1) + 1);  // [n, n*B]
    for (const bool adaptive : {true, false}) {
      WindowPlan plan = PlanMergedSpread(st, 0, n, m, adaptive);
      size_t sum = 0;
      for (uint32_t c : plan.target_card) {
        ASSERT_GE(c, 1u) << "round " << round << " adaptive " << adaptive;
        ASSERT_LE(c, m <= n * (B - 1) ? B - 1 : B)
            << "round " << round << " adaptive " << adaptive;
        sum += c;
      }
      ASSERT_EQ(sum, m) << "round " << round << " adaptive " << adaptive;
    }
  }
}

TEST(CanonicalizeBatch, RandomisedAgainstMapOracle) {
  // The stable-sort canonicalization must agree with the obvious
  // last-write-wins map on arbitrary interleavings of ops per key.
  Random rng(31);
  for (int round = 0; round < 200; ++round) {
    std::deque<GateOp> q;
    std::map<Key, BatchEntry> oracle;
    const int nops = static_cast<int>(rng.NextBounded(60));
    for (int i = 0; i < nops; ++i) {
      const Key k = rng.NextBounded(12);  // small domain: many duplicates
      const bool is_del = rng.NextBounded(2) == 0;
      const Value v = static_cast<Value>(i);
      q.push_back({is_del ? GateOp::Type::kRemove : GateOp::Type::kInsert,
                   k, v});
      oracle[k] = BatchEntry{k, v, is_del};
    }
    auto batch = CanonicalizeBatch(q);
    ASSERT_EQ(batch.size(), oracle.size()) << "round " << round;
    auto it = oracle.begin();
    for (size_t i = 0; i < batch.size(); ++i, ++it) {
      ASSERT_EQ(batch[i].key, it->first) << "round " << round;
      ASSERT_EQ(batch[i].is_delete, it->second.is_delete);
      if (!batch[i].is_delete) {
        ASSERT_EQ(batch[i].value, it->second.value);
      }
    }
  }
}

TEST(ConcurrentBatch, AllDeletionsBatchTriggersShrink) {
  // Async-batch mode: grow the array, then delete almost everything in
  // one burst — the deletions must flow through the batch machinery,
  // drop the global density below the shrink threshold and resize the
  // array down, with the survivors intact.
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 8;
  cfg.segments_per_gate = 2;
  cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
  cfg.t_delay_ms = 1;
  ConcurrentPMA pma(cfg);
  constexpr Key kN = 4000;
  for (Key k = 1; k <= kN; ++k) pma.Insert(k, k);
  pma.Flush();
  const size_t grown_capacity = pma.capacity();
  for (Key k = 1; k <= kN - 10; ++k) pma.Remove(k);
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 10u);
  EXPECT_LT(pma.capacity(), grown_capacity);
  EXPECT_GE(pma.num_resizes(), 2u);  // grew up, shrank back down
  for (Key k = kN - 9; k <= kN; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << k;
    EXPECT_EQ(v, k);
  }
  EXPECT_FALSE(pma.Find(1, nullptr));
}

TEST(ConcurrentBatch, DuplicateKeyLastWinsThroughBatchQueue) {
  // Rapid upserts + deletes of the same keys in batch mode: whatever
  // lands on the combining queue must canonicalize per key to the last
  // op (CanonicalizeBatch) before the merged spread applies it.
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 8;
  cfg.segments_per_gate = 2;
  cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
  cfg.t_delay_ms = 1;
  ConcurrentPMA pma(cfg);
  constexpr Key kKeys = 512;
  for (int round = 0; round < 5; ++round) {
    for (Key k = 1; k <= kKeys; ++k) {
      if (round % 2 == 0) {
        pma.Insert(k, k * 1000 + static_cast<Value>(round));
      } else if (k % 2 == 0) {
        pma.Remove(k);
      }
    }
  }
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  for (Key k = 1; k <= kKeys; ++k) {
    Value v = 0;
    ASSERT_TRUE(pma.Find(k, &v)) << k;  // last round (4) re-inserted all
    EXPECT_EQ(v, k * 1000 + 4);
  }
  EXPECT_EQ(pma.Size(), kKeys);
}

TEST(MergedStream, RandomisedAgainstStdMap) {
  Random rng(7);
  for (int round = 0; round < 50; ++round) {
    const size_t segs = 4;
    const uint32_t B = 16;
    Storage st(segs, B);
    std::map<Key, Value> oracle;
    // Random initial content (sorted, strided keys).
    Key k = 1;
    for (size_t s = 0; s < segs; ++s) {
      const uint32_t c = static_cast<uint32_t>(rng.NextBounded(B - 2));
      for (uint32_t i = 0; i < c; ++i) {
        st.segment(s)[i] = {k, k};
        oracle[k] = k;
        k += 1 + rng.NextBounded(5);
      }
      st.set_card(s, c);
    }
    st.RebuildRoutes(0, segs);
    // Random batch over a slightly larger key domain.
    std::map<Key, BatchEntry> batch_map;
    const int nops = static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < nops; ++i) {
      const Key bk = 1 + rng.NextBounded(k + 10);
      const bool is_del = rng.NextBounded(3) == 0;
      batch_map[bk] = {bk, bk * 3, is_del};
      if (is_del) {
        oracle.erase(bk);
      } else {
        oracle[bk] = bk * 3;
      }
    }
    std::vector<BatchEntry> ops;
    for (auto& [kk, e] : batch_map) ops.push_back(e);
    size_t ins = 0, del = 0;
    const size_t total = CountMerged(st, 0, segs, ops, &ins, &del);
    ASSERT_EQ(total, oracle.size()) << "round " << round;
    if (total > segs * B) continue;  // would not fit: resize territory
    WindowPlan plan = PlanMergedSpread(st, 0, segs, total);
    MergedCopyToBuffer(&st, plan, ops);
    FinishSpread(&st, plan);
    auto got = Dump(st);
    ASSERT_EQ(got.size(), oracle.size()) << "round " << round;
    auto it = oracle.begin();
    for (size_t i = 0; i < got.size(); ++i, ++it) {
      ASSERT_EQ(got[i].key, it->first) << "round " << round;
      ASSERT_EQ(got[i].value, it->second);
    }
  }
}

}  // namespace
}  // namespace cpma
