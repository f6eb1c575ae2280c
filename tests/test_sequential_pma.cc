// Tests for the sequential PMA: density math, spread planning, and the
// full structure validated against a std::map oracle under randomised
// programs (property tests across segment sizes / policies).

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "pma/density.h"
#include "pma/sequential_pma.h"
#include "pma/spread.h"

namespace cpma {
namespace {

// ----------------------------------------------------------- DensityBounds

TEST(Density, PaperFigure1Thresholds) {
  // Figure 1: 4 segments, h = 3; rho_2 = 0.675, tau_2 = 0.875,
  // rho_3 = tau_3 = 0.75 with the unrelaxed parameters.
  PmaConfig cfg;
  cfg.relax_lower = false;
  DensityBounds b(cfg, 4);
  EXPECT_EQ(b.height(), 3u);
  EXPECT_DOUBLE_EQ(b.Tau(2), 0.75);   // root (k = h = 3)
  EXPECT_DOUBLE_EQ(b.Rho(2), 0.75);
  EXPECT_DOUBLE_EQ(b.Tau(1), 0.875);  // k = 2
  EXPECT_DOUBLE_EQ(b.Rho(1), 0.625);
  EXPECT_DOUBLE_EQ(b.Tau(0), 1.0);    // leaves
  EXPECT_DOUBLE_EQ(b.Rho(0), 0.5);
}

TEST(Density, MonotoneAcrossLevels) {
  PmaConfig cfg;
  cfg.relax_lower = false;
  DensityBounds b(cfg, 64);
  for (size_t l = 0; l + 1 <= b.root_level(); ++l) {
    EXPECT_GE(b.Tau(l), b.Tau(l + 1)) << "tau must decrease towards root";
    EXPECT_LE(b.Rho(l), b.Rho(l + 1)) << "rho must increase towards root";
  }
}

TEST(Density, RelaxedLowerIsZero) {
  PmaConfig cfg;
  cfg.relax_lower = true;
  DensityBounds b(cfg, 16);
  for (size_t l = 0; l <= b.root_level(); ++l) EXPECT_EQ(b.Rho(l), 0.0);
}

TEST(Density, WindowAlignment) {
  size_t begin, end;
  WindowAt(5, 0, &begin, &end);
  EXPECT_EQ(begin, 5u);
  EXPECT_EQ(end, 6u);
  WindowAt(5, 1, &begin, &end);
  EXPECT_EQ(begin, 4u);
  EXPECT_EQ(end, 6u);
  WindowAt(5, 3, &begin, &end);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 8u);
}

// ----------------------------------------------------------------- Spread

// Every spread is a merged spread; with no pending ops its batch is
// empty and the merged total is the window's live count.
WindowPlan PlanPureSpread(const Storage& st, size_t b, size_t e,
                          bool adaptive) {
  const size_t total = CountMerged(st, b, e, /*ops=*/{}, nullptr, nullptr);
  return PlanMergedSpread(st, b, e, total, adaptive);
}

TEST(Spread, TraditionalIsEven) {
  Storage st(4, 8);
  // Fill segment 0 with 8 elements, segment 1 with 2.
  for (uint32_t i = 0; i < 8; ++i) st.segment(0)[i] = {i + 1, i};
  st.set_card(0, 8);
  st.segment(1)[0] = {100, 0};
  st.segment(1)[1] = {101, 0};
  st.set_card(1, 2);
  st.RebuildRoutes(0, 4);

  WindowPlan plan = PlanPureSpread(st, 0, 2, /*adaptive=*/false);
  EXPECT_EQ(plan.total, 10u);
  EXPECT_EQ(plan.target_card[0], 5u);
  EXPECT_EQ(plan.target_card[1], 5u);
  MergedCopyToBuffer(&st, plan, /*ops=*/{});
  FinishSpread(&st, plan);
  EXPECT_EQ(st.card(0), 5u);
  EXPECT_EQ(st.card(1), 5u);
  EXPECT_EQ(st.segment(0)[0].key, 1u);
  EXPECT_EQ(st.segment(1)[0].key, 6u);
  EXPECT_EQ(st.route(1), 6u);
}

TEST(Spread, AdaptiveGivesHotSegmentMoreGaps) {
  Storage st(4, 8);
  uint64_t k = 1;
  for (size_t s = 0; s < 4; ++s) {
    for (uint32_t i = 0; i < 6; ++i) st.segment(s)[i] = {k++, 0};
    st.set_card(s, 6);
  }
  st.RebuildRoutes(0, 4);
  // Segment 2 is hot.
  for (int i = 0; i < 100; ++i) st.bump_insert_count(2);
  WindowPlan plan = PlanPureSpread(st, 0, 4, /*adaptive=*/true);
  // The hot segment receives the most gaps => the fewest elements.
  for (size_t j = 0; j < 4; ++j) {
    if (j != 2) { EXPECT_LT(plan.target_card[2], plan.target_card[j]); }
  }
  uint32_t total = 0;
  for (auto c : plan.target_card) {
    total += c;
    EXPECT_GE(c, 1u);
  }
  EXPECT_EQ(total, 24u);
}

TEST(Spread, FewerElementsThanSegmentsLeftPacks) {
  Storage st(8, 8);
  st.segment(0)[0] = {5, 0};
  st.segment(0)[1] = {6, 0};
  st.set_card(0, 2);
  st.RebuildRoutes(0, 8);
  WindowPlan plan = PlanPureSpread(st, 0, 8, false);
  EXPECT_EQ(plan.target_card[0], 1u);
  EXPECT_EQ(plan.target_card[1], 1u);
  for (size_t j = 2; j < 8; ++j) EXPECT_EQ(plan.target_card[j], 0u);
}

// ------------------------------------------------------------- Basic ops

TEST(SequentialPma, InsertFindSmoke) {
  SequentialPMA pma;
  pma.Insert(10, 100);
  pma.Insert(5, 50);
  pma.Insert(20, 200);
  Value v = 0;
  EXPECT_TRUE(pma.Find(10, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(pma.Find(5, &v));
  EXPECT_EQ(v, 50u);
  EXPECT_FALSE(pma.Find(15, &v));
  EXPECT_EQ(pma.Size(), 3u);
}

TEST(SequentialPma, UpsertOverwrites) {
  SequentialPMA pma;
  pma.Insert(1, 10);
  pma.Insert(1, 20);
  Value v = 0;
  EXPECT_TRUE(pma.Find(1, &v));
  EXPECT_EQ(v, 20u);
  EXPECT_EQ(pma.Size(), 1u);
}

TEST(SequentialPma, RemoveMakesKeyDisappear) {
  SequentialPMA pma;
  pma.Insert(1, 10);
  pma.Insert(2, 20);
  pma.Remove(1);
  EXPECT_FALSE(pma.Find(1, nullptr));
  EXPECT_TRUE(pma.Find(2, nullptr));
  EXPECT_EQ(pma.Size(), 1u);
  pma.Remove(42);  // absent: no-op
  EXPECT_EQ(pma.Size(), 1u);
}

TEST(SequentialPma, EmptyStructure) {
  SequentialPMA pma;
  EXPECT_EQ(pma.Size(), 0u);
  EXPECT_FALSE(pma.Find(1, nullptr));
  EXPECT_EQ(pma.SumAll(), 0u);
  int visited = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
}

TEST(SequentialPma, BoundaryKeys) {
  SequentialPMA pma;
  pma.Insert(kKeyMin, 1);
  pma.Insert(kKeyMax, 2);
  Value v;
  EXPECT_TRUE(pma.Find(kKeyMin, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(pma.Find(kKeyMax, &v));
  EXPECT_EQ(v, 2u);
  pma.Remove(kKeyMin);
  EXPECT_FALSE(pma.Find(kKeyMin, nullptr));
  EXPECT_TRUE(pma.Find(kKeyMax, nullptr));
}

TEST(SequentialPma, ScanIsSortedAndComplete) {
  SequentialPMA pma;
  Random rng(11);
  std::map<Key, Value> oracle;
  for (int i = 0; i < 5000; ++i) {
    Key k = rng.NextBounded(1 << 20);
    oracle[k] = i;
    pma.Insert(k, i);
  }
  std::vector<Key> seen;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    EXPECT_EQ(oracle[k], v);
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen.size(), oracle.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(SequentialPma, RangeScanRespectsBounds) {
  SequentialPMA pma;
  for (Key k = 0; k < 1000; ++k) pma.Insert(k * 10, k);
  std::vector<Key> seen;
  pma.Scan(95, 205, [&](Key k, Value) {
    seen.push_back(k);
    return true;
  });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 200u);
  EXPECT_EQ(seen.size(), 11u);
}

TEST(SequentialPma, ScanEarlyStop) {
  SequentialPMA pma;
  for (Key k = 1; k <= 1000; ++k) pma.Insert(k, k);
  int visited = 0;
  pma.Scan(0, kKeyMax, [&](Key, Value) { return ++visited < 7; });
  EXPECT_EQ(visited, 7);
}

TEST(SequentialPma, SumAllMatchesOracle) {
  SequentialPMA pma;
  uint64_t expect = 0;
  for (Key k = 1; k <= 10000; ++k) {
    pma.Insert(k * 3, k);
    expect += k;
  }
  EXPECT_EQ(pma.SumAll(), expect);
}

// ----------------------------------------------------- Growth / shrink

TEST(SequentialPma, GrowsUnderInserts) {
  SequentialPMA pma;
  const size_t initial_cap = pma.capacity();
  for (Key k = 0; k < 100000; ++k) pma.Insert(k, k);
  EXPECT_GT(pma.capacity(), initial_cap);
  EXPECT_GT(pma.num_resizes(), 0u);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 100000u);
}

TEST(SequentialPma, ShrinksUnderDeletes) {
  SequentialPMA pma;
  for (Key k = 0; k < 100000; ++k) pma.Insert(k, k);
  const size_t grown_cap = pma.capacity();
  for (Key k = 0; k < 100000; ++k) pma.Remove(k);
  EXPECT_LT(pma.capacity(), grown_cap);
  EXPECT_EQ(pma.Size(), 0u);
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
  // And it keeps working afterwards.
  pma.Insert(7, 7);
  EXPECT_TRUE(pma.Find(7, nullptr));
}

TEST(SequentialPma, DensityStaysBounded) {
  SequentialPMA pma;
  for (Key k = 0; k < 200000; ++k) pma.Insert(k, k);
  const double density = static_cast<double>(pma.Size()) /
                         static_cast<double>(pma.capacity());
  // The PMA guarantees < 50% wasted space... i.e. density within
  // (shrink, tau_root] modulo the transient right after a resize.
  EXPECT_GT(density, 0.25);
  EXPECT_LE(density, 0.76);
}

TEST(SequentialPma, SequentialInsertionIsWorstCaseButCorrect) {
  // Monotonic inserts repeatedly hit the same right-most segment — the
  // classical PMA worst case. Correctness must hold regardless.
  SequentialPMA pma;
  for (Key k = 0; k < 50000; ++k) pma.Insert(k, k * 2);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  for (Key k = 0; k < 50000; k += 997) {
    Value v;
    ASSERT_TRUE(pma.Find(k, &v));
    ASSERT_EQ(v, k * 2);
  }
}

TEST(SequentialPma, ReverseSequentialInsertion) {
  SequentialPMA pma;
  for (Key k = 50000; k-- > 0;) pma.Insert(k, k);
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), 50000u);
}

// ------------------------------------------------- Property-based tests

struct PmaParam {
  size_t segment_capacity;
  bool adaptive;
  bool relax_lower;
  uint64_t seed;  // of RandomProgramMatchesStdMap's op stream
};

class PmaPropertyTest : public ::testing::TestWithParam<PmaParam> {};

TEST_P(PmaPropertyTest, RandomProgramMatchesStdMap) {
  const PmaParam p = GetParam();
  PmaConfig cfg;
  cfg.segment_capacity = p.segment_capacity;
  cfg.adaptive = p.adaptive;
  cfg.relax_lower = p.relax_lower;
  SequentialPMA pma(cfg);
  std::map<Key, Value> oracle;
  Random rng(p.seed);

  for (int op = 0; op < 30000; ++op) {
    const uint64_t dice = rng.NextBounded(100);
    const Key k = rng.NextBounded(5000);  // small domain => many collisions
    if (dice < 60) {
      const Value v = rng.Next();
      pma.Insert(k, v);
      oracle[k] = v;
    } else if (dice < 90) {
      pma.Remove(k);
      oracle.erase(k);
    } else {
      Value v = 0;
      auto it = oracle.find(k);
      EXPECT_EQ(pma.Find(k, &v), it != oracle.end());
      if (it != oracle.end()) { EXPECT_EQ(v, it->second); }
    }
    if (op % 5000 == 4999) {
      std::string err;
      ASSERT_TRUE(pma.CheckInvariants(&err)) << err << " at op " << op;
      ASSERT_EQ(pma.Size(), oracle.size());
    }
  }
  // Full-content comparison at the end.
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

TEST_P(PmaPropertyTest, SkewedProgramMatchesStdMap) {
  const PmaParam p = GetParam();
  PmaConfig cfg;
  cfg.segment_capacity = p.segment_capacity;
  cfg.adaptive = p.adaptive;
  cfg.relax_lower = p.relax_lower;
  SequentialPMA pma(cfg);
  std::map<Key, Value> oracle;
  Random rng(12345);
  ZipfDistribution zipf(1 << 22, 1.2);

  for (int op = 0; op < 20000; ++op) {
    const Key k = zipf.Sample(rng);
    if (rng.NextBounded(10) < 7) {
      pma.Insert(k, op);
      oracle[k] = static_cast<Value>(op);
    } else {
      pma.Remove(k);
      oracle.erase(k);
    }
  }
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), oracle.size());
  uint64_t sum = 0;
  for (auto& [k, v] : oracle) sum += v;
  EXPECT_EQ(pma.SumAll(), sum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PmaPropertyTest,
    ::testing::Values(PmaParam{8, false, true, 252},
                      PmaParam{8, true, true, 259},
                      PmaParam{16, true, true, 504},
                      PmaParam{16, false, false, 496},
                      PmaParam{64, true, true, 1995},
                      PmaParam{128, true, true, 3979},
                      PmaParam{128, false, false, 3971},
                      PmaParam{256, true, true, 7947}),
    [](const ::testing::TestParamInfo<PmaParam>& info) {
      const auto& p = info.param;
      std::string name = "B" + std::to_string(p.segment_capacity);
      name += p.adaptive ? "_adaptive" : "_traditional";
      name += p.relax_lower ? "_relaxed" : "_strict";
      return name;
    });

// -------------------------------------------------------------- Adaptive

TEST(Adaptive, SkewedInsertsCauseFewerRebalancesThanTraditional) {
  auto run = [](bool adaptive) {
    PmaConfig cfg;
    cfg.segment_capacity = 32;
    cfg.adaptive = adaptive;
    SequentialPMA pma(cfg);
    // Hammer an ascending run in the middle of a pre-populated array —
    // maximally skewed insertion point.
    for (Key k = 0; k < 20000; ++k) pma.Insert(k * 1000, k);
    uint64_t before = pma.num_rebalances();
    for (Key k = 0; k < 20000; ++k) pma.Insert(10000000 + k, k);
    return pma.num_rebalances() - before;
  };
  const uint64_t with_adaptive = run(true);
  const uint64_t with_traditional = run(false);
  EXPECT_LT(with_adaptive, with_traditional)
      << "adaptive rebalancing should reduce rebalances under skew";
}

TEST(Adaptive, CalibratorTreeDumpMentionsDensities) {
  SequentialPMA pma;
  for (Key k = 0; k < 1000; ++k) pma.Insert(k, k);
  const std::string dump = pma.DebugDumpCalibratorTree();
  EXPECT_NE(dump.find("calibrator tree"), std::string::npos);
  EXPECT_NE(dump.find("level 0"), std::string::npos);
  EXPECT_NE(dump.find("tau="), std::string::npos);
}

}  // namespace
}  // namespace cpma
