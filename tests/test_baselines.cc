// Unified conformance + stress tests run against every OrderedMap
// implementation (the four tree baselines and the concurrent PMA), so
// the benchmark comparisons in bench/ compare structures that all pass
// identical semantics checks.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "baselines/art/art.h"
#include "baselines/btree/btree.h"
#include "baselines/bwtree/bwtree.h"
#include "baselines/masstree/masstree.h"
#include "common/random.h"
#include "common/zipf.h"
#include "concurrent/concurrent_pma.h"

namespace cpma {
namespace {

struct Factory {
  const char* name;
  std::unique_ptr<OrderedMap> (*make)();
  bool (*check)(OrderedMap*, std::string*);
};

template <typename T>
bool CheckOf(OrderedMap* m, std::string* err) {
  return static_cast<T*>(m)->CheckInvariants(err);
}

const Factory kFactories[] = {
    {"BTree",
     [] { return std::unique_ptr<OrderedMap>(new BTree()); },
     &CheckOf<BTree>},
    {"BTree8K",
     [] { return std::unique_ptr<OrderedMap>(new BTree(8192)); },
     &CheckOf<BTree>},
    {"ART",
     [] { return std::unique_ptr<OrderedMap>(new ArtBTree()); },
     &CheckOf<ArtBTree>},
    {"Masstree",
     [] { return std::unique_ptr<OrderedMap>(new Masstree()); },
     &CheckOf<Masstree>},
    {"BwTree",
     [] { return std::unique_ptr<OrderedMap>(new BwTree()); },
     &CheckOf<BwTree>},
    {"ConcurrentPMA",
     [] { return std::unique_ptr<OrderedMap>(new ConcurrentPMA()); },
     &CheckOf<ConcurrentPMA>},
};

class OrderedMapConformance : public ::testing::TestWithParam<Factory> {};

TEST_P(OrderedMapConformance, BasicSemantics) {
  auto m = GetParam().make();
  EXPECT_EQ(m->Size(), 0u);
  m->Insert(10, 100);
  m->Insert(5, 50);
  m->Insert(10, 101);  // upsert
  m->Flush();
  Value v = 0;
  EXPECT_TRUE(m->Find(10, &v));
  EXPECT_EQ(v, 101u);
  EXPECT_TRUE(m->Find(5, &v));
  EXPECT_FALSE(m->Find(7, &v));
  EXPECT_EQ(m->Size(), 2u);
  m->Remove(10);
  m->Remove(999);  // absent
  m->Flush();
  EXPECT_FALSE(m->Find(10, &v));
  EXPECT_EQ(m->Size(), 1u);
}

TEST_P(OrderedMapConformance, SortedScanAndSum) {
  auto m = GetParam().make();
  uint64_t expect_sum = 0;
  for (Key k = 0; k < 3000; ++k) {
    m->Insert(k * 7 + 1, k);
    expect_sum += k;
  }
  m->Flush();
  EXPECT_EQ(m->SumAll(), expect_sum);
  std::vector<Key> seen;
  m->Scan(0, kKeyMax, [&](Key k, Value) {
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen.size(), 3000u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  // Bounded scan.
  seen.clear();
  m->Scan(8, 22, [&](Key k, Value) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), 3u);  // keys 8, 15, 22
  EXPECT_EQ(seen.front(), 8u);
  EXPECT_EQ(seen.back(), 22u);
}

TEST_P(OrderedMapConformance, RandomProgramMatchesStdMap) {
  auto m = GetParam().make();
  std::map<Key, Value> oracle;
  Random rng(99);
  for (int op = 0; op < 40000; ++op) {
    Key k = rng.NextBounded(8000);
    if (rng.NextBounded(10) < 7) {
      Value v = rng.Next();
      m->Insert(k, v);
      oracle[k] = v;
    } else {
      m->Remove(k);
      oracle.erase(k);
    }
  }
  m->Flush();
  std::string err;
  ASSERT_TRUE(GetParam().check(m.get(), &err)) << err;
  ASSERT_EQ(m->Size(), oracle.size());
  std::vector<std::pair<Key, Value>> got;
  m->Scan(0, kKeyMax, [&](Key k, Value v) {
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

TEST_P(OrderedMapConformance, SequentialInsertHeavy) {
  auto m = GetParam().make();
  for (Key k = 0; k < 60000; ++k) m->Insert(k, k * 3);
  m->Flush();
  std::string err;
  ASSERT_TRUE(GetParam().check(m.get(), &err)) << err;
  EXPECT_EQ(m->Size(), 60000u);
  Value v;
  for (Key k = 0; k < 60000; k += 1009) {
    ASSERT_TRUE(m->Find(k, &v));
    ASSERT_EQ(v, k * 3);
  }
}

TEST_P(OrderedMapConformance, ConcurrentDisjointWritersWithScans) {
  auto m = GetParam().make();
  constexpr int kWriters = 4;
  constexpr int kOps = 6000;
  std::vector<std::map<Key, Value>> expected(kWriters);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int r = 0; r < 2; ++r) {
    scanners.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load()) sink += m->SumAll();
      (void)sink;
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(5000 + w);
      ZipfDistribution zipf(1 << 18, 1.1);
      for (int i = 0; i < kOps; ++i) {
        Key k = zipf.Sample(rng) * kWriters + static_cast<Key>(w);
        if (rng.NextBounded(10) < 7) {
          m->Insert(k, k + i);
          expected[w][k] = k + i;
        } else {
          m->Remove(k);
          expected[w].erase(k);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : scanners) t.join();
  m->Flush();
  std::map<Key, Value> oracle;
  for (auto& e : expected) oracle.insert(e.begin(), e.end());
  std::string err;
  ASSERT_TRUE(GetParam().check(m.get(), &err)) << err;
  ASSERT_EQ(m->Size(), oracle.size());
  size_t i = 0;
  bool content_ok = true;
  m->Scan(0, kKeyMax, [&](Key k, Value v) {
    auto it = oracle.find(k);
    content_ok = content_ok && it != oracle.end() && it->second == v;
    ++i;
    return content_ok;
  });
  EXPECT_TRUE(content_ok);
  EXPECT_EQ(i, oracle.size());
}

// Many short rounds, each from an empty map, so nodes split all the time
// while neighbouring writers run. Two racing splits of one BwTree node
// must not drop a node from its leaf chain (the element count check and
// Size() see one that did).
TEST_P(OrderedMapConformance, DisjointWriterRoundsKeepInvariants) {
  constexpr int kRounds = 40;
  constexpr int kWriters = 8;
  constexpr int kOps = 5000;
  for (int round = 0; round < kRounds; ++round) {
    auto m = GetParam().make();
    std::vector<std::set<Key>> expected(kWriters);
    std::atomic<bool> stop{false};
    std::thread scanner([&] {
      uint64_t sink = 0;
      while (!stop.load()) sink += m->SumAll();
      (void)sink;
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Random rng(static_cast<uint64_t>(round * kWriters + w) + 1);
        for (int i = 0; i < kOps; ++i) {
          const Key k = rng.NextBounded(1 << 14) * kWriters +
                        static_cast<Key>(w);
          if (rng.NextBounded(10) < 7) {
            m->Insert(k, k);
            expected[w].insert(k);
          } else {
            m->Remove(k);
            expected[w].erase(k);
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true);
    scanner.join();
    m->Flush();
    size_t total = 0;
    for (const auto& e : expected) total += e.size();
    std::string err;
    ASSERT_TRUE(GetParam().check(m.get(), &err))
        << "round " << round << ": " << err;
    ASSERT_EQ(m->Size(), total) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructures, OrderedMapConformance,
                         ::testing::ValuesIn(kFactories),
                         [](const ::testing::TestParamInfo<Factory>& info) {
                           return std::string(info.param.name);
                         });

TEST(BwTreeSpecific, ConsolidationHappens) {
  BwTree t;
  for (Key k = 0; k < 5000; ++k) t.Insert(k, k);
  EXPECT_GT(t.num_consolidations(), 0u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST(BTreeSpecific, LeafSizeControlsCapacity) {
  BTree small(4096), big(8192);
  EXPECT_EQ(small.leaf_capacity() * 2, big.leaf_capacity());
}

}  // namespace
}  // namespace cpma
