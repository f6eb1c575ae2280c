// Parameterised configuration-space sweep of the concurrent PMA:
// segment capacity × segments-per-gate × index fanout × async mode, each
// validated against a std::map oracle and the structural invariants.
// This guards the places where configuration interacts with the
// protocol (gate alignment, window levels).

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"
#include "concurrent/concurrent_pma.h"

namespace cpma {
namespace {

using AsyncMode = ConcurrentConfig::AsyncMode;

struct SweepParam {
  size_t segment_capacity;
  size_t segments_per_gate;
  size_t index_fanout;
  AsyncMode mode;
};

class ConfigSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  ConcurrentConfig MakeConfig() const {
    const SweepParam& p = GetParam();
    ConcurrentConfig cfg;
    cfg.pma.segment_capacity = p.segment_capacity;
    cfg.segments_per_gate = p.segments_per_gate;
    cfg.index_fanout = p.index_fanout;
    cfg.async_mode = p.mode;
    cfg.t_delay_ms = 3;
    return cfg;
  }
};

TEST_P(ConfigSweep, OracleUnderChurn) {
  ConcurrentPMA pma(MakeConfig());
  std::map<Key, Value> oracle;
  Random rng(GetParam().segment_capacity * 131 +
             GetParam().segments_per_gate);
  for (int op = 0; op < 25000; ++op) {
    Key k = rng.NextBounded(3000);
    if (rng.NextBounded(10) < 6) {
      pma.Insert(k, op);
      oracle[k] = static_cast<Value>(op);
    } else {
      pma.Remove(k);
      oracle.erase(k);
    }
  }
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), oracle.size());
  auto it = oracle.begin();
  size_t n = 0;
  bool ok = true;
  pma.Scan(0, kKeyMax, [&](Key k, Value v) {
    ok = ok && it != oracle.end() && it->first == k && it->second == v;
    ++it;
    ++n;
    return ok;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(n, oracle.size());
}

TEST_P(ConfigSweep, ParallelWritersConverge) {
  ConcurrentPMA pma(MakeConfig());
  constexpr int kWriters = 4;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        pma.Insert(static_cast<Key>(i * kWriters + w), i);
      }
    });
  }
  for (auto& t : threads) t.join();
  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  EXPECT_EQ(pma.Size(), static_cast<size_t>(kWriters * kOps));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Values(
        // Tiny everything: maximal structural churn.
        SweepParam{8, 2, 2, AsyncMode::kSync},
        SweepParam{8, 2, 2, AsyncMode::kOneByOne},
        SweepParam{8, 4, 4, AsyncMode::kBatch},
        // Wide gates vs narrow gates.
        SweepParam{16, 16, 8, AsyncMode::kBatch},
        SweepParam{16, 2, 8, AsyncMode::kOneByOne},
        // Large segments, paper-ish gate.
        SweepParam{256, 8, 16, AsyncMode::kBatch},
        // Small segments, default index fanout.
        SweepParam{8, 4, 16, AsyncMode::kOneByOne},
        // Mid-size segments, paper gate.
        SweepParam{32, 8, 16, AsyncMode::kBatch}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const auto& p = info.param;
      std::string name = "B" + std::to_string(p.segment_capacity) + "_g" +
                         std::to_string(p.segments_per_gate) + "_f" +
                         std::to_string(p.index_fanout);
      switch (p.mode) {
        case AsyncMode::kSync: name += "_sync"; break;
        case AsyncMode::kOneByOne: name += "_1by1"; break;
        case AsyncMode::kBatch: name += "_batch"; break;
      }
      return name;
    });

}  // namespace
}  // namespace cpma
