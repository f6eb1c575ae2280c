// Micro-benchmarks (google-benchmark) for the substrates: sequential PMA
// operations, a whole-array copy spread, static index lookups, gate
// latch acquisition, epoch enter/exit and Zipf sampling. These back the
// per-component claims in DESIGN.md.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/epoch_gc.h"
#include "common/hotpath/cpu_dispatch.h"
#include "common/hotpath/search.h"
#include "common/hotpath/search_avx2.h"
#include "common/random.h"
#include "common/zipf.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/gate.h"
#include "concurrent/static_index.h"
#include "pma/sequential_pma.h"
#include "pma/spread.h"

namespace cpma {
namespace {

// ------------------------------------------------- hot-path kernels
// Direct comparison of the segment lower-bound kernels on a full
// (card = B = 128) segment with uniform random probes — the access
// pattern of every Find/Insert (ISSUE 2).

std::vector<Item> MakeSegment(size_t card) {
  std::vector<Item> seg(card);
  Key k = 17;
  for (size_t i = 0; i < card; ++i) {
    seg[i] = {k, i};
    k += 1 + (i * 2654435761u) % 1024;
  }
  return seg;
}

void BM_SegmentLowerBoundScalar(benchmark::State& state) {
  const auto seg = MakeSegment(static_cast<size_t>(state.range(0)));
  const Key max = seg.back().key + 512;
  Random rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hotpath::ScalarItemLowerBound(
        seg.data(), seg.size(), rng.NextBounded(max)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SegmentLowerBoundScalar)->Arg(16)->Arg(128)->Arg(256);

#if CPMA_HAVE_AVX2_IMPL
void BM_SegmentLowerBoundAvx2(benchmark::State& state) {
  if (!hotpath::Avx2Supported()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const auto seg = MakeSegment(static_cast<size_t>(state.range(0)));
  const Key max = seg.back().key + 512;
  Random rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hotpath::Avx2ItemLowerBound(
        seg.data(), seg.size(), rng.NextBounded(max)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SegmentLowerBoundAvx2)->Arg(16)->Arg(128)->Arg(256);
#endif

void BM_SequentialPmaInsertUniform(benchmark::State& state) {
  SequentialPMA pma;
  Random rng(1);
  for (auto _ : state) {
    pma.Insert(rng.NextBounded(1 << 27), 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SequentialPmaInsertUniform);

void BM_SequentialPmaInsertSequential(benchmark::State& state) {
  SequentialPMA pma;
  Key k = 0;
  for (auto _ : state) {
    pma.Insert(k++, 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SequentialPmaInsertSequential);

void BM_SequentialPmaFind(benchmark::State& state) {
  SequentialPMA pma;
  Random rng(2);
  for (int i = 0; i < 1 << 20; ++i) pma.Insert(rng.NextBounded(1 << 27), i);
  for (auto _ : state) {
    Value v;
    benchmark::DoNotOptimize(pma.Find(rng.NextBounded(1 << 27), &v));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SequentialPmaFind);

void BM_SequentialPmaScan(benchmark::State& state) {
  SequentialPMA pma;
  Random rng(3);
  for (int i = 0; i < 1 << 20; ++i) pma.Insert(rng.NextBounded(1 << 27), i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pma.SumAll());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pma.Size()));
}
BENCHMARK(BM_SequentialPmaScan);

// One merged spread with no pending ops over a half-full 1,024-segment
// array, published by copy (the only publish).
void BM_SpreadRewiredVsCopy(benchmark::State& state) {
  Storage st(1024, 128);
  // Fill half full.
  Key k = 1;
  for (size_t s = 0; s < 1024; ++s) {
    for (uint32_t i = 0; i < 64; ++i) st.segment(s)[i] = {k++, 1};
    st.set_card(s, 64);
  }
  st.RebuildRoutes(0, 1024);
  const std::vector<BatchEntry> no_ops;  // a spread with no pending ops
  for (auto _ : state) {
    WindowPlan plan = PlanMergedSpread(st, 0, 1024, 64 * 1024);
    MergedCopyToBuffer(&st, plan, no_ops);
    FinishSpread(&st, plan);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          1024);
}
BENCHMARK(BM_SpreadRewiredVsCopy);

void BM_StaticIndexLookup(benchmark::State& state) {
  const size_t gates = static_cast<size_t>(state.range(0));
  StaticIndex idx(gates, 16);
  for (size_t g = 0; g < gates; ++g) {
    idx.SetSeparator(g, g == 0 ? kKeyMin : g * 1000);
  }
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(rng.NextBounded(gates * 1000)));
  }
}
BENCHMARK(BM_StaticIndexLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_GateAcquireRelease(benchmark::State& state) {
  Gate gate(0, 0, 8);
  Key key = 1;
  for (auto _ : state) {
    gate.ReaderAccess(&key);
    gate.ReaderRelease();
  }
}
BENCHMARK(BM_GateAcquireRelease);

void BM_EpochEnterExit(benchmark::State& state) {
  static EpochGC gc;
  for (auto _ : state) {
    EpochGuard guard(gc);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EpochEnterExit);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(1ull << 27, 1.5);
  Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_ConcurrentPmaInsertMT(benchmark::State& state) {
  static ConcurrentPMA* pma = nullptr;
  if (state.thread_index() == 0) {
    ConcurrentConfig cfg;
    cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
    cfg.t_delay_ms = 100;
    pma = new ConcurrentPMA(cfg);
  }
  Random rng(100 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    pma->Insert(rng.NextBounded(1 << 27), 1);
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.threads());
    delete pma;
    pma = nullptr;
  }
}
BENCHMARK(BM_ConcurrentPmaInsertMT)->Threads(1)->Threads(4)->Threads(8);

}  // namespace
}  // namespace cpma

// Custom main instead of BENCHMARK_MAIN(): announce the hot-path
// dispatch, and translate the repo-wide --json=<path> flag into
// google-benchmark's native JSON reporter so all five bench binaries
// share one flag for BENCH_*.json trajectories.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end(); ++it) {
    const char* a = *it;
    if (std::strncmp(a, "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (a + 7);
      args.erase(it);
      break;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  std::printf("# hotpath dispatch: %s\n",
              cpma::hotpath::ActiveDispatchName());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
