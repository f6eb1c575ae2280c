// Rebalance-engine benchmarks (ISSUE 3): isolates the cost of the spread
// pipeline (plan + copy + publish), the merged spread (batch folded in
// during the rebalance), and the resize stream — the write-amplification
// half of the paper that PR 2's search work did not touch — plus two
// end-to-end rebalance-heavy workloads (dense sequential inserts and
// async-batch inserts) and a scan guard.
//
// Reported numbers are millions of elements moved (or operations
// applied) per second, best of --reps repetitions per workload: on
// shared/noisy hosts the max-throughput repetition is the one with the
// least steal, mirroring the min-CPU-time methodology of BENCH_PR2.json.
//
//   build/bench/bench_rebalance --ops=2000000 --reps=5 --json=out.json
//   build/bench/bench_rebalance --what=spread,merged   # subset

#include <cstdio>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "concurrent/concurrent_pma.h"
#include "driver.h"
#include "pma/sequential_pma.h"
#include "pma/spread.h"
#include "pma/storage.h"

namespace cpma {
namespace {

using bench::BenchJson;
using bench::Flags;

struct Best {
  double mops = 0;      // millions of elements (or ops) per second
  double seconds = 0;   // duration of the best repetition
  EpochGCStats ebr;     // reclamation counters of the best rep's PMA
  // Degradation counters of the best rep's PMA (the PMA is per-rep, so
  // they are captured alongside the throughput they would explain).
  bool fallback_backend_active = false;
  uint64_t rebalance_retries = 0;
  uint64_t watchdog_trips = 0;
};

template <typename Fn>
Best BestOf(uint64_t reps, uint64_t items_per_rep, Fn&& fn) {
  Best best;
  for (uint64_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    const double secs = timer.ElapsedSeconds();
    const double mops = static_cast<double>(items_per_rep) / secs / 1e6;
    if (mops > best.mops) {
      best.mops = mops;
      best.seconds = secs;
    }
  }
  return best;
}

bench::JsonRecord& Report(BenchJson* json, const char* workload,
                          const Best& best, const char* metric,
                          uint64_t items) {
  std::printf("%-24s %10.3f M%s/s  (best rep %.4fs, %llu items)\n", workload,
              best.mops, metric, best.seconds,
              static_cast<unsigned long long>(items));
  return json->Add()
      .Str("workload", workload)
      .Int("items_per_rep", items)
      .Num("update_mops", best.mops)
      .Num("seconds", best.seconds);
}

/// Storage filled to `card` elements per segment with increasing keys.
void FillEven(Storage* st, uint32_t card) {
  Key k = 1;
  for (size_t s = 0; s < st->num_segments(); ++s) {
    for (uint32_t i = 0; i < card; ++i) st->segment(s)[i] = {k++, 1};
    st->set_card(s, card);
  }
  st->RebuildRoutes(0, st->num_segments());
}

/// Skewed fill: alternating nearly-full / nearly-empty segments — the
/// shape a hot append gate leaves behind, and the worst case for
/// gate-count partitioning.
void FillSkewed(Storage* st) {
  Key k = 1;
  const uint32_t B = static_cast<uint32_t>(st->segment_capacity());
  for (size_t s = 0; s < st->num_segments(); ++s) {
    const uint32_t c = (s % 2 == 0) ? B - 4 : 4;
    for (uint32_t i = 0; i < c; ++i) st->segment(s)[i] = {k++, 1};
    st->set_card(s, c);
  }
  st->RebuildRoutes(0, st->num_segments());
}

// Storages follow the library's default publish (copy; rewiring is the
// opt-in A/B arm measured by bench_ablation --what=rewire).
constexpr bool kUseRewiring = PmaConfig{}.use_rewiring;

size_t LiveCount(const Storage& st) {
  size_t m = 0;
  for (size_t s = 0; s < st.num_segments(); ++s) m += st.card(s);
  return m;
}

void BenchSpread(BenchJson* json, uint64_t segments, uint64_t reps,
                 bool skewed) {
  Storage st(segments, 128, kUseRewiring);
  if (skewed) {
    FillSkewed(&st);
  } else {
    FillEven(&st, 64);
  }
  const size_t m = LiveCount(st);
  // Plan + copy only: publishing would install the even layout and turn
  // every repetition after the first into a uniform spread, so the
  // skewed shape would never be re-measured. The publish (SwapWindow)
  // is covered by BM_SpreadRewiredVsCopy in bench_micro.
  const Best best = BestOf(reps, m, [&] {
    WindowPlan plan = PlanSpread(st, 0, st.num_segments(), false, SIZE_MAX);
    CopyPartitionToBuffer(&st, plan, 0, st.num_segments());
  });
  Report(json, skewed ? "spread_skewed" : "spread_uniform", best, "el", m);
}

void BenchMergedSpread(BenchJson* json, uint64_t segments, uint64_t batch,
                       uint64_t reps) {
  Storage st(segments, 128, kUseRewiring);
  FillEven(&st, 64);  // keys 1..m
  const size_t m = LiveCount(st);
  // Batch: 50% new inserts (odd gaps above m), 25% upserts, 25% deletes.
  Random rng(17);
  std::map<Key, BatchEntry> batch_map;
  while (batch_map.size() < batch) {
    const uint64_t pick = rng.NextBounded(4);
    if (pick < 2) {
      const Key k = m + 1 + rng.NextBounded(m);
      batch_map[k] = {k, 5, false};
    } else {
      const Key k = 1 + rng.NextBounded(m);
      batch_map[k] = {k, 6, pick == 3};
    }
  }
  std::vector<BatchEntry> ops;
  ops.reserve(batch_map.size());
  for (auto& [k, e] : batch_map) ops.push_back(e);

  // Each repetition counts + plans + merges the same batch into the
  // buffer; the publish is skipped so the input stays identical across
  // reps (FinishSpread would apply the deletions for good).
  const Best best = BestOf(reps, m + batch, [&] {
    size_t ins = 0, del = 0;
    const size_t total =
        CountMerged(st, 0, st.num_segments(), ops, &ins, &del);
    WindowPlan plan = PlanMergedSpread(st, 0, st.num_segments(), total);
    MergedCopyToBuffer(&st, plan, ops);
  });
  Report(json, "merged_spread", best, "el", m + batch);
}

void BenchResizeStream(BenchJson* json, uint64_t segments, uint64_t reps) {
  Storage st(segments, 128, kUseRewiring);
  FillEven(&st, 77);
  const size_t m = LiveCount(st);
  const std::vector<BatchEntry> no_ops;
  const Best best = BestOf(reps, m, [&] {
    Storage fresh(segments * 2, 128, kUseRewiring);
    MergedStreamInto(st, no_ops, m, &fresh);
  });
  Report(json, "resize_stream", best, "el", m);
}

void BenchDenseSequentialInsert(BenchJson* json, uint64_t ops,
                                uint64_t reps) {
  const Best best = BestOf(reps, ops, [&] {
    SequentialPMA pma;
    for (Key k = 0; k < ops; ++k) pma.Insert(k, 1);
  });
  Report(json, "dense_seq_insert", best, "op", ops);
}

void BenchAsyncBatchInsert(BenchJson* json, uint64_t ops, uint64_t threads,
                           uint64_t reps) {
  Best best;
  for (uint64_t r = 0; r < reps; ++r) {
    ConcurrentConfig cfg;
    cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
    cfg.t_delay_ms = 5;
    ConcurrentPMA pma(cfg);
    bench::WorkloadConfig wl;
    wl.num_ops = ops;
    wl.update_threads = static_cast<int>(threads);
    wl.dist = bench::Dist::kUniform;
    const bench::WorkloadResult res = bench::RunWorkload(&pma, wl);
    if (res.update_mops > best.mops) {
      best.mops = res.update_mops;
      best.seconds = res.seconds;
      best.ebr = pma.ebr_stats();
      best.fallback_backend_active = pma.fallback_backend_active();
      best.rebalance_retries = pma.num_rebalance_retries();
      best.watchdog_trips = pma.num_watchdog_trips();
    }
  }
  bench::JsonRecord& rec =
      Report(json, "async_batch_insert", best, "op", ops);
  // Epoch-reclamation observability for the best rep (ISSUE 6, all
  // VOLATILE): resize-path snapshot retirement is the big-ticket
  // byte-accounted garbage this workload produces.
  rec.Int("ebr_pending", best.ebr.pending_count)
      .Int("ebr_pending_bytes", best.ebr.pending_bytes)
      .Int("ebr_retired_bytes_hwm", best.ebr.retired_bytes_hwm)
      .Int("ebr_epoch_advances", best.ebr.epoch_advances)
      .Int("ebr_collections", best.ebr.collections);
  // Fault-tolerance observability (ISSUE 7, all VOLATILE): a fault-free
  // bench run reports zeros; a nonzero flags a degraded run so a perf
  // delta can be attributed before anyone chases a phantom regression.
  rec.Bool("fallback_backend_active", best.fallback_backend_active)
      .Int("failpoint_fires", failpoint::TotalFires())
      .Int("rebalance_retries", best.rebalance_retries)
      .Int("watchdog_trips", best.watchdog_trips);
}

void BenchScanGuard(BenchJson* json, uint64_t reps) {
  SequentialPMA pma;
  Random rng(3);
  for (int i = 0; i < 1 << 20; ++i) pma.Insert(rng.NextBounded(1 << 27), i);
  const size_t n = pma.Size();
  volatile uint64_t sink = 0;
  const Best best = BestOf(reps * 4, n, [&] { sink = pma.SumAll(); });
  (void)sink;
  std::printf("%-24s %10.3f Mel/s  (best rep %.4fs)\n", "scan_guard",
              best.mops, best.seconds);
  json->Add()
      .Str("workload", "scan_guard")
      .Int("items_per_rep", n)
      .Num("scan_meps", best.mops)
      .Num("seconds", best.seconds);
}

}  // namespace
}  // namespace cpma

int main(int argc, char** argv) {
  using namespace cpma;
  bench::Flags flags(argc, argv);
  const uint64_t ops = flags.GetInt("ops", 1 << 21);
  const uint64_t segments = flags.GetInt("segments", 2048);
  const uint64_t batch = flags.GetInt("batch", 4096);
  const uint64_t reps = flags.GetInt("reps", 5);
  const uint64_t threads = flags.GetInt("threads", 4);
  const std::string what = flags.Get("what", "all");
  auto want = [&](const char* w) {
    return what == "all" || what.find(w) != std::string::npos;
  };
  bench::BenchJson json(flags, "rebalance");
  std::printf("# bench_rebalance segments=%llu batch=%llu ops=%llu "
              "reps=%llu dispatch=%s\n",
              static_cast<unsigned long long>(segments),
              static_cast<unsigned long long>(batch),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(reps),
              hotpath::ActiveDispatchName());
  if (want("spread")) {
    BenchSpread(&json, segments, reps, /*skewed=*/false);
    BenchSpread(&json, segments, reps, /*skewed=*/true);
  }
  if (want("merged")) BenchMergedSpread(&json, segments, batch, reps);
  if (want("resize")) BenchResizeStream(&json, segments, reps);
  if (want("dense")) BenchDenseSequentialInsert(&json, ops, reps);
  if (want("batch_insert") || what == "all") {
    BenchAsyncBatchInsert(&json, ops, threads, reps);
  }
  if (want("scan")) BenchScanGuard(&json, reps);
  return json.Write() ? 0 : 1;
}
