// Reproduces the two textual ablations in §4.1 of the paper:
//
//  --what=leaf     ART/B+tree leaf capacity 4 KiB -> 8 KiB: trades update
//                  throughput for scan throughput (paper: the PMA's scan
//                  lead shrinks to 10-20%, while its update throughput
//                  becomes superior under uniform keys).
//  --what=segment  PMA segment capacity 128 -> 256: ~15% faster scans,
//                  ~15% slower uniform updates, faster skewed updates
//                  (fewer rebalances with larger segments).
//  --what=adaptive extra ablation: adaptive vs traditional rebalancing
//                  under skewed insertions (sequential PMA counters),
//                  and right-edge appends into a sync ConcurrentPMA
//                  (global and local rebalance counters).

#include <cinttypes>

#include "baselines/art/art.h"
#include "concurrent/concurrent_pma.h"
#include "driver.h"
#include "pma/sequential_pma.h"

namespace cpma::bench {
namespace {

WorkloadConfig BaseConfig(size_t ops, uint64_t range, Dist dist) {
  WorkloadConfig w;
  w.num_ops = ops;
  w.key_range = range;
  w.dist = dist;
  w.update_threads = 8;
  w.scan_threads = 8;
  return w;
}

// The paper's batch-mode PMA.
ConcurrentConfig PmaConfigFor(size_t segment_capacity) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = segment_capacity;
  cfg.segments_per_gate = 8;
  cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
  cfg.t_delay_ms = 100;
  return cfg;
}

void Row(const char* what, const char* label, OrderedMap* m,
         const WorkloadConfig& w, BenchJson* json) {
  WorkloadResult r = RunWorkload(m, w);
  std::printf("%-22s %-10s %14.3f %14.3f\n", label, DistName(w.dist),
              r.update_mops, r.scan_meps);
  std::fflush(stdout);
  JsonRecord& rec =
      json->Add()
          .Str("what", what)
          .Str("structure", label)
          .Str("dist", DistName(w.dist))
          .Int("update_threads", static_cast<uint64_t>(w.update_threads))
          .Int("scan_threads", static_cast<uint64_t>(w.scan_threads))
          .Int("ops", w.num_ops)
          .Int("range", w.key_range)
          .Num("update_mops", r.update_mops)
          .Num("scan_meps", r.scan_meps)
          .Num("seconds", r.seconds);
  AddLatencyFields(rec, "update", r.update_lat);
  AddLatencyFields(rec, "scan", r.scan_lat);
  AddPlacementFields(rec);
}

void LeafAblation(size_t ops, uint64_t range, BenchJson* json) {
  std::printf("\n=== Ablation: ART/B+tree leaf size (paper §4.1) ===\n");
  std::printf("%-22s %-10s %14s %14s\n", "structure", "dist",
              "updates[M/s]", "scans[Melt/s]");
  for (Dist d : {Dist::kUniform, Dist::kZipf15}) {
    for (size_t leaf : {4096u, 8192u}) {
      ArtBTree art(leaf);
      Row("leaf", leaf == 4096 ? "ART(4KiB leaves)" : "ART(8KiB leaves)",
          &art, BaseConfig(ops, range, d), json);
    }
    ConcurrentPMA pma(PmaConfigFor(128));
    Row("leaf", "PMA(B=128)", &pma, BaseConfig(ops, range, d), json);
  }
}

void SegmentAblation(size_t ops, uint64_t range, BenchJson* json) {
  std::printf("\n=== Ablation: PMA segment capacity (paper §4.1) ===\n");
  std::printf("%-22s %-10s %14s %14s\n", "structure", "dist",
              "updates[M/s]", "scans[Melt/s]");
  for (Dist d : {Dist::kUniform, Dist::kZipf15}) {
    for (size_t seg : {128u, 256u}) {
      ConcurrentPMA pma(PmaConfigFor(seg));
      Row("segment", seg == 128 ? "PMA(B=128)" : "PMA(B=256)", &pma,
          BaseConfig(ops, range, d), json);
    }
  }
}

void AdaptiveAblation(size_t ops, uint64_t range, BenchJson* json) {
  std::printf(
      "\n=== Ablation: adaptive vs traditional rebalancing (sequential) "
      "===\n");
  std::printf("%-22s %-10s %14s %16s\n", "policy", "pattern",
              "updates[M/s]", "rebalances");
  for (bool adaptive : {true, false}) {
    PmaConfig cfg;
    cfg.segment_capacity = 128;
    cfg.adaptive = adaptive;
    SequentialPMA pma(cfg);
    // Skewed pattern: ascending run inserted into a pre-populated array.
    for (Key k = 0; k < ops / 4; ++k) pma.Insert(k * 997, k);
    Timer t;
    for (Key k = 0; k < ops; ++k) pma.Insert((1ull << 40) + k, k);
    const double secs = t.ElapsedSeconds();
    std::printf("%-22s %-10s %14.3f %16" PRIu64 "\n",
                adaptive ? "adaptive" : "traditional", "asc-run",
                static_cast<double>(ops) / secs / 1e6, pma.num_rebalances());
    json->Add()
        .Str("what", "adaptive")
        .Str("structure", adaptive ? "adaptive" : "traditional")
        .Str("dist", "asc-run")
        .Int("ops", ops)
        .Num("update_mops", static_cast<double>(ops) / secs / 1e6)
        .Int("rebalances", pma.num_rebalances())
        .Num("seconds", secs);
  }
  // Right-edge appends through one sync client, the ycsb_e write path:
  // every global window there is a merged spread (the writer hands its
  // op over inside its gate's queue), so this arm shows whether merged
  // spreads follow the predictor. Preload `ops` even keys ascending, then
  // time and count appending `ops` consecutive keys above them.
  std::printf("%-22s %-10s %14s %16s %10s\n", "policy", "pattern",
              "updates[M/s]", "global_rebal", "local");
  for (bool adaptive : {true, false}) {
    ConcurrentConfig cfg;
    cfg.async_mode = ConcurrentConfig::AsyncMode::kSync;
    cfg.pma.adaptive = adaptive;
    ConcurrentPMA pma(cfg);
    for (Key k = 1; k <= ops; ++k) pma.Insert(2 * k, k);
    const uint64_t global0 = pma.num_global_rebalances();
    const uint64_t local0 = pma.num_local_rebalances();
    Timer t;
    for (Key k = 1; k <= ops; ++k) pma.Insert(2 * ops + k, k);
    const double secs = t.ElapsedSeconds();
    const uint64_t global = pma.num_global_rebalances() - global0;
    const uint64_t local = pma.num_local_rebalances() - local0;
    std::printf("%-22s %-10s %14.3f %16" PRIu64 " %10" PRIu64 "\n",
                adaptive ? "adaptive(sync)" : "traditional(sync)", "append",
                static_cast<double>(ops) / secs / 1e6, global, local);
    json->Add()
        .Str("what", "adaptive")
        .Str("structure", adaptive ? "adaptive_sync" : "traditional_sync")
        .Str("dist", "append")
        .Int("ops", ops)
        .Num("update_mops", static_cast<double>(ops) / secs / 1e6)
        .Int("global_rebalances", global)
        .Int("local_rebalances", local)
        .Num("seconds", secs);
  }
  (void)range;
}

}  // namespace
}  // namespace cpma::bench

int main(int argc, char** argv) {
  using namespace cpma::bench;
  Flags flags(argc, argv);
  const size_t ops = flags.GetInt("ops", 1 << 20);
  const uint64_t range = flags.GetInt("range", 1ull << 27);
  const std::string what = flags.Get("what", "all");
  std::printf("# bench_ablation: ops=%zu range=%" PRIu64 "\n", ops, range);
  BenchJson json(flags, "ablation");
  if (what == "leaf" || what == "all") LeafAblation(ops, range, &json);
  if (what == "segment" || what == "all") SegmentAblation(ops, range, &json);
  if (what == "adaptive" || what == "all") AdaptiveAblation(ops, range, &json);
  return json.Write() ? 0 : 1;
}
