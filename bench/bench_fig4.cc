// Reproduces Figure 4 of the paper: speed-up of the asynchronous update
// schemes (one-by-one and batch processing with t_delay in {0, 100, 200,
// 400, 800} ms) over the synchronous baseline PMA, for 16 / 12 / 8
// updater threads (the remaining threads scan), under the uniform and
// Zipfian distributions. Insert-only, like the paper's experiment.
//
// Usage: bench_fig4 [--threads=16|12|8|all] [--ops=N] [--range=R]

#include <cinttypes>
#include <memory>
#include <vector>

#include "concurrent/concurrent_pma.h"
#include "driver.h"

namespace cpma::bench {
namespace {

struct ModeSpec {
  const char* label;
  ConcurrentConfig::AsyncMode mode;
  int64_t t_delay_ms;
};

const ModeSpec kModes[] = {
    {"baseline(sync)", ConcurrentConfig::AsyncMode::kSync, 0},
    {"one-by-one", ConcurrentConfig::AsyncMode::kOneByOne, 0},
    {"batch-0ms", ConcurrentConfig::AsyncMode::kBatch, 0},
    {"batch-100ms", ConcurrentConfig::AsyncMode::kBatch, 100},
    {"batch-200ms", ConcurrentConfig::AsyncMode::kBatch, 200},
    {"batch-400ms", ConcurrentConfig::AsyncMode::kBatch, 400},
    {"batch-800ms", ConcurrentConfig::AsyncMode::kBatch, 800},
};

void RunPanel(int upd_threads, size_t ops, uint64_t range, BenchJson* json) {
  const int scan_threads = 16 - upd_threads;
  std::printf("\n=== Figure 4 (%d updaters, %d scanners) ===\n", upd_threads,
              scan_threads);
  std::printf("%-16s %-10s %14s %10s\n", "scheme", "dist", "updates[M/s]",
              "speedup");
  for (Dist dist : {Dist::kUniform, Dist::kZipf1, Dist::kZipf15,
                    Dist::kZipf2}) {
    double baseline = 0;
    for (const ModeSpec& spec : kModes) {
      ConcurrentConfig cfg;
      cfg.pma.segment_capacity = 128;
      cfg.segments_per_gate = 8;
      cfg.async_mode = spec.mode;
      cfg.t_delay_ms = spec.t_delay_ms;
      ConcurrentPMA pma(cfg);
      WorkloadConfig w;
      w.num_ops = ops;
      w.key_range = range;
      w.dist = dist;
      w.update_threads = upd_threads;
      w.scan_threads = scan_threads;
      WorkloadResult r = RunWorkload(&pma, w);
      if (baseline == 0) baseline = r.update_mops;
      std::printf("%-16s %-10s %14.3f %9.2fx\n", spec.label, DistName(dist),
                  r.update_mops, r.update_mops / baseline);
      std::fflush(stdout);
      JsonRecord& rec =
          json->Add()
              .Str("scheme", spec.label)
              .Str("dist", DistName(dist))
              .Int("update_threads", static_cast<uint64_t>(upd_threads))
              .Int("scan_threads", static_cast<uint64_t>(scan_threads))
              .Int("t_delay_ms", static_cast<uint64_t>(spec.t_delay_ms))
              .Int("ops", ops)
              .Int("range", range)
              .Num("update_mops", r.update_mops)
              .Num("scan_meps", r.scan_meps)
              .Num("speedup", r.update_mops / baseline)
              .Num("seconds", r.seconds);
      AddLatencyFields(rec, "update", r.update_lat);
      AddLatencyFields(rec, "scan", r.scan_lat);
      AddPlacementFields(rec);
    }
  }
}

}  // namespace
}  // namespace cpma::bench

int main(int argc, char** argv) {
  using namespace cpma::bench;
  Flags flags(argc, argv);
  const size_t ops = flags.GetInt("ops", 1 << 20);
  const uint64_t range = flags.GetInt("range", 1ull << 27);
  const std::string threads = flags.Get("threads", "all");
  std::printf("# bench_fig4: ops=%zu range=%" PRIu64
              " (paper: 1G inserts, range 2^27)\n",
              ops, range);
  BenchJson json(flags, "fig4");
  if (threads == "all") {
    for (int t : {16, 12, 8}) RunPanel(t, ops, range, &json);
  } else {
    RunPanel(static_cast<int>(std::stoi(threads)), ops, range, &json);
  }
  return json.Write() ? 0 : 1;
}
