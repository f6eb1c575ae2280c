// Reproduces Figure 3 of the paper: average throughput to insert (and,
// for plots d-f, to mix insertions/deletions) and to concurrently scan,
// for MassTree / BwTree / ART / PMA under the uniform and Zipfian
// distributions.
//
//   plot  threads (updaters+scanners)   workload
//   a     16 + 0                        insert-only
//   b     12 + 4                        insert-only
//   c      8 + 8                        insert-only
//   d     16 + 0                        mixed insert/delete (preloaded)
//   e     12 + 4                        mixed
//   f      8 + 8                        mixed
//
// Usage: bench_fig3 [--plot=a|b|c|d|e|f|all] [--ops=N] [--range=R]
// Paper scale is ops=2^30 over range 2^27; the default is scaled down to
// finish on a laptop — shapes, not absolute numbers, are the target.

#include <cinttypes>
#include <map>
#include <memory>

#include "baselines/art/art.h"
#include "baselines/btree/btree.h"
#include "baselines/bwtree/bwtree.h"
#include "baselines/masstree/masstree.h"
#include "concurrent/concurrent_pma.h"
#include "driver.h"

namespace cpma::bench {
namespace {

std::unique_ptr<OrderedMap> MakeStructure(const std::string& which) {
  if (which == "masstree") return std::make_unique<Masstree>();
  if (which == "bwtree") return std::make_unique<BwTree>();
  if (which == "art") return std::make_unique<ArtBTree>(4096);
  // Paper configuration: B=128, 8 segments/gate, async batch processing
  // with t_delay = 100 ms (the master merges every window alone).
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 128;
  cfg.segments_per_gate = 8;
  cfg.async_mode = ConcurrentConfig::AsyncMode::kBatch;
  cfg.t_delay_ms = 100;
  return std::make_unique<ConcurrentPMA>(cfg);
}

void RunPlot(char plot, size_t ops, uint64_t range, BenchJson* json) {
  int upd = 16, scan = 0;
  bool mixed = false;
  switch (plot) {
    case 'a': upd = 16; scan = 0; mixed = false; break;
    case 'b': upd = 12; scan = 4; mixed = false; break;
    case 'c': upd = 8; scan = 8; mixed = false; break;
    case 'd': upd = 16; scan = 0; mixed = true; break;
    case 'e': upd = 12; scan = 4; mixed = true; break;
    case 'f': upd = 8; scan = 8; mixed = true; break;
    default: std::fprintf(stderr, "unknown plot %c\n", plot); return;
  }
  std::printf(
      "\n=== Figure 3%c: %d updater(s), %d scanner(s), %s ===\n", plot, upd,
      scan, mixed ? "mixed insert/delete (preloaded)" : "insert-only");
  std::printf("%-10s %-10s %14s %14s %10s\n", "structure", "dist",
              "updates[M/s]", "scans[Melt/s]", "time[s]");
  for (const char* which : {"masstree", "bwtree", "art", "pma"}) {
    for (Dist dist : {Dist::kUniform, Dist::kZipf1, Dist::kZipf15,
                      Dist::kZipf2}) {
      auto map = MakeStructure(which);
      WorkloadConfig cfg;
      cfg.num_ops = ops;
      cfg.key_range = range;
      cfg.dist = dist;
      cfg.update_threads = upd;
      cfg.scan_threads = scan;
      cfg.mixed = mixed;
      cfg.preload = mixed ? ops : 0;
      WorkloadResult r = RunWorkload(map.get(), cfg);
      std::printf("%-10s %-10s %14.3f %14.3f %10.2f\n", which,
                  DistName(dist), r.update_mops, r.scan_meps, r.seconds);
      std::fflush(stdout);
      JsonRecord& rec =
          json->Add()
              .Str("plot", std::string(1, plot))
              .Str("structure", which)
              .Str("dist", DistName(dist))
              .Int("update_threads", static_cast<uint64_t>(upd))
              .Int("scan_threads", static_cast<uint64_t>(scan))
              .Bool("mixed", mixed)
              .Int("ops", ops)
              .Int("range", range)
              .Num("update_mops", r.update_mops)
              .Num("scan_meps", r.scan_meps)
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
  const std::string plot = flags.Get("plot", "all");
  std::printf("# bench_fig3: ops=%zu range=%" PRIu64
              " (paper: ops=2^30, range=2^27, 16 threads)\n",
              ops, range);
  BenchJson json(flags, "fig3");
  if (plot == "all") {
    for (char p : {'a', 'b', 'c', 'd', 'e', 'f'}) {
      RunPlot(p, ops, range, &json);
    }
  } else {
    RunPlot(plot[0], ops, range, &json);
  }
  return json.Write() ? 0 : 1;
}
