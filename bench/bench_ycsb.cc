// YCSB-style standard workload suite (ISSUE 10): one binary sweeps the
// mixes of bench/workloads.h (the six core mixes A-F, insert-only I and
// full scans under writers S) across every backend — the concurrent
// PMA, the sharded front end, and the four baselines — through the
// common OrderedMap interface, and emits one bench-JSON record per
// (mix, backend) cell with overall + per-op-type latency percentiles
// AND a tail-attribution breakdown: the K slowest sampled ops of the
// run correlated against the mechanism events (read fallbacks,
// rebalance windows, resizes, coalescing flushes, watchdog stalls) the
// structure recorded into the TailEventRing while the run was
// measuring. "There is a p999 spike" becomes "the p999 belongs to
// resize windows".
//
// Every scan on every backend is checked to start at or above its start
// key and to ascend strictly. Full passes (mix S) alternate between the
// ordered Scan (the ScanCursor, and the k-way merge on the hash-sharded
// backend) and SumAll (optimistic gate sums); each path's rate is
// reported on its own, as items per second of that path's pass time:
// scan_meps for Scan, sum_meps for SumAll.
//
// Usage: bench_ycsb [--mixes=A,B,C,D,E,F,I,S] [--backends=pma,sharded,
//        masstree,bwtree,art,btree] [--records=N] [--ops=N]
//        [--threads=T] [--seed=S] [--tail_k=K] [--json=F] [--jsonl=F]
//
// Defaults are CI-scale (seconds on a laptop); the nightly soak slot
// scales --records/--ops up and appends to a ycsb.jsonl artifact, and
// sweeps the sharded backend's shard count through CPMA_SHARDS.

#include <cinttypes>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/art/art.h"
#include "baselines/btree/btree.h"
#include "baselines/bwtree/bwtree.h"
#include "baselines/masstree/masstree.h"
#include "concurrent/concurrent_pma.h"
#include "driver.h"
#include "sharded/sharded_pma.h"
#include "workloads.h"

namespace cpma::bench {
namespace {

std::vector<std::string> ParseList(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

std::unique_ptr<OrderedMap> MakeBackend(const std::string& which) {
  if (which == "masstree") return std::make_unique<Masstree>();
  if (which == "bwtree") return std::make_unique<BwTree>();
  if (which == "art") return std::make_unique<ArtBTree>(4096);
  if (which == "btree") return std::make_unique<BTree>();
  if (which == "sharded") {
    // Coalescing front door ON so mix traffic exercises the flush
    // mechanism (and its tail events); shard count from the config
    // default / CPMA_SHARDS env like every other ShardedPMA. Hash
    // partitioning: YCSB keys lie in [1, records + inserts], which an
    // even range split of the 64-bit domain would put on shard 0 alone.
    ShardedConfig cfg;
    cfg.partition = ShardedConfig::Partition::kHash;
    cfg.coalesce_ops = 32;
    cfg.coalesce_age_ms = 5;
    return std::make_unique<ShardedPMA>(cfg);
  }
  if (which == "pma") {
    // Paper configuration, synchronous mode: YCSB's point ops assume
    // read-your-writes, so updates apply inline; rebalances/resizes
    // still run on the master/worker machinery (and get attributed).
    ConcurrentConfig cfg;
    cfg.pma.segment_capacity = 128;
    cfg.segments_per_gate = 8;
    cfg.rebalancer_workers = 8;
    cfg.async_mode = ConcurrentConfig::AsyncMode::kSync;
    return std::make_unique<ConcurrentPMA>(cfg);
  }
  return nullptr;
}

/// Whether a full pass at op index `stamp` runs SumAll rather than the
/// ordered Scan. The two alternate in blocks of kLatencySampleEvery
/// ops, so the sampled ops (one per block) cover both.
bool SumAllPass(uint64_t stamp) {
  return ((stamp / kLatencySampleEvery) & 1) != 0;
}

struct ThreadStats {
  LatencyHistogram all;
  LatencyHistogram per_op[5];  // indexed by YcsbOp
  TailRecorder tail;
  uint64_t ops = 0;
  uint64_t pass_items[2] = {}, pass_ns[2] = {};  // indexed by SumAllPass

  explicit ThreadStats(size_t tail_k) : tail(tail_k) {}
};

struct CellResult {
  double secs = 0;
  uint64_t total_ops = 0;
  LatencyHistogram all;
  LatencyHistogram per_op[5];
  TailRecorder::Attribution attr;
  uint64_t pass_items[2] = {}, pass_ns[2] = {};
};

/// Run one op; returns the items a scan delivered (0 for point ops).
/// `stamp` is the op's index in its thread's stream: the update value,
/// and the input of SumAllPass for a full pass.
uint64_t ExecuteOp(OrderedMap* map, const YcsbOpSpec& spec, uint64_t stamp) {
  Value v = 0;
  switch (spec.op) {
    case YcsbOp::kRead:
      map->Find(spec.key, &v);
      break;
    case YcsbOp::kUpdate:
      map->Insert(spec.key, stamp);
      break;
    case YcsbOp::kInsert:
      map->Insert(spec.key, spec.key);
      break;
    case YcsbOp::kScan: {
      if (spec.scan_len == 0 && SumAllPass(stamp)) {
        const uint64_t items = map->Size();
        volatile uint64_t sink = map->SumAll();
        (void)sink;
        return items;
      }
      uint64_t seen = 0;
      Key prev = 0;
      map->Scan(spec.key, kKeyMax, [&](Key key, Value val) {
        CPMA_CHECK_MSG(seen == 0 ? key >= spec.key : key > prev,
                       "scan keys must ascend strictly from the start key");
        prev = key;
        v += val;
        ++seen;
        return spec.scan_len == 0 || seen < spec.scan_len;
      });
      return seen;
    }
    case YcsbOp::kRmw:
      map->Find(spec.key, &v);
      map->Insert(spec.key, v + 1);
      break;
  }
  return 0;
}

/// Load [1, records] in parallel so reads always have a target;
/// outside the measured window and outside the event ring's view.
void Preload(OrderedMap* map, uint64_t records, int threads) {
  std::vector<std::thread> pre;
  for (int t = 0; t < threads; ++t) {
    pre.emplace_back([&, t] {
      for (uint64_t k = 1 + static_cast<uint64_t>(t); k <= records;
           k += static_cast<uint64_t>(threads)) {
        map->Insert(k, k);
      }
    });
  }
  for (auto& th : pre) th.join();
  map->Flush();
}

CellResult RunCell(OrderedMap* map, const MixSpec& mix, uint64_t records,
                   uint64_t ops, int threads, uint64_t seed,
                   size_t tail_k) {
  TailEventRing& ring = TailEventRing::Global();
  ring.Reset();
  ring.Enable();

  std::vector<ThreadStats> stats;
  stats.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) stats.emplace_back(tail_k);

  Timer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PinThisThread(static_cast<unsigned>(t));
      ThreadStats& st = stats[static_cast<size_t>(t)];
      WorkloadGenerator gen(mix, records, t, threads, seed);
      const uint64_t n = ops / static_cast<uint64_t>(threads);
      for (uint64_t i = 0; i < n; ++i) {
        const YcsbOpSpec spec = gen.Next();
        const bool sampled = (i & (kLatencySampleEvery - 1)) == 0;
        const bool full_pass = spec.op == YcsbOp::kScan && spec.scan_len == 0;
        if (!sampled && !full_pass) {
          ExecuteOp(map, spec, i);
          continue;
        }
        const uint64_t t0 = NowNanos();
        const uint64_t items = ExecuteOp(map, spec, i);
        const uint64_t t1 = NowNanos();
        if (full_pass) {
          st.pass_items[SumAllPass(i)] += items;
          st.pass_ns[SumAllPass(i)] += t1 - t0;
        }
        if (sampled) {
          st.all.Record(t1 - t0);
          st.per_op[static_cast<size_t>(spec.op)].Record(t1 - t0);
          st.tail.Offer(t0, t1);
        }
      }
      st.ops = n;
    });
  }
  for (auto& th : workers) th.join();
  map->Flush();
  const double secs = timer.ElapsedSeconds();
  ring.Disable();

  CellResult r;
  r.secs = secs;
  TailRecorder tail(tail_k);
  for (const ThreadStats& st : stats) {
    r.total_ops += st.ops;
    for (int p = 0; p < 2; ++p) {
      r.pass_items[p] += st.pass_items[p];
      r.pass_ns[p] += st.pass_ns[p];
    }
    r.all.Merge(st.all);
    for (int o = 0; o < 5; ++o) r.per_op[o].Merge(st.per_op[o]);
    tail.Merge(st.tail);
  }
  std::vector<TailEventRecord> events;
  ring.Drain(&events);
  r.attr = tail.Attribute(events);
  return r;
}

}  // namespace
}  // namespace cpma::bench

int main(int argc, char** argv) {
  using namespace cpma;
  using namespace cpma::bench;
  Flags flags(argc, argv);
  const uint64_t records = flags.GetInt("records", 100000);
  const uint64_t ops = flags.GetInt("ops", 200000);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const uint64_t seed = flags.GetInt("seed", 42);
  const size_t tail_k = flags.GetInt("tail_k", 512);
  const std::string mixes = flags.Get("mixes", "A,B,C,D,E,F,I,S");
  const std::string backends =
      flags.Get("backends", "pma,sharded,masstree,bwtree,art,btree");

  std::printf("# bench_ycsb: records=%" PRIu64 " ops=%" PRIu64
              " threads=%d seed=%" PRIu64 "\n",
              records, ops, threads, seed);
  std::printf("%-4s %-10s %12s %10s %10s %10s  %s\n", "mix", "backend",
              "ops[M/s]", "p50[ns]", "p99[ns]", "p999[ns]",
              "tail attribution");

  BenchJson json(flags, "ycsb");
  int status = 0;
  for (const std::string& mix_name : ParseList(mixes)) {
    const MixSpec* mix =
        mix_name.size() == 1 ? FindMix(mix_name[0]) : nullptr;
    if (mix == nullptr) {
      std::fprintf(stderr, "bench_ycsb: unknown mix '%s'\n",
                   mix_name.c_str());
      status = 1;
      continue;
    }
    for (const std::string& backend : ParseList(backends)) {
      auto map = MakeBackend(backend);
      if (map == nullptr) {
        std::fprintf(stderr, "bench_ycsb: unknown backend '%s'\n",
                     backend.c_str());
        status = 1;
        continue;
      }
      Preload(map.get(), records, threads);
      const auto* sharded = dynamic_cast<const ShardedPMA*>(map.get());
      if (sharded != nullptr) {
        for (size_t i = 0; i < sharded->num_shards(); ++i) {
          CPMA_CHECK_MSG(sharded->shard(i).Size() > 0,
                         "preload left a shard empty");
        }
      }
      CellResult r = RunCell(map.get(), *mix, records, ops, threads, seed,
                             tail_k);
      const double mops =
          static_cast<double>(r.total_ops) / r.secs / 1e6;
      // Items per second of each full-pass path's own pass time.
      auto pass_meps = [&r](bool sum_all) {
        return r.pass_ns[sum_all] == 0
                   ? 0.0
                   : 1e3 * static_cast<double>(r.pass_items[sum_all]) /
                         static_cast<double>(r.pass_ns[sum_all]);
      };
      const double scan_meps = pass_meps(false);
      const double sum_meps = pass_meps(true);
      const TailRecorder::Attribution& a = r.attr;
      std::printf("%-4c %-10s %12.3f %10" PRIu64 " %10" PRIu64
                  " %10" PRIu64
                  "  stall=%" PRIu64 " resize=%" PRIu64 " rebal=%" PRIu64
                  " flush=%" PRIu64 " fallbk=%" PRIu64 " none=%" PRIu64,
                  mix->name, backend.c_str(), mops, r.all.PercentileNs(0.5),
                  r.all.PercentileNs(0.99), r.all.PercentileNs(0.999),
                  a.stall, a.resize, a.rebalance, a.flush, a.fallback,
                  a.none);
      if (mix->full_scans()) {
        std::printf("  full-pass scan %.1f sum %.1f Mel/s", scan_meps,
                    sum_meps);
      }
      std::printf("\n");
      std::fflush(stdout);

      JsonRecord& rec = json.Add();
      rec.Str("mix", std::string(1, mix->name))
          .Str("backend", backend)
          .Int("records", records)
          .Int("ops", ops)
          .Int("threads", static_cast<uint64_t>(threads))
          .Int("seed", seed)
          .Num("ops_mops", mops)
          .Num("seconds", r.secs);
      if (sharded != nullptr) {
        rec.Str("partition", sharded->config().partition ==
                                     ShardedConfig::Partition::kHash
                                 ? "hash"
                                 : "range")
            .Int("shards", sharded->num_shards());
      }
      if (mix->full_scans()) {
        rec.Num("scan_meps", scan_meps).Num("sum_meps", sum_meps);
      }
      AddLatencyFields(rec, "op", r.all);
      AddLatencyFields(rec, "read", r.per_op[0]);
      AddLatencyFields(rec, "update", r.per_op[1]);
      AddLatencyFields(rec, "insert", r.per_op[2]);
      AddLatencyFields(rec, "scan", r.per_op[3]);
      AddLatencyFields(rec, "rmw", r.per_op[4]);
      AddTailFields(rec, r.attr, TailEventRing::Global());
      AddPlacementFields(rec);
    }
  }
  if (!json.Write()) status = 1;
  return status;
}
