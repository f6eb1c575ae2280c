// perfbench — the repository's benchmark: three closed-loop workloads run
// through the library's public API with every result checked, plus a
// traced mode that reports per-layer metrics. README.md in this directory
// gives the rationale, the metric-to-layer map and the flush policy.
//
//   perfbench --workload ycsb_b|ycsb_e|ingest_ckpt --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Checkpoints and span files go to DIR.

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hotpath/cpu_dispatch.h"
#include "common/pin.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/event_ring.h"
#include "concurrent/snapshot.h"
#include "persist/checkpoint.h"
#include "pma/sequential_pma.h"
#include "sharded/sharded_pma.h"
#include "stats.h"

extern char** environ;

namespace perfbench {
namespace {

using cpma::ConcurrentPMA;
using cpma::Key;
using cpma::ShardedPMA;
using cpma::Value;

// ------------------------------------------------------------ parameters

constexpr int kClients = 2;  // ycsb client threads / ingest writers
constexpr uint64_t kYcsbBRecords = 2'000'000;
constexpr uint64_t kYcsbERecords = 2'000'000;
constexpr uint64_t kIngestPreload = 2'000'000;
constexpr uint64_t kIngestInserts = 2'000'000;  // per round, all writers
constexpr uint64_t kIngestDomain = uint64_t{1} << 27;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kMaxScanLen = 100;
constexpr size_t kStreamOps = size_t{4} << 20;  // per client, replayed cyclically
constexpr uint64_t kWarmupOps = 100'000;         // untimed, per client and round
constexpr uint64_t kProbeOps = 200'000;          // probe sweep: at least this many
                                                 // ops per run
constexpr double kProbeSeconds = 2.0;            // ingest_ckpt: probe seconds per
                                                 // op class, over 3 rounds
// ycsb_*: shares of --seconds for the timed phase, the short-scan or
// point-read probes and the full-pass probes.
constexpr double kPhaseShare = 0.6, kProbeShare = 0.2, kPassShare = 0.2;
constexpr size_t kLadderOps = 400'000;           // stream prefix per rung
constexpr int kRounds = 3;  // fresh structures per run (ingest_ckpt: at least)
constexpr int kSlices = 6;  // ycsb_*: phase/probe alternations per round
constexpr int kFullPasses = 2;  // per round, at least
constexpr size_t kTailOps = 512;
constexpr int kReadSampleMask = 7;  // time 1 in 8 reads and scans
constexpr size_t kCoalesceOps = 64;
constexpr size_t kIngestShards = 4;

// ycsb_b updates set this bit, so a read sees either version.
constexpr uint64_t kUpdatedBit = uint64_t{1} << 40;
constexpr uint64_t kKeyMask = kUpdatedBit - 1;
// Op encoding: key in bits 0..39, scan length in 40..47, write flag 63.
constexpr uint64_t kWriteFlag = uint64_t{1} << 63;
inline Key OpKey(uint64_t op) { return op & kKeyMask; }
inline uint32_t OpLen(uint64_t op) { return (op >> 40) & 0xff; }

int Nproc() { return static_cast<int>(std::thread::hardware_concurrency()); }

// Rebalancer workers per PMA instance: the CPUs the clients leave free,
// split over the instances (the paper's 8 would oversubscribe 4 CPUs).
size_t WorkersPerInstance(int client_threads, size_t instances) {
  const int spare = std::max(1, Nproc() - client_threads);
  return std::max<size_t>(1, static_cast<size_t>(spare) / instances);
}

cpma::ConcurrentConfig YcsbConfig() {
  cpma::ConcurrentConfig c;  // paper geometry: B = 128, 8 segments per gate
  c.pma.segment_capacity = 128;
  c.segments_per_gate = 8;
  c.async_mode = cpma::ConcurrentConfig::AsyncMode::kSync;
  c.rebalancer_workers = WorkersPerInstance(kClients, 1);
  return c;
}

cpma::ShardedConfig IngestConfig() {
  cpma::ShardedConfig s;
  s.shard.pma.segment_capacity = 128;
  s.shard.segments_per_gate = 8;
  s.shard.async_mode = cpma::ConcurrentConfig::AsyncMode::kBatch;
  s.shard.rebalancer_workers = WorkersPerInstance(kClients + 1, kIngestShards);
  s.num_shards = kIngestShards;
  s.partition = cpma::ShardedConfig::Partition::kRange;
  for (size_t i = 1; i < kIngestShards; ++i) {
    s.splitters.push_back(1 + i * (kIngestDomain / kIngestShards));
  }
  s.coalesce_ops = kCoalesceOps;
  s.coalesce_age_ms = 2;
  s.pin_workers = false;
  return s;
}

const char* ModeName(cpma::ConcurrentConfig::AsyncMode m) {
  switch (m) {
    case cpma::ConcurrentConfig::AsyncMode::kSync: return "sync";
    case cpma::ConcurrentConfig::AsyncMode::kOneByOne: return "one_by_one";
    case cpma::ConcurrentConfig::AsyncMode::kBatch: return "batch";
  }
  return "?";
}

void EchoConfig(const char* what, const cpma::ConcurrentConfig& c) {
  std::printf(
      "config %s: segment_capacity=%zu segments_per_gate=%zu index_fanout=%zu "
      "async=%s rebalancer_workers=%zu t_delay_ms=%" PRId64
      " optimistic_retries=%d adaptive=%d rewiring=%d\n",
      what, c.pma.segment_capacity, c.segments_per_gate, c.index_fanout,
      ModeName(c.async_mode), c.rebalancer_workers, c.t_delay_ms,
      c.optimistic_retries, c.pma.adaptive, c.pma.use_rewiring);
}

void EchoConfig(const char* what, const cpma::ShardedConfig& s) {
  EchoConfig(what, s.shard);
  std::printf("config %s: shards=%zu partition=range coalesce_ops=%zu "
              "coalesce_age_ms=%" PRId64 " pin_workers=%d\n",
              what, s.num_shards, s.coalesce_ops, s.coalesce_age_ms,
              s.pin_workers);
}

// ---------------------------------------------------------------- results

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_mops", "Mops/s"},     {"read_p50_ns", "ns"},
    {"read_p99_ns", "ns"},      {"scan_p50_ns", "ns"},
    {"scan_p99_ns", "ns"},      {"write_p50_ns", "ns"},
    {"write_p99_ns", "ns"},     {"fullscan_meps", "Mitems/s"},
    {"bytes_per_item", "B"},    {"setup_s", "s"},
    {"checkpoint_s", "s"},      {"restore_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"hotpath.lower_bound_ns", "ns"},
    {"pma.find_ns", "ns"},
    {"pma.scan_ns", "ns"},
    {"pma.append_ns", "ns"},
    {"pma.insert_ns", "ns"},
    {"pma.rebalances", "count"},
    {"pma.resizes", "count"},
    {"concurrent.find_ns_1t", "ns"},
    {"concurrent.scan_ns_1t", "ns"},
    {"concurrent.append_ns_1t", "ns"},
    {"concurrent.insert_ns_1t", "ns"},
    {"concurrent.find_ns", "ns"},
    {"concurrent.scan_ns", "ns"},
    {"concurrent.write_ns", "ns"},
    {"concurrent.fallbacks_per_mread", "1/Mread"},
    {"concurrent.scan_staged_per_used", "ratio"},
    {"concurrent.scan_incomplete", "count"},
    {"concurrent.optimistic_gate_reads", "count"},
    {"concurrent.tail_none_share", "ratio"},
    {"rebalancer.local", "count"},
    {"rebalancer.global", "count"},
    {"rebalancer.resizes", "count"},
    {"rebalancer.batches", "count"},
    {"rebalancer.retries", "count"},
    {"rebalancer.window_ms", "ms"},
    {"rebalancer.resize_ms", "ms"},
    {"rebalancer.flush_wait_ms", "ms"},
    {"rebalancer.tail_share", "ratio"},
    {"epoch_gc.retired_mb", "MiB"},
    {"epoch_gc.pending_hwm_mb", "MiB"},
    {"epoch_gc.advances", "count"},
    {"epoch_gc.collections", "count"},
    {"rewiring.remaps", "count"},
    {"rewiring.fallback_copies", "count"},
    {"sharded.insert_ns_1t", "ns"},
    {"concurrent.batch_insert_ns_1t", "ns"},
    {"sharded.ops_per_flush", "ops"},
    {"sharded.age_flushes", "count"},
    {"sharded.flush_ms", "ms"},
    {"sharded.skew", "ratio"},
    {"snapshot.capture_us", "us"},
    {"snapshot.cow_page_copies", "count"},
    {"snapshot.cow_retained_mb", "MiB"},
    {"snapshot.insert_ns_1t", "ns"},
    {"snapshot.scan_retries", "count"},
    {"persist.write_ms", "ms"},
    {"persist.mb", "MiB"},
    {"persist.read_verify_ms", "ms"},
    {"persist.reinsert_ms", "ms"},
    {"persist.verify_failures", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.ring_dropped", "count"},
};

struct Result {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Put(const std::string& name, double v) { values[name] = v; }
  void Check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  }
};

template <size_t N>
void PrintResult(const Result& r, const MetricDef (&defs)[N]) {
  std::string out = "{\"correct\": ";
  out += r.correct && r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < N; ++i) {
    auto it = r.values.find(defs[i].name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, v, defs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------- clients and spans

enum Cls { kRead, kScan, kWrite, kNumCls };
constexpr const char* kClsName[kNumCls] = {"find", "scan", "write"};

struct OpWindow {
  uint64_t dur, start, end;
  bool operator>(const OpWindow& o) const { return dur > o.dur; }
};

struct SpanRec {
  const char* name;
  uint64_t start, end;
  const char* parent;  // the op or phase that issued the span
  int thread;
};

// Spans of the main thread (set-up, phases, checkpoint, restore, rungs).
std::vector<SpanRec> g_spans;

struct ScopedSpan {
  ScopedSpan(const char* name, const char* parent)
      : name(name), parent(parent), start(NowNs()) {}
  ~ScopedSpan() { g_spans.push_back({name, start, NowNs(), parent, -1}); }
  const char* name;
  const char* parent;
  uint64_t start;
};

struct alignas(64) Client {
  std::atomic<uint64_t> done{0};  // timed-phase ops, read by the coordinator
  Histogram lat[kNumCls];
  uint64_t failed = 0;
  uint64_t incomplete = 0;  // ycsb_e scans that skipped present keys
  uint64_t attempted = 0;
  // Traced phase: every op is a span.
  bool trace = false;
  int id = 0;
  uint64_t span_ns[kNumCls] = {};
  uint64_t span_n[kNumCls] = {};
  std::vector<OpWindow> slowest;  // min-heap of the kTailOps slowest ops
  std::vector<SpanRec> spans;     // every 64th op span, written at exit

  void Record(Cls c, uint64_t t0, uint64_t t1) {
    const uint64_t d = t1 - t0;
    lat[c].Add(d);
    if (!trace) return;
    span_ns[c] += d;
    ++span_n[c];
    const OpWindow w{d, t0, t1};
    if (slowest.size() < kTailOps) {
      slowest.push_back(w);
      std::push_heap(slowest.begin(), slowest.end(), std::greater<>());
    } else if (d > slowest.front().dur) {
      std::pop_heap(slowest.begin(), slowest.end(), std::greater<>());
      slowest.back() = w;
      std::push_heap(slowest.begin(), slowest.end(), std::greater<>());
    }
    if ((span_n[c] & 63) == 0) spans.push_back({kClsName[c], t0, t1, "phase", id});
  }
};

using Clients = std::vector<std::unique_ptr<Client>>;

Clients MakeClients(int n, bool trace) {
  Clients cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back(std::make_unique<Client>());
    cs.back()->trace = trace;
    cs.back()->id = i;
  }
  return cs;
}

Histogram Merged(const Clients& cs, Cls c) {
  Histogram h;
  for (const auto& cl : cs) h.Merge(cl->lat[c]);
  return h;
}

// Closed-loop phase control: clients warm up, wait for `go`, run until
// `stop`.
struct PhaseCtl {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  void WaitGo() {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
};

// Work over time, summed over phases or passes. On a host that flips
// between a fast and a slow state, totals move smoothly with the share of
// time spent in each state, where a median of windows or passes jumps
// between the two.
struct Rate {
  uint64_t work = 0, ns = 0;
  void Add(uint64_t w, uint64_t t0, uint64_t t1) {
    work += w;
    ns += t1 - t0;
  }
  void Merge(const Rate& o) {
    work += o.work;
    ns += o.ns;
  }
  double PerUs() const { return ns ? work * 1e3 / static_cast<double>(ns) : 0.0; }
};

struct PhaseOut {
  uint64_t ops = 0;                   // client ops completed in the window
  uint64_t start_ns = 0, end_ns = 0;  // the timed window
};

// Runs body(client_index) on one thread per client for `seconds` after
// every client finished its warm-up.
PhaseOut RunTimedPhase(Clients& cs, double seconds,
                       const std::function<void(int, PhaseCtl&)>& body) {
  for (auto& c : cs) c->done.store(0);
  PhaseCtl ctl;
  std::vector<std::thread> ts;
  for (size_t i = 0; i < cs.size(); ++i) {
    ts.emplace_back([&, i] { body(static_cast<int>(i), ctl); });
  }
  while (ctl.ready.load() < static_cast<int>(cs.size())) std::this_thread::yield();
  PhaseOut out;
  out.start_ns = NowNs();
  ctl.go.store(true, std::memory_order_release);
  const uint64_t due = out.start_ns + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
  for (const auto& c : cs) out.ops += c->done.load(std::memory_order_relaxed);
  out.end_ns = NowNs();
  ctl.stop.store(true);
  for (auto& t : ts) t.join();
  g_spans.push_back({"phase", out.start_ns, out.end_ns, "run", -1});
  return out;
}

// ----------------------------------------------------- per-layer counters

struct InstanceCounters {
  uint64_t resizes = 0, remaps = 0, fallback_copies = 0;
};

struct LayerCounters {
  uint64_t local = 0, global = 0, resizes = 0, batches = 0, retries = 0;
  uint64_t fallbacks = 0, gate_reads = 0;
  uint64_t ebr_retired_bytes = 0, ebr_hwm_bytes = 0, ebr_advances = 0,
           ebr_collections = 0;
  std::vector<InstanceCounters> inst;
  uint64_t coalesced_flushes = 0, coalesced_ops = 0, age_flushes = 0;

  void Add(const ConcurrentPMA& p) {
    local += p.num_local_rebalances();
    global += p.num_global_rebalances();
    resizes += p.num_resizes();
    batches += p.num_batches();
    retries += p.num_rebalance_retries();
    fallbacks += p.num_read_fallbacks();
    gate_reads += p.num_optimistic_gate_reads();
    const cpma::EpochGCStats e = p.ebr_stats();
    ebr_retired_bytes += e.retired_bytes;
    ebr_hwm_bytes += e.retired_bytes_hwm;
    ebr_advances += e.epoch_advances;
    ebr_collections += e.collections;
    inst.push_back({p.num_resizes(), p.storage_num_remaps(),
                    p.storage_num_fallback_copies()});
  }
};

LayerCounters ReadCounters(const ConcurrentPMA& p) {
  LayerCounters c;
  c.Add(p);
  return c;
}

LayerCounters ReadCounters(const ShardedPMA& s) {
  LayerCounters c;
  for (size_t i = 0; i < s.num_shards(); ++i) c.Add(s.shard(i));
  const ShardedPMA::Stats st = s.GetStats();
  c.coalesced_flushes = st.coalesced_flushes;
  c.coalesced_ops = st.coalesced_ops;
  c.age_flushes = st.age_flushes;
  return c;
}

void PutCounterDeltas(Result* r, const LayerCounters& a, const LayerCounters& b,
                      uint64_t reads) {
  r->Put("rebalancer.local", b.local - a.local);
  r->Put("rebalancer.global", b.global - a.global);
  r->Put("rebalancer.resizes", b.resizes - a.resizes);
  r->Put("rebalancer.batches", b.batches - a.batches);
  r->Put("rebalancer.retries", b.retries - a.retries);
  r->Put("concurrent.fallbacks_per_mread",
         reads ? (b.fallbacks - a.fallbacks) * 1e6 / reads : 0.0);
  r->Put("concurrent.optimistic_gate_reads", b.gate_reads - a.gate_reads);
  r->Put("epoch_gc.retired_mb", (b.ebr_retired_bytes - a.ebr_retired_bytes) / 1048576.0);
  r->Put("epoch_gc.pending_hwm_mb", b.ebr_hwm_bytes / 1048576.0);
  r->Put("epoch_gc.advances", b.ebr_advances - a.ebr_advances);
  r->Put("epoch_gc.collections", b.ebr_collections - a.ebr_collections);
  // Rewiring counters live in the storage region, which a resize
  // replaces: across a resize only the final region's count is known.
  uint64_t remaps = 0, copies = 0;
  for (size_t i = 0; i < b.inst.size(); ++i) {
    const bool same = a.inst[i].resizes == b.inst[i].resizes;
    remaps += b.inst[i].remaps - (same ? a.inst[i].remaps : 0);
    copies += b.inst[i].fallback_copies - (same ? a.inst[i].fallback_copies : 0);
  }
  r->Put("rewiring.remaps", remaps);
  r->Put("rewiring.fallback_copies", copies);
  const uint64_t flushes = b.coalesced_flushes - a.coalesced_flushes;
  r->Put("sharded.ops_per_flush",
         flushes ? static_cast<double>(b.coalesced_ops - a.coalesced_ops) / flushes : 0.0);
  r->Put("sharded.age_flushes", b.age_flushes - a.age_flushes);
}

// Ring spans of the traced phase: busy time per mechanism and what the
// slowest ops overlapped.
void PutRingMetrics(Result* r, const Clients& cs, uint64_t p0, uint64_t p1) {
  cpma::TailEventRing& ring = cpma::TailEventRing::Global();
  std::vector<cpma::TailEventRecord> ev;
  ring.Drain(&ev);
  uint64_t recorded = 0;
  for (int t = 0; t < cpma::kNumTailEvents; ++t) {
    recorded += ring.count(static_cast<cpma::TailEvent>(t));
  }
  r->Put("trace.ring_dropped", static_cast<double>(recorded - ev.size()));
  double busy[cpma::kNumTailEvents] = {};
  for (const auto& e : ev) {
    const uint64_t s = std::max(e.start_ns, p0), f = std::min(e.end_ns, p1);
    if (f > s) busy[static_cast<int>(e.type)] += (f - s) / 1e6;
    g_spans.push_back({cpma::TailEventName(e.type), e.start_ns, e.end_ns, "ring", -2});
  }
  r->Put("rebalancer.window_ms", busy[static_cast<int>(cpma::TailEvent::kRebalanceWindow)]);
  r->Put("rebalancer.resize_ms", busy[static_cast<int>(cpma::TailEvent::kResize)]);
  r->Put("sharded.flush_ms", busy[static_cast<int>(cpma::TailEvent::kCoalesceFlush)]);

  std::vector<OpWindow> slow;
  for (const auto& c : cs) slow.insert(slow.end(), c->slowest.begin(), c->slowest.end());
  std::sort(slow.begin(), slow.end(), std::greater<>());
  if (slow.size() > kTailOps) slow.resize(kTailOps);
  size_t none = 0, rebal = 0;
  for (const OpWindow& w : slow) {
    bool any = false, rb = false;
    for (const auto& e : ev) {
      if (e.start_ns > w.end || e.end_ns < w.start) continue;
      any = true;
      rb |= e.type == cpma::TailEvent::kRebalanceWindow ||
            e.type == cpma::TailEvent::kResize;
    }
    none += !any;
    rebal += rb;
  }
  const double n = slow.empty() ? 1.0 : static_cast<double>(slow.size());
  r->Put("concurrent.tail_none_share", none / n);
  r->Put("rebalancer.tail_share", rebal / n);
}

void PutSpanMeans(Result* r, const Clients& cs) {
  uint64_t ns[kNumCls] = {}, n[kNumCls] = {};
  for (const auto& c : cs) {
    for (int k = 0; k < kNumCls; ++k) {
      ns[k] += c->span_ns[k];
      n[k] += c->span_n[k];
    }
  }
  auto mean = [&](int k) { return n[k] ? static_cast<double>(ns[k]) / n[k] : 0.0; };
  r->Put("concurrent.find_ns", mean(kRead));
  r->Put("concurrent.scan_ns", mean(kScan));
  r->Put("concurrent.write_ns", mean(kWrite));
}

// Moves the sampled op spans of a traced phase into the run's span log.
void CollectSpans(Clients* cs) {
  for (auto& c : *cs) {
    g_spans.insert(g_spans.end(), c->spans.begin(), c->spans.end());
    c->spans.clear();
  }
}

void WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  auto put = [&](const SpanRec& s) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
                 ", \"parent\": \"%s\", \"thread\": %d}\n",
                 s.name, s.start, s.end, s.parent, s.thread);
  };
  for (const auto& s : g_spans) put(s);
  std::fclose(f);
}

// --------------------------------------------------------------- helpers

double Secs(uint64_t t0, uint64_t t1) { return (t1 - t0) / 1e9; }

size_t Capacity(const ConcurrentPMA& p) { return p.capacity(); }
size_t Capacity(const ShardedPMA& s) {
  size_t c = 0;
  for (size_t i = 0; i < s.num_shards(); ++i) c += s.shard(i).capacity();
  return c;
}

double BytesPerItem(size_t capacity, size_t items) {
  return items ? static_cast<double>(capacity) * sizeof(cpma::Item) / items : 0.0;
}

uint64_t ScanRetries(const cpma::PMASnapshot& s) { return s.scan_retries(); }
uint64_t ScanRetries(const cpma::ShardedSnapshot& s) {
  uint64_t r = 0;
  for (size_t i = 0; i < s.num_shards(); ++i) r += s.shard_snapshot(i).scan_retries();
  return r;
}
uint64_t CowBytes(const ConcurrentPMA& p) { return p.cow_pages_retained_bytes(); }
uint64_t CowBytes(const ShardedPMA& s) { return s.GetStats().cow_retained_bytes; }
size_t PageBytes(const ConcurrentPMA& p) { return p.storage_page_bytes(); }
size_t PageBytes(const ShardedPMA& s) { return s.shard(0).storage_page_bytes(); }

// Timed single-threaded load of `keys` (value = key), ending with Flush.
template <typename Map>
double Preload(Map* m, const std::vector<Key>& keys) {
  ScopedSpan span("setup", "run");
  const uint64_t t0 = NowNs();
  for (Key k : keys) m->Insert(k, k);
  m->Flush();
  return Secs(t0, NowNs());
}

// A full ordered pass that checks ascending order; returns the item count
// and sum of values.
template <typename Map>
void FullPass(const Map& m, uint64_t* items, uint64_t* sum, bool* ordered) {
  struct S {
    uint64_t n = 0, sum = 0;
    Key prev = 0;
    bool ordered = true;
  } s;
  S* sp = &s;
  m.Scan(cpma::kKeyMin, cpma::kKeyMax, [sp](Key k, Value v) {
    if (sp->n && k <= sp->prev) sp->ordered = false;
    sp->prev = k;
    sp->sum += v;
    ++sp->n;
    return true;
  });
  *items = s.n;
  *sum = s.sum;
  *ordered = s.ordered;
}

// Snapshot + checkpoint of a quiescent or live map. Fills the capture and
// write times and the frozen cut's item count and value sum.
struct CheckpointOut {
  double seconds = 0, capture_s = 0, write_s = 0;
  uint64_t items = 0, sum = 0, scan_retries = 0, cow_bytes = 0, bytes = 0;
  size_t page_bytes = 4096;
  bool ok = false;
};

template <typename Map>
CheckpointOut TakeCheckpoint(Map* m, const std::string& dir, uint64_t stamp,
                             bool verify_cut) {
  CheckpointOut o;
  const uint64_t bytes0 = cpma::persist::Counters().checkpoint_bytes.load();
  ScopedSpan span("checkpoint", "run");
  const uint64_t t0 = NowNs();
  auto snap = m->Snapshot();
  const uint64_t t1 = NowNs();
  cpma::persist::CheckpointOptions opts;
  opts.dir = dir;
  opts.app_stamp = stamp;
  opts.keep = 1;
  cpma::persist::CheckpointInfo info;
  const cpma::Status st = cpma::persist::WriteCheckpoint(*snap, opts, &info);
  const uint64_t t2 = NowNs();
  g_spans.push_back({"snapshot", t0, t1, "checkpoint", -1});
  g_spans.push_back({"write_checkpoint", t1, t2, "checkpoint", -1});
  o.capture_s = Secs(t0, t1);
  o.write_s = Secs(t1, t2);
  o.seconds = Secs(t0, t2);
  o.bytes = cpma::persist::Counters().checkpoint_bytes.load() - bytes0;
  o.ok = st.ok();
  if (!st.ok()) std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
  o.items = info.items;
  if (verify_cut) {
    bool ordered = true;
    uint64_t items = 0;
    FullPass(*snap, &items, &o.sum, &ordered);
    o.ok = o.ok && ordered && items == info.items;
  }
  o.scan_retries = ScanRetries(*snap);
  o.cow_bytes = CowBytes(*m);
  o.page_bytes = PageBytes(*m);
  return o;
}

template <typename Map, typename Config>
double TimedRestore(const std::string& dir, const Config& cfg, uint64_t items,
                    uint64_t sum, Result* r, double* read_ms) {
  Map fresh(cfg);
  ScopedSpan span("restore", "run");
  const uint64_t t0 = NowNs();
  const cpma::Status st = cpma::persist::Restore(dir, &fresh);
  const double s = Secs(t0, NowNs());
  if (!st.ok()) std::fprintf(stderr, "restore: %s\n", st.ToString().c_str());
  r->Check(st.ok(), "restore status");
  r->Check(fresh.Size() == items, "restored item count");
  r->Check(fresh.SumAll() == sum, "restored value sum");
  if (read_ms != nullptr) {
    std::vector<cpma::Item> got;
    const uint64_t r0 = NowNs();
    const cpma::Status rs = cpma::persist::ReadCheckpointItems(dir, &got);
    *read_ms = Secs(r0, NowNs()) * 1e3;
    r->Check(rs.ok() && got.size() == items, "checkpoint read-back");
  }
  return s;
}

void PutPersistTrace(Result* r, const CheckpointOut& c, double restore_s,
                     double read_ms, uint64_t verify_failures) {
  r->Put("snapshot.capture_us", c.capture_s * 1e6);
  r->Put("snapshot.cow_page_copies", static_cast<double>(c.cow_bytes / c.page_bytes));
  r->Put("snapshot.cow_retained_mb", c.cow_bytes / 1048576.0);
  r->Put("snapshot.scan_retries", static_cast<double>(c.scan_retries));
  r->Put("persist.write_ms", c.write_s * 1e3);
  r->Put("persist.mb", c.bytes / 1048576.0);
  r->Put("persist.read_verify_ms", read_ms);
  r->Put("persist.reinsert_ms", restore_s * 1e3 - read_ms);
  r->Put("persist.verify_failures", static_cast<double>(verify_failures));
}

std::string FreshDir(const std::string& workdir, const char* name) {
  const std::string d = workdir + "/" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

// ---------------------------------------------------------------- inputs

struct YcsbInputs {
  uint64_t records = 0;
  std::vector<Key> preload;                 // 1..records, shuffled
  std::vector<std::vector<uint64_t>> ops;   // per client, encoded ops
};

// ycsb_b: 95% Find / 5% update; ycsb_e: 95% Scan / 5% insert (insert
// keys are assigned at run time from a per-client counter, so replaying
// a stream keeps appending fresh keys).
YcsbInputs MakeYcsbInputs(uint64_t records, bool scans, uint64_t seed) {
  YcsbInputs in;
  in.records = records;
  in.preload.resize(records);
  for (uint64_t i = 0; i < records; ++i) in.preload[i] = i + 1;
  Rng order(StreamSeed(seed, 0));
  Shuffle(&in.preload, &order);
  const ScrambledZipf zipf(records, kZipfTheta);
  for (int t = 0; t < kClients; ++t) {
    Rng rng(StreamSeed(seed, 1 + t));
    std::vector<uint64_t> ops(kStreamOps);
    for (auto& op : ops) {
      const bool write = rng.Uniform() < 0.05;
      if (scans && write) {
        op = kWriteFlag;
      } else {
        op = zipf.Next(&rng);
        if (write) op |= kWriteFlag;
        if (scans) op |= uint64_t{1 + rng.Below(kMaxScanLen)} << 40;
      }
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

struct IngestInputs {
  std::vector<Key> preload;                // distinct, seeded order
  std::vector<std::vector<Key>> inserts;   // per writer
  std::vector<Key> all_sorted;             // preload + inserts
  uint64_t sum = 0;                        // of all keys (value = key)
};

IngestInputs MakeIngestInputs(uint64_t seed) {
  IngestInputs in;
  const uint64_t total = kIngestPreload + kIngestInserts;
  Rng rng(StreamSeed(seed, 10));
  std::vector<Key> keys;
  while (keys.size() < total) {
    while (keys.size() < total + total / 64) keys.push_back(1 + rng.Below(kIngestDomain));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  Shuffle(&keys, &rng);
  keys.resize(total);
  in.preload.assign(keys.begin(), keys.begin() + kIngestPreload);
  in.inserts.resize(kClients);
  for (uint64_t i = kIngestPreload; i < total; ++i) {
    in.inserts[i % kClients].push_back(keys[i]);
  }
  std::sort(keys.begin(), keys.end());
  for (Key k : keys) in.sum += k;
  in.all_sorted = std::move(keys);
  return in;
}

// ------------------------------------------------------ post-phase probes

// Point reads of keys known to be present, every call timed, for at
// least `min_ops` calls and `seconds`.
template <typename Map>
void ProbeReads(const Map& m, const std::function<Key(Rng*)>& pick,
                const std::function<bool(Key, Value)>& valid, Rng* rng,
                uint64_t min_ops, double seconds, Client* c, Result* r) {
  uint64_t bad = 0, i = 0;
  const uint64_t start = NowNs();
  for (; i < min_ops || Secs(start, NowNs()) < seconds; ++i) {
    const Key k = pick(rng);
    Value v = 0;
    const uint64_t t0 = NowNs();
    const bool hit = m.Find(k, &v);
    c->Record(kRead, t0, NowNs());
    bad += !hit || !valid(k, v);
  }
  r->attempted += i;
  r->failed += bad;
}

// Short scans whose exact result is known: expect(start, i) is the i-th
// key from `start` (0 past the end).
template <typename Map>
void ProbeScans(const Map& m, const std::function<Key(Rng*)>& pick,
                const std::function<Key(Key, uint32_t)>& expect,
                const std::function<bool(Key, Value)>& valid, Rng* rng,
                uint64_t min_ops, double seconds, Client* c, Result* r) {
  struct S {
    Key start;
    uint32_t len, got;
    bool bad;
    const std::function<Key(Key, uint32_t)>* expect;
    const std::function<bool(Key, Value)>* valid;
  } s{0, 0, 0, false, &expect, &valid};
  S* sp = &s;
  const cpma::ScanCallback cb = [sp](Key k, Value v) {
    if (k != (*sp->expect)(sp->start, sp->got) || !(*sp->valid)(k, v)) sp->bad = true;
    return ++sp->got < sp->len;
  };
  uint64_t bad = 0, i = 0;
  const uint64_t begin = NowNs();
  for (; i < min_ops || Secs(begin, NowNs()) < seconds; ++i) {
    s.start = pick(rng);
    s.len = 1 + static_cast<uint32_t>(rng->Below(kMaxScanLen));
    s.got = 0;
    s.bad = false;
    const uint64_t t0 = NowNs();
    m.Scan(s.start, cpma::kKeyMax, cb);
    c->Record(kScan, t0, NowNs());
    if (s.got < s.len && expect(s.start, s.got) != 0) s.bad = true;
    bad += s.bad;
  }
  r->attempted += i;
  r->failed += bad;
}

// Full ordered passes over a quiescent map, added to `passes`.
template <typename Map>
void ProbeFullPasses(const Map& m, uint64_t items, double seconds, Rate* passes,
                     Result* r) {
  const uint64_t start = NowNs();
  for (int p = 0; p < kFullPasses || Secs(start, NowNs()) < seconds; ++p) {
    uint64_t n = 0, sum = 0;
    bool ordered = true;
    const uint64_t t0 = NowNs();
    FullPass(m, &n, &sum, &ordered);
    passes->Add(n, t0, NowNs());
    r->Check(ordered && n == items, "full pass order and count");
  }
}

void PutLatencies(Result* r, const Histogram& read, const Histogram& scan,
                  const Histogram& write) {
  r->Put("read_p50_ns", read.Quantile(0.50));
  r->Put("read_p99_ns", read.Quantile(0.99));
  r->Put("scan_p50_ns", scan.Quantile(0.50));
  r->Put("scan_p99_ns", scan.Quantile(0.99));
  r->Put("write_p50_ns", write.Quantile(0.50));
  r->Put("write_p99_ns", write.Quantile(0.99));
  std::printf("samples read=%" PRIu64 " scan=%" PRIu64 " write=%" PRIu64 "\n",
              read.count(), scan.count(), write.count());
}

// ------------------------------------------------------------ ycsb_b/e

struct YcsbRun {
  const YcsbInputs& in;
  bool scans;                               // ycsb_e
  std::vector<uint64_t> inserted = std::vector<uint64_t>(kClients, 0);
  std::vector<size_t> pos = std::vector<size_t>(kClients, 0);  // stream cursors
  bool warmup = true;  // the next phase starts with the untimed warm-up
};

Key InsertKey(const YcsbRun& y, int t, uint64_t i) {
  return y.in.records + 1 + static_cast<uint64_t>(t) + i * kClients;
}

// One client of ycsb_b or ycsb_e against `pma`.
void YcsbClient(YcsbRun* y, ConcurrentPMA* pma, Client* c, int t, PhaseCtl& ctl) {
  const std::vector<uint64_t>& ops = y->in.ops[t];
  const uint64_t records = y->in.records;
  struct ScanState {
    Key start, prev;
    uint32_t len, got;
    bool bad, gap;
    uint64_t records;
  } s{0, 0, 0, 0, false, false, records};
  ScanState* sp = &s;
  // Order, range and values are the documented scan contract: a violation
  // fails the op. Completeness (consecutive inside the dense preload, full
  // length) is not guaranteed under concurrent multi-gate rebalances, so
  // a scan that skipped preloaded keys is counted apart as incomplete.
  const cpma::ScanCallback cb = [sp](Key k, Value v) {
    if ((sp->got > 0 && k <= sp->prev) || k < sp->start || v != k) {
      sp->bad = true;
    } else if (sp->got == 0 ? k != sp->start : k <= sp->records && k != sp->prev + 1) {
      sp->gap = true;
    }
    sp->prev = k;
    return ++sp->got < sp->len;
  };
  size_t& i = y->pos[t];
  uint64_t done = 0, sample = 0, attempted = 0;
  auto step = [&](bool timed_phase) {
    const uint64_t op = ops[i];
    if (++i == ops.size()) i = 0;
    ++attempted;
    const bool write = op & kWriteFlag;
    const bool timed = timed_phase && (c->trace || write || (++sample & kReadSampleMask) == 0);
    Cls cls = kRead;
    const uint64_t t0 = timed ? NowNs() : 0;
    if (write && y->scans) {
      cls = kWrite;
      const Key k = InsertKey(*y, t, y->inserted[t]++);
      pma->Insert(k, k);
    } else if (write) {
      cls = kWrite;
      pma->Insert(OpKey(op), OpKey(op) | kUpdatedBit);
    } else if (y->scans) {
      cls = kScan;
      s.start = OpKey(op);
      s.len = OpLen(op);
      s.got = 0;
      s.bad = s.gap = false;
      pma->Scan(s.start, cpma::kKeyMax, cb);
      if (s.got < s.len && s.prev < records) s.gap = true;
      c->failed += s.bad;
      c->incomplete += s.gap && !s.bad;
    } else {
      cls = kRead;
      Value v = 0;
      const bool hit = pma->Find(OpKey(op), &v);
      c->failed += !hit || (v & kKeyMask) != OpKey(op);
    }
    if (timed) c->Record(cls, t0, NowNs());
  };
  for (uint64_t w = 0; y->warmup && w < kWarmupOps; ++w) step(false);
  ctl.WaitGo();
  while (!ctl.stop.load(std::memory_order_relaxed)) {
    step(true);
    c->done.store(++done, std::memory_order_relaxed);
  }
  c->attempted += attempted;
}

// Expected contents after the phase: the preload plus every insert.
uint64_t YcsbExpectedSize(const YcsbRun& y) {
  uint64_t n = y.in.records;
  for (uint64_t k : y.inserted) n += k;
  return n;
}

uint64_t YcsbExpectedSum(const YcsbRun& y) {
  uint64_t sum = y.in.records * (y.in.records + 1) / 2;
  for (int t = 0; t < kClients; ++t) {
    for (uint64_t i = 0; i < y.inserted[t]; ++i) sum += InsertKey(y, t, i);
  }
  return sum;
}

// The whole array must be the preload plus exactly the inserted keys,
// each with its value or (ycsb_b) its updated value.
void CheckYcsbContents(const ConcurrentPMA& pma, const YcsbRun& y, Result* r) {
  const uint64_t items = YcsbExpectedSize(y);
  r->Check(pma.Size() == items, "size after phase");
  struct S {
    uint64_t n = 0, sum = 0;
    Key prev = 0;
    bool ok = true;
  } s;
  S* sp = &s;
  const YcsbRun* yp = &y;
  pma.Scan(cpma::kKeyMin, cpma::kKeyMax, [sp, yp](Key k, Value v) {
    const uint64_t records = yp->in.records;
    bool ok = (v & kKeyMask) == k;
    if (k <= records) {
      ok = ok && k == sp->prev + 1;
    } else {
      const uint64_t off = k - records - 1;
      ok = ok && k > sp->prev && off / kClients < yp->inserted[off % kClients];
    }
    sp->ok = sp->ok && ok;
    sp->prev = k;
    sp->sum += k;
    ++sp->n;
    return true;
  });
  r->Check(s.ok && s.n == items && s.sum == YcsbExpectedSum(y), "final contents");
}

void RunYcsb(bool scans, const YcsbInputs& in, uint64_t seed, double seconds,
             bool trace, const std::string& workdir, Result* r) {
  const cpma::ConcurrentConfig cfg = YcsbConfig();
  EchoConfig(scans ? "ycsb_e" : "ycsb_b", cfg);
  // Rounds on freshly built structures. A round is a timed set-up, then
  // kSlices alternations of a share of the timed phase with a share of
  // the probe sweep, then the checks, one checkpoint and one restore.
  // Every figure is pooled over the whole run, so no single allocation or
  // stretch of host time sets it.
  const int rounds = trace ? 1 : kRounds;
  const int slices = trace ? 1 : kSlices;
  const double share = 1.0 / (rounds * slices);
  std::unique_ptr<ConcurrentPMA> pma;
  std::unique_ptr<YcsbRun> y;
  auto body = [&y, &pma](Clients* cs) {
    return [&y, &pma, cs](int t, PhaseCtl& ctl) {
      YcsbClient(y.get(), pma.get(), (*cs)[t].get(), t, ctl);
    };
  };
  Clients cs = MakeClients(kClients, false);
  Clients traced = MakeClients(kClients, true);
  Client probe;
  Rng probe_rng(StreamSeed(seed, 20));
  // Probe keys come from the mix's own chooser, like the clients' keys.
  const uint64_t records = in.records;
  const ScrambledZipf zipf(records, kZipfTheta);
  const std::function<Key(Rng*)> pick = [&zipf](Rng* g) { return zipf.Next(g); };
  const std::function<bool(Key, Value)> valid = [](Key k, Value v) {
    return (v & kKeyMask) == k;
  };
  const std::function<Key(Key, uint32_t)> expect = [records](Key start, uint32_t i) -> Key {
    return start + i <= records ? start + i : 0;
  };
  const std::string dir = FreshDir(workdir, "ckpt");
  std::vector<double> setups, ck, restores;
  Rate phase, passes;
  double bytes_per_item = 0;
  for (int round = 0; round < rounds; ++round) {
    pma = std::make_unique<ConcurrentPMA>(cfg);
    setups.push_back(Preload(pma.get(), in.preload));
    r->Check(pma->Size() == in.records, "preload size");
    y = std::make_unique<YcsbRun>(YcsbRun{in, scans});
    for (int s = 0; s < slices; ++s) {
      y->warmup = s == 0;
      const PhaseOut ph = RunTimedPhase(
          cs, trace ? seconds / 2 : seconds * kPhaseShare * share, body(&cs));
      phase.Add(ph.ops, ph.start_ns, ph.end_ns);
      if (trace) continue;
      pma->Flush();
      // Probe sweep for the op classes this mix lacks (see README.md).
      const uint64_t ops = static_cast<uint64_t>(kProbeOps * share);
      if (scans) {
        ProbeReads(*pma, pick, valid, &probe_rng, ops, seconds * kProbeShare * share, &probe,
                   r);
      } else {
        ProbeScans(*pma, pick, expect, valid, &probe_rng, ops, seconds * kProbeShare * share,
                   &probe, r);
      }
      ProbeFullPasses(*pma, YcsbExpectedSize(*y), seconds * kPassShare * share, &passes, r);
    }
    if (trace) {
      cpma::TailEventRing& ring = cpma::TailEventRing::Global();
      ring.Reset();
      ring.Enable();
      const LayerCounters c0 = ReadCounters(*pma);
      const PhaseOut tp = RunTimedPhase(traced, seconds / 2, body(&traced));
      const uint64_t f0 = NowNs();
      pma->Flush();
      const uint64_t f1 = NowNs();
      const LayerCounters c1 = ReadCounters(*pma);
      ring.Disable();
      const double mops = phase.PerUs(), tmops = tp.ops * 1e3 / (tp.end_ns - tp.start_ns);
      r->Put("trace.overhead_pct", (mops - tmops) / mops * 100.0);
      uint64_t reads = 0;
      for (const auto& c : traced) reads += c->span_n[kRead] + c->span_n[kScan];
      PutCounterDeltas(r, c0, c1, reads);
      PutRingMetrics(r, traced, tp.start_ns, f1);
      PutSpanMeans(r, traced);
      CollectSpans(&traced);
      r->Put("rebalancer.flush_wait_ms", Secs(f0, f1) * 1e3);
    }
    pma->Flush();
    CheckYcsbContents(*pma, *y, r);
    const CheckpointOut ckpt = TakeCheckpoint(pma.get(), dir, round, false);
    const uint64_t items = YcsbExpectedSize(*y);
    r->Check(ckpt.ok && ckpt.items == items, "checkpoint");
    ck.push_back(ckpt.seconds);
    bytes_per_item = BytesPerItem(Capacity(*pma), pma->Size());
    const uint64_t sum_values = pma->SumAll();
    pma.reset();
    const uint64_t vf0 = cpma::persist::Counters().restore_verify_failures.load();
    double read_ms = 0;
    restores.push_back(TimedRestore<ConcurrentPMA>(dir, cfg, items, sum_values, r,
                                                   trace ? &read_ms : nullptr));
    if (trace) {
      PutPersistTrace(r, ckpt, restores.back(), read_ms,
                      cpma::persist::Counters().restore_verify_failures.load() - vf0);
    }
  }
  uint64_t incomplete = 0;
  for (const Clients* set : {&cs, &traced}) {
    for (const auto& c : *set) {
      r->attempted += c->attempted;
      r->failed += c->failed;
      incomplete += c->incomplete;
    }
  }
  std::printf("incomplete_scans=%" PRIu64 "\n", incomplete);
  r->Put("concurrent.scan_incomplete", static_cast<double>(incomplete));
  r->Put("setup_s", Median(setups));
  r->Put("ops_mops", phase.PerUs());
  r->Put("bytes_per_item", bytes_per_item);
  const Histogram& probe_hist = probe.lat[scans ? kRead : kScan];
  PutLatencies(r, scans ? probe_hist : Merged(cs, kRead),
               scans ? Merged(cs, kScan) : probe_hist, Merged(cs, kWrite));
  r->Put("fullscan_meps", passes.PerUs());
  r->Put("checkpoint_s", Median(ck));
  r->Put("restore_s", Mean(restores));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ ingest_ckpt

struct RoundOut {
  double setup_s = 0, restore_s = 0, bytes_per_item = 0, read_ms = 0;
  Rate phase, passes;  // writer ops over the phase; items over full passes
  CheckpointOut ckpt;
};

// One round: preload, then writers + scanner with a checkpoint at half
// progress, Flush, checks, restore. A share of the probe sweep runs on
// the final structure when `probe` is set.
RoundOut IngestRound(const IngestInputs& in, bool trace, const std::string& workdir,
                     Clients* cs, Client* probe, Rng* probe_rng, Result* r) {
  RoundOut o;
  const cpma::ShardedConfig cfg = IngestConfig();
  auto pma = std::make_unique<ShardedPMA>(cfg);
  o.setup_s = Preload(pma.get(), in.preload);
  r->Check(pma->Size() == kIngestPreload, "preload size");

  const std::string dir = FreshDir(workdir, "ckpt");
  cpma::TailEventRing& ring = cpma::TailEventRing::Global();
  if (trace) {
    ring.Reset();
    ring.Enable();
  }
  const LayerCounters c0 = ReadCounters(*pma);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false}, writers_done{false};
  std::atomic<uint64_t> progress{0};
  uint64_t num_passes = 0;
  std::atomic<uint64_t> pass_failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kClients; ++t) {
    ts.emplace_back([&, t] {
      Client& c = *(*cs)[t];
      const std::vector<Key>& keys = in.inserts[t];
      uint64_t sample = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < keys.size(); ++i) {
        const bool timed = c.trace || (++sample & kReadSampleMask) == 0;
        const uint64_t t0 = timed ? NowNs() : 0;
        pma->Insert(keys[i], keys[i]);
        if (timed) c.Record(kWrite, t0, NowNs());
        if ((i & 1023) == 0) progress.fetch_add(std::min<size_t>(1024, keys.size() - i));
      }
      c.attempted += keys.size();
    });
  }
  std::thread scanner([&] {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!writers_done.load()) {
      uint64_t n = 0, sum = 0;
      bool ordered = true;
      const uint64_t t0 = NowNs();
      FullPass(*pma, &n, &sum, &ordered);
      o.passes.Add(n, t0, NowNs());
      ++num_passes;
      pass_failures += !ordered || n < kIngestPreload;
    }
  });
  while (ready.load() < kClients + 1) std::this_thread::yield();
  const uint64_t p0 = NowNs();
  go.store(true, std::memory_order_release);
  while (progress.load() < kIngestInserts / 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  o.ckpt = TakeCheckpoint(pma.get(), dir, 1, true);
  for (int t = 0; t < kClients; ++t) ts[t].join();
  writers_done.store(true);
  const uint64_t f0 = NowNs();
  pma->Flush();
  const uint64_t p1 = NowNs();
  scanner.join();
  g_spans.push_back({"phase", p0, p1, "run", -1});
  g_spans.push_back({"flush", f0, p1, "phase", -1});
  const LayerCounters c1 = ReadCounters(*pma);
  if (trace) ring.Disable();
  o.phase.Add(kIngestInserts, p0, p1);

  r->attempted += num_passes;
  r->failed += pass_failures.load();
  r->Check(o.ckpt.ok, "checkpoint under writers");
  r->Check(o.ckpt.scan_retries == 0, "snapshot scan retries");
  r->Check(pma->Size() == in.all_sorted.size(), "size after phase");
  r->Check(pma->SumAll() == in.sum, "sum after phase");
  o.bytes_per_item = BytesPerItem(Capacity(*pma), pma->Size());

  if (trace) {
    PutCounterDeltas(r, c0, c1, num_passes);
    PutRingMetrics(r, *cs, p0, p1);
    PutSpanMeans(r, *cs);
    CollectSpans(cs);
    r->Put("rebalancer.flush_wait_ms", Secs(f0, p1) * 1e3);
    double max_items = 0, total = 0;
    for (size_t i = 0; i < pma->num_shards(); ++i) {
      max_items = std::max<double>(max_items, pma->shard(i).Size());
      total += pma->shard(i).Size();
    }
    r->Put("sharded.skew", max_items / (total / pma->num_shards()));
  }

  if (probe != nullptr) {
    const std::vector<Key>& all = in.all_sorted;
    const std::function<Key(Rng*)> pick = [&all](Rng* g) { return all[g->Below(all.size())]; };
    const std::function<bool(Key, Value)> valid = [](Key k, Value v) { return v == k; };
    const std::function<Key(Key, uint32_t)> expect = [&all](Key start, uint32_t i) -> Key {
      const size_t j = std::lower_bound(all.begin(), all.end(), start) - all.begin() + i;
      return j < all.size() ? all[j] : 0;
    };
    ProbeReads(*pma, pick, valid, probe_rng, kProbeOps / kRounds, kProbeSeconds / kRounds,
               probe, r);
    ProbeScans(*pma, pick, expect, valid, probe_rng, kProbeOps / kRounds,
               kProbeSeconds / kRounds, probe, r);
  }
  pma.reset();
  const uint64_t vf0 = cpma::persist::Counters().restore_verify_failures.load();
  o.restore_s = TimedRestore<ShardedPMA>(dir, cfg, o.ckpt.items, o.ckpt.sum, r,
                                         trace ? &o.read_ms : nullptr);
  if (trace) {
    PutPersistTrace(r, o.ckpt, o.restore_s, o.read_ms,
                    cpma::persist::Counters().restore_verify_failures.load() - vf0);
  }
  std::filesystem::remove_all(dir);
  return o;
}

void RunIngest(const IngestInputs& in, uint64_t seed, double seconds, bool trace,
               const std::string& workdir, Result* r) {
  EchoConfig("ingest_ckpt", IngestConfig());
  std::vector<RoundOut> rounds;
  Clients writers = MakeClients(kClients, false);
  Client probe;
  Rng probe_rng(StreamSeed(seed, 20));
  const uint64_t t0 = NowNs();
  if (trace) {
    // One untraced round for the overhead baseline, one traced round.
    rounds.push_back(IngestRound(in, false, workdir, &writers, nullptr, nullptr, r));
    Clients traced = MakeClients(kClients, true);
    const RoundOut tr = IngestRound(in, true, workdir, &traced, nullptr, nullptr, r);
    const double mops = rounds[0].phase.PerUs();
    r->Put("trace.overhead_pct", (mops - tr.phase.PerUs()) / mops * 100.0);
    for (const auto& c : traced) r->attempted += c->attempted;
    for (const auto& c : writers) r->attempted += c->attempted;
    return;
  }
  // Identical rounds until `seconds` have passed; each round runs a
  // share of the probe sweep.
  while (static_cast<int>(rounds.size()) < kRounds || Secs(t0, NowNs()) < seconds) {
    rounds.push_back(IngestRound(in, false, workdir, &writers, &probe, &probe_rng, r));
  }
  for (const auto& c : writers) r->attempted += c->attempted;
  std::vector<double> setups, ck, bytes;
  Rate phase, passes;
  double restore_s = 0;
  for (const auto& ro : rounds) {
    setups.push_back(ro.setup_s);
    ck.push_back(ro.ckpt.seconds);
    bytes.push_back(ro.bytes_per_item);
    phase.Merge(ro.phase);
    passes.Merge(ro.passes);
    restore_s += ro.restore_s / rounds.size();
  }
  r->Put("setup_s", Median(setups));
  r->Put("ops_mops", phase.PerUs());
  r->Put("fullscan_meps", passes.PerUs());
  r->Put("bytes_per_item", Median(bytes));
  r->Put("restore_s", restore_s);
  r->Put("checkpoint_s", Median(ck));
  PutLatencies(r, probe.lat[kRead], probe.lat[kScan], Merged(writers, kWrite));
  std::printf("rounds=%zu\n", rounds.size());
}

// ---------------------------------------------------------------- ladder

// Times fn over the whole replay and returns ns per op.
template <typename Fn>
double NsPerOp(const char* name, size_t ops, Fn&& fn) {
  ScopedSpan span(name, "ladder");
  const uint64_t t0 = NowNs();
  fn();
  return ops ? static_cast<double>(NowNs() - t0) / ops : 0.0;
}

// Single-thread rungs L0-L2, L5 and L6 over each workload's own streams,
// all built from the seed, so their counts repeat exactly run to run.
void RunLadder(const YcsbInputs& b, const YcsbInputs& e, const IngestInputs& g,
               Result* r) {
  uint64_t sink = 0;
  const cpma::ConcurrentConfig ccfg = YcsbConfig();

  // ycsb_b read keys (client 0's stream prefix).
  std::vector<Key> reads;
  for (size_t i = 0; i < kLadderOps; ++i) {
    if (!(b.ops[0][i] & kWriteFlag)) reads.push_back(OpKey(b.ops[0][i]));
  }
  {
    // L0: static 128-slot segments holding the dense ycsb_b keys, routed
    // arithmetically.
    std::vector<cpma::Item> segs((b.records + 127) / 128 * 128,
                                 cpma::Item{cpma::kKeySentinel, 0});
    for (uint64_t i = 0; i < b.records; ++i) segs[i] = {i + 1, i + 1};
    r->Put("hotpath.lower_bound_ns", NsPerOp("L0.lower_bound", reads.size(), [&] {
             for (Key k : reads) {
               sink += cpma::hotpath::SegmentLowerBound(&segs[(k - 1) & ~uint64_t{127}], 128, k);
             }
           }));
  }
  auto replay_reads = [&](const cpma::OrderedMap& m) {
    for (Key k : reads) {
      Value v = 0;
      sink += m.Find(k, &v) ? v : 1;
    }
  };
  uint64_t rebalances = 0, resizes = 0;
  {
    cpma::SequentialPMA seq(ccfg.pma);
    for (Key k : b.preload) seq.Insert(k, k);
    r->Put("pma.find_ns", NsPerOp("L1.find", reads.size(), [&] { replay_reads(seq); }));
  }
  {
    ConcurrentPMA pma(ccfg);
    for (Key k : b.preload) pma.Insert(k, k);
    r->Put("concurrent.find_ns_1t",
           NsPerOp("L2.find", reads.size(), [&] { replay_reads(pma); }));
  }

  // ycsb_e: scans then appends (client 0's prefix), then a ScanCursor
  // replay counting staged items against consumed ones.
  std::vector<uint64_t> scans;
  std::vector<Key> appends;
  for (size_t i = 0; i < kLadderOps; ++i) {
    const uint64_t op = e.ops[0][i];
    if (op & kWriteFlag) {
      appends.push_back(e.records + 1 + appends.size() * kClients);
    } else {
      scans.push_back(op);
    }
  }
  auto replay_scans = [&](const cpma::OrderedMap& m) {
    uint32_t left = 0;
    uint32_t* lp = &left;
    const cpma::ScanCallback cb = [lp](Key, Value) { return --*lp > 0; };
    for (uint64_t op : scans) {
      left = OpLen(op);
      m.Scan(OpKey(op), cpma::kKeyMax, cb);
      sink += left;
    }
  };
  auto replay_appends = [&](cpma::OrderedMap* m) {
    for (Key k : appends) m->Insert(k, k);
    m->Flush();
  };
  {
    cpma::SequentialPMA seq(ccfg.pma);
    for (Key k : e.preload) seq.Insert(k, k);
    r->Put("pma.scan_ns", NsPerOp("L1.scan", scans.size(), [&] { replay_scans(seq); }));
    const uint64_t rb0 = seq.num_rebalances(), rs0 = seq.num_resizes();
    r->Put("pma.append_ns",
           NsPerOp("L1.append", appends.size(), [&] { replay_appends(&seq); }));
    rebalances += seq.num_rebalances() - rb0;
    resizes += seq.num_resizes() - rs0;
  }
  {
    ConcurrentPMA pma(ccfg);
    for (Key k : e.preload) pma.Insert(k, k);
    r->Put("concurrent.scan_ns_1t",
           NsPerOp("L2.scan", scans.size(), [&] { replay_scans(pma); }));
    r->Put("concurrent.append_ns_1t",
           NsPerOp("L2.append", appends.size(), [&] { replay_appends(&pma); }));
    uint64_t staged = 0, used = 0;
    std::vector<cpma::Item> chunk;
    for (uint64_t op : scans) {
      ConcurrentPMA::ScanCursor cur(pma, OpKey(op), cpma::kKeyMax);
      uint64_t need = OpLen(op);
      while (need > 0 && cur.NextChunk(&chunk)) {
        staged += chunk.size();
        const uint64_t take = std::min<uint64_t>(need, chunk.size());
        used += take;
        need -= take;
      }
    }
    r->Put("concurrent.scan_staged_per_used", used ? static_cast<double>(staged) / used : 0.0);
  }

  // ingest_ckpt inserts, interleaved across the writers' streams.
  std::vector<Key> ins;
  for (size_t i = 0; i < g.inserts[0].size(); ++i) {
    for (const auto& w : g.inserts) {
      if (i < w.size()) ins.push_back(w[i]);
    }
  }
  auto replay_inserts = [&](cpma::OrderedMap* m) {
    for (Key k : ins) m->Insert(k, k);
    m->Flush();
  };
  {
    cpma::SequentialPMA seq(ccfg.pma);
    for (Key k : g.preload) seq.Insert(k, k);
    const uint64_t rb0 = seq.num_rebalances(), rs0 = seq.num_resizes();
    r->Put("pma.insert_ns", NsPerOp("L1.insert", ins.size(), [&] { replay_inserts(&seq); }));
    rebalances += seq.num_rebalances() - rb0;
    resizes += seq.num_resizes() - rs0;
  }
  r->Put("pma.rebalances", static_cast<double>(rebalances));
  r->Put("pma.resizes", static_cast<double>(resizes));
  auto concurrent_rung = [&](const char* name, const cpma::ConcurrentConfig& cfg,
                             bool snapshot) {
    ConcurrentPMA pma(cfg);
    for (Key k : g.preload) pma.Insert(k, k);
    pma.Flush();
    std::unique_ptr<cpma::PMASnapshot> snap;
    if (snapshot) snap = pma.Snapshot();
    return NsPerOp(name, ins.size(), [&] { replay_inserts(&pma); });
  };
  r->Put("concurrent.insert_ns_1t", concurrent_rung("L2.insert", ccfg, false));
  r->Put("snapshot.insert_ns_1t", concurrent_rung("L6.insert", ccfg, true));
  const cpma::ShardedConfig scfg = IngestConfig();
  r->Put("concurrent.batch_insert_ns_1t", concurrent_rung("L5.batch_insert", scfg.shard, false));
  {
    ShardedPMA sharded(scfg);
    for (Key k : g.preload) sharded.Insert(k, k);
    sharded.Flush();
    r->Put("sharded.insert_ns_1t",
           NsPerOp("L5.sharded_insert", ins.size(), [&] { replay_inserts(&sharded); }));
  }
  if (sink == 42) std::printf("\n");  // keeps the replays observable
}

// ------------------------------------------------------------------ main

const char* FsName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
  }
  return "other";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ycsb_b|ycsb_e|ingest_ckpt "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, workdir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = val == "1";
    } else if (flag == "--workdir") {
      workdir = val;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload != "ycsb_b" && workload != "ycsb_e" && workload != "ingest_ckpt") {
    return Usage("unknown workload");
  }
  if (workdir.empty() || !(seconds > 0)) return Usage("need --workdir and --seconds > 0");
  // Every CPMA_* variable overrides a structure setting at construction
  // and silently changes the program being measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CPMA_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  std::filesystem::create_directories(workdir);
  std::printf("host nproc=%d topology=\"%s\" dispatch=%s pinning=none "
              "checkpoint_fs=%s clients=%d\n",
              Nproc(), cpma::TopologySummary().c_str(),
              cpma::hotpath::ActiveDispatchName(), FsName(workdir), kClients);
  std::printf("run workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", workload.c_str(),
              seed, seconds, trace);

  Result r;
  if (workload == "ingest_ckpt") {
    const IngestInputs in = MakeIngestInputs(seed);
    RunIngest(in, seed, seconds, trace, workdir, &r);
    if (trace) {
      RunLadder(MakeYcsbInputs(kYcsbBRecords, false, seed),
                MakeYcsbInputs(kYcsbERecords, true, seed), in, &r);
    }
  } else {
    const bool scans = workload == "ycsb_e";
    const YcsbInputs in = MakeYcsbInputs(scans ? kYcsbERecords : kYcsbBRecords, scans, seed);
    RunYcsb(scans, in, seed, seconds, trace, workdir, &r);
    if (trace) {
      const YcsbInputs other =
          MakeYcsbInputs(scans ? kYcsbBRecords : kYcsbERecords, !scans, seed);
      RunLadder(scans ? other : in, scans ? in : other, MakeIngestInputs(seed), &r);
    }
  }
  if (trace) {
    const std::string path = workdir + "/trace-" + workload + "-" + std::to_string(seed) + ".jsonl";
    WriteSpans(path);
    std::printf("spans %s\n", path.c_str());
    PrintResult(r, kPerLayer);
  } else {
    PrintResult(r, kEndToEnd);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
