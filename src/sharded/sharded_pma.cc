#include "sharded/sharded_pma.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <system_error>
#include <utility>

#include "common/failpoint.h"
#include "common/pin.h"
#include "common/timer.h"
#include "concurrent/event_ring.h"

namespace cpma {

namespace {

/// splitmix64 finalizer: full-avalanche mix so dense or strided key
/// ranges spread evenly over the power-of-two shard mask.
inline uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Strict env parse for a non-negative integer knob, same contract as
/// CPMA_OPTIMISTIC_RETRIES et al. (concurrent_pma.cc): a typo warns on
/// stderr and leaves `*out` untouched instead of silently becoming 0.
void ParseEnvU64(const char* name, uint64_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr) return;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end != env && *end == '\0' && errno == 0) {
    *out = static_cast<uint64_t>(v);
  } else if (*env != '\0') {
    std::fprintf(stderr,
                 "cpma: ignoring invalid %s=%s (want a non-negative "
                 "integer); using %llu\n",
                 name, env, static_cast<unsigned long long>(*out));
  }
}

}  // namespace

ShardedPMA::ShardedPMA(const ShardedConfig& config) : cfg_(config) {
  uint64_t num_shards = cfg_.num_shards;
  ParseEnvU64("CPMA_SHARDS", &num_shards);
  CPMA_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1");
  if (cfg_.partition == ShardedConfig::Partition::kHash) {
    CPMA_CHECK_MSG((num_shards & (num_shards - 1)) == 0,
                   "hash partitioning needs a power-of-two shard count");
  }

  uint64_t coalesce = cfg_.coalesce_ops;
  ParseEnvU64("CPMA_COALESCE_OPS", &coalesce);
  coalesce_ops_ = static_cast<size_t>(coalesce);
  uint64_t age = static_cast<uint64_t>(
      cfg_.coalesce_age_ms < 0 ? 0 : cfg_.coalesce_age_ms);
  ParseEnvU64("CPMA_COALESCE_AGE_MS", &age);
  coalesce_age_ms_ = static_cast<int64_t>(age);

  // Range splitters: user-provided boundaries or a uniform split of the
  // key domain [kKeyMin, kKeyMax]. splitters_[i] is the LOWEST key of
  // shard i+1, so ShardOf is one upper_bound.
  if (cfg_.partition == ShardedConfig::Partition::kRange &&
      num_shards > 1) {
    if (!cfg_.splitters.empty()) {
      CPMA_CHECK_MSG(cfg_.splitters.size() == num_shards - 1,
                     "need exactly num_shards - 1 splitters");
      splitters_ = cfg_.splitters;
      for (size_t i = 0; i < splitters_.size(); ++i) {
        CPMA_CHECK_MSG(splitters_[i] > kKeyMin && splitters_[i] <= kKeyMax,
                       "splitter outside the key domain");
        CPMA_CHECK_MSG(i == 0 || splitters_[i - 1] < splitters_[i],
                       "splitters must be strictly ascending");
      }
    } else {
      const uint64_t step =
          (static_cast<uint64_t>(kKeyMax) + 1) / num_shards;
      splitters_.reserve(num_shards - 1);
      for (uint64_t i = 1; i < num_shards; ++i) {
        splitters_.push_back(static_cast<Key>(i * step));
      }
    }
  }

  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    ConcurrentConfig sc = cfg_.shard;
    if (cfg_.pin_workers) {
      // One home core per shard (pin-order slot i), so N shards' masters
      // spread over N cores instead of migrating onto each other.
      sc.rebalancer_cpu = PinCpuForSlot(static_cast<unsigned>(i));
    }
    shards_.push_back(std::make_unique<ConcurrentPMA>(sc));
    // Capture background errors (fired from the shard's rebalancer
    // master thread) sticky at the fleet level: an ager-triggered flush
    // or a background resize failure has no foreground caller to return
    // a Status to, so without this the error would be visible only to
    // whoever polls that individual shard.
    shards_.back()->SetErrorCallback([this](const Status& st) {
      {
        std::lock_guard<std::mutex> lk(bg_err_mu_);
        bg_error_ = st;
      }
      stat_background_errors_.fetch_add(1, std::memory_order_relaxed);
    });
  }

  if (coalesce_ops_ > 0) {
    slots_.reserve(kNumSlots);
    for (size_t s = 0; s < kNumSlots; ++s) {
      auto slot = std::make_unique<ProducerSlot>();
      slot->per_shard.resize(num_shards);
      slots_.push_back(std::move(slot));
    }
    if (coalesce_age_ms_ > 0) {
      ager_ = std::thread([this] { AgeFlusherLoop(); });
    }
  }
}

ShardedPMA::~ShardedPMA() {
  if (ager_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ager_mu_);
      ager_stop_ = true;
    }
    ager_cv_.notify_all();
    ager_.join();
  }
  Flush();
  // shards_ destruction flushes + stops each shard's rebalancer.
}

// ------------------------------------------------------------------ router

size_t ShardedPMA::ShardOf(Key key) const {
  if (shards_.size() == 1) return 0;
  if (cfg_.partition == ShardedConfig::Partition::kHash) {
    return static_cast<size_t>(MixKey(key) &
                               (static_cast<uint64_t>(shards_.size()) - 1));
  }
  return static_cast<size_t>(
      std::upper_bound(splitters_.begin(), splitters_.end(), key) -
      splitters_.begin());
}

// ------------------------------------------------------------- front door

void ShardedPMA::Insert(Key key, Value value) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Enqueue(GateOp{GateOp::Type::kInsert, key, value});
}

void ShardedPMA::Remove(Key key) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Enqueue(GateOp{GateOp::Type::kRemove, key, 0});
}

void ShardedPMA::Enqueue(GateOp op) {
  const size_t sh = ShardOf(op.key);
  if (coalesce_ops_ == 0) {
    // Direct mode: a one-op "batch" is exactly an Insert/Remove on the
    // shard (single stamp, one dispatch).
    stat_direct_ops_.fetch_add(1, std::memory_order_relaxed);
    shards_[sh]->UpdateBatch(&op, 1);
    return;
  }
  ProducerSlot* slot = SlotForThisThread();
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lk(slot->append_mu);
    ShardBuf& buf = slot->per_shard[sh];
    if (buf.ops.empty()) buf.oldest_ms = NowMillis();
    buf.ops.push_back(op);
    flush_now = buf.ops.size() >= coalesce_ops_;
  }
  if (flush_now) FlushSlotShard(slot, sh, /*from_ager=*/false);
}

void ShardedPMA::FlushSlotShard(ProducerSlot* slot, size_t shard_idx,
                                bool from_ager) {
  // flush_mu is held across take AND dispatch: the stamp block of an
  // earlier take must be reserved and dispatched before a later take's
  // (header comment; this is the per-key FIFO argument).
  std::lock_guard<std::mutex> fl(slot->flush_mu);
  // The take swaps the empty spare in, so the producer keeps a buffer
  // with capacity instead of re-growing a fresh one on every run.
  std::vector<GateOp>& run = slot->spare;
  {
    std::lock_guard<std::mutex> al(slot->append_mu);
    run.swap(slot->per_shard[shard_idx].ops);
  }
  if (run.empty()) return;
  {
    TailSpan tail_span(TailEvent::kCoalesceFlush);
    shards_[shard_idx]->UpdateBatch(run.data(), run.size());
  }
  stat_coalesced_flushes_.fetch_add(1, std::memory_order_relaxed);
  stat_coalesced_ops_.fetch_add(run.size(), std::memory_order_relaxed);
  run.clear();
  if (from_ager) {
    stat_age_flushes_.fetch_add(1, std::memory_order_relaxed);
    // The ager has no caller to hand an error to: surface a shard that
    // is in a (possibly transient) error state right after its flush.
    Status st = shards_[shard_idx]->last_error();
    if (!st.ok()) {
      stat_ager_error_flushes_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(bg_err_mu_);
      bg_error_ = st;
    }
  }
}

ShardedPMA::ProducerSlot* ShardedPMA::SlotForThisThread() const {
  return slots_[SlotIndex::OfThisThread() % kNumSlots].get();
}

void ShardedPMA::AgeFlusherLoop() {
  const auto period = std::chrono::milliseconds(coalesce_age_ms_);
  std::unique_lock<std::mutex> lk(ager_mu_);
  while (!ager_stop_) {
    ager_cv_.wait_for(lk, period, [this] { return ager_stop_; });
    if (ager_stop_) return;
    lk.unlock();
    const int64_t now = NowMillis();
    for (auto& slot : slots_) {
      for (size_t sh = 0; sh < shards_.size(); ++sh) {
        bool due = false;
        {
          std::lock_guard<std::mutex> al(slot->append_mu);
          const ShardBuf& buf = slot->per_shard[sh];
          due = !buf.ops.empty() &&
                now - buf.oldest_ms >= coalesce_age_ms_;
        }
        if (due) FlushSlotShard(slot.get(), sh, /*from_ager=*/true);
      }
    }
    lk.lock();
  }
}

// ------------------------------------------------------------------- reads

bool ShardedPMA::Find(Key key, Value* value) const {
  // Staged (coalesced) ops are invisible until flushed — the same
  // asynchrony the combining queues already have; Flush() restores
  // read-your-writes.
  return shards_[ShardOf(key)]->Find(key, value);
}

uint64_t ShardedPMA::SumAll() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->SumAll();
  return sum;
}

void ShardedPMA::Scan(Key min, Key max, const ScanCallback& cb) const {
  if (min > max) return;
  if (cfg_.partition == ShardedConfig::Partition::kRange ||
      shards_.size() == 1) {
    // Shards hold disjoint ascending key intervals: the ordered global
    // scan is the concatenation of per-shard scans, touching only the
    // shards the range intersects.
    bool stop = false;
    const size_t first = ShardOf(min);
    const size_t last = ShardOf(max);
    if (first == last) {
      // Single-shard span (always true for s=1): no early-stop state to
      // carry across shards, so skip the wrapper and its extra
      // indirect call per emitted item — this is what keeps the s=1
      // router overhead within noise of a bare ConcurrentPMA.
      shards_[first]->Scan(min, max, cb);
      return;
    }
    for (size_t i = first; i <= last && !stop; ++i) {
      shards_[i]->Scan(min, max, [&](Key k, Value v) {
        if (!cb(k, v)) {
          stop = true;
          return false;
        }
        return true;
      });
    }
    return;
  }

  // Hash partitioning: every shard holds an arbitrary slice of the
  // range, so the ordered scan is a k-way merge of per-shard pull
  // cursors (ConcurrentPMA::ScanCursor). A key lives in exactly one
  // shard, so the merge never has to break ties.
  struct Stream {
    std::unique_ptr<ConcurrentPMA::ScanCursor> cur;
    std::vector<Item> chunk;
    size_t pos = 0;
  };
  std::vector<Stream> streams(shards_.size());
  using HeapEntry = std::pair<Key, size_t>;  // (next key, stream index)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t i = 0; i < shards_.size(); ++i) {
    streams[i].cur = std::make_unique<ConcurrentPMA::ScanCursor>(
        *shards_[i], min, max);
    if (streams[i].cur->NextChunk(&streams[i].chunk)) {
      heap.emplace(streams[i].chunk[0].key, i);
    }
  }
  while (!heap.empty()) {
    const size_t i = heap.top().second;
    heap.pop();
    Stream& st = streams[i];
    const Item& it = st.chunk[st.pos];
    if (!cb(it.key, it.value)) return;
    ++st.pos;
    if (st.pos == st.chunk.size()) {
      st.pos = 0;
      if (st.cur->NextChunk(&st.chunk)) heap.emplace(st.chunk[0].key, i);
    } else {
      heap.emplace(st.chunk[st.pos].key, i);
    }
  }
}

size_t ShardedPMA::Size() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->Size();
  return n;
}

void ShardedPMA::Flush() {
  // Drain the front door first (stamps the staged runs), then wait for
  // every shard's queues and rebalancer batches.
  for (auto& slot : slots_) {
    for (size_t sh = 0; sh < shards_.size(); ++sh) {
      FlushSlotShard(slot.get(), sh, /*from_ager=*/false);
    }
  }
  for (auto& s : shards_) s->Flush();
}

Status ShardedPMA::LoadSorted(const Item* items, size_t n) {
  Flush();  // staged and queued ops would otherwise land after the load
  if (Size() != 0 || snapshots_open() != 0) {
    return Status::InvalidArgument(
        "LoadSorted: the fleet must be empty with no open snapshot");
  }
  // Route the run. A range fleet takes contiguous slices of the sorted
  // run, with no copy; a hash fleet buckets it, each bucket keeping run
  // order. Each shard checks that its own run ascends strictly.
  const size_t num = shards_.size();
  std::vector<std::pair<const Item*, size_t>> runs(num);
  std::vector<std::vector<Item>> buckets;
  if (cfg_.partition == ShardedConfig::Partition::kRange || num == 1) {
    const Item* b = items;
    for (size_t s = 0; s < num; ++s) {
      const Item* e = std::partition_point(
          b, items + n, [&](const Item& it) { return ShardOf(it.key) <= s; });
      // An ascending slice belongs to shard s iff both its ends do.
      if (e != b && (ShardOf(b->key) != s || ShardOf((e - 1)->key) != s)) {
        return Status::InvalidArgument(
            "LoadSorted: keys must ascend strictly");
      }
      runs[s] = {b, static_cast<size_t>(e - b)};
      b = e;
    }
  } else {
    buckets.resize(num);
    for (size_t i = 0; i < n; ++i) {
      buckets[ShardOf(items[i].key)].push_back(items[i]);
    }
    for (size_t s = 0; s < num; ++s) {
      runs[s] = {buckets[s].data(), buckets[s].size()};
    }
  }
  // All or nothing: build every shard before publishing any, so a
  // failed build leaves the whole fleet empty. The builds run in
  // parallel, each one shard's spread into fresh memory: on perfbench
  // ingest_ckpt (4 shards, 4 vCPUs) restore_s fell from 0.20 to 0.13 s
  // against building the shards one after another.
  //
  // The caller and up to min(shards, CPUs) - 1 helper threads take shard
  // indices from one counter. A helper that cannot be spawned
  // (std::system_error, or the sharded.load_spawn failpoint) leaves its
  // share to the others; with no helper the caller builds every shard.
  std::vector<std::unique_ptr<Structure>> built(num);
  std::vector<Status> build_status(num);
  std::atomic<size_t> next_shard{0};
  const auto build = [&] {
    for (size_t s; (s = next_shard.fetch_add(1)) < num;) {
      build_status[s] =
          shards_[s]->BuildLoaded(runs[s].first, runs[s].second, &built[s]);
    }
  };
  const size_t helpers =
      std::min<size_t>(num, std::max(1u, std::thread::hardware_concurrency())) -
      1;
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    if (CPMA_FAILPOINT("sharded.load_spawn")) continue;
    try {
      threads.emplace_back(build);
    } catch (const std::system_error&) {
      // Its shards go to the builders that did start.
    }
  }
  build();
  for (std::thread& t : threads) t.join();
  for (const Status& st : build_status) {
    if (!st.ok()) return st;
  }
  for (size_t s = 0; s < num; ++s) {
    shards_[s]->PublishLoaded(std::move(built[s]), runs[s].second);
  }
  return Status::OK();
}

std::string ShardedPMA::Name() const {
  std::string name = "ShardedPMA(";
  name += cfg_.partition == ShardedConfig::Partition::kHash ? "hash"
                                                            : "range";
  name += ",s=" + std::to_string(shards_.size());
  if (coalesce_ops_ > 0) {
    name += ",coalesce=" + std::to_string(coalesce_ops_) + "/" +
            std::to_string(coalesce_age_ms_) + "ms";
  }
  name += ") over " + shards_[0]->Name();
  return name;
}

ShardedPMA::Stats ShardedPMA::GetStats() const {
  Stats st;
  for (const auto& s : shards_) {
    st.local_rebalances += s->num_local_rebalances();
    st.global_rebalances += s->num_global_rebalances();
    st.resizes += s->num_resizes();
    st.queued_ops += s->num_queued_ops();
    st.batches += s->num_batches();
    st.read_fallbacks += s->num_read_fallbacks();
    st.optimistic_gate_reads += s->num_optimistic_gate_reads();
    st.rebalance_retries += s->num_rebalance_retries();
    st.watchdog_trips += s->num_watchdog_trips();
    st.snapshots_open += s->snapshots_open();
    st.snapshots_taken += s->num_snapshots_taken();
    st.cow_retained_bytes += s->cow_pages_retained_bytes();
    const EpochGCStats e = s->ebr_stats();
    st.ebr.pending_count += e.pending_count;
    st.ebr.pending_bytes += e.pending_bytes;
    st.ebr.retired_count += e.retired_count;
    st.ebr.retired_bytes += e.retired_bytes;
    st.ebr.retired_bytes_hwm += e.retired_bytes_hwm;
    st.ebr.freed_count += e.freed_count;
    st.ebr.freed_bytes += e.freed_bytes;
    st.ebr.epoch_advances += e.epoch_advances;
    st.ebr.collections += e.collections;
    st.ebr.global_epoch = std::max(st.ebr.global_epoch, e.global_epoch);
  }
  st.coalesced_flushes =
      stat_coalesced_flushes_.load(std::memory_order_relaxed);
  st.coalesced_ops = stat_coalesced_ops_.load(std::memory_order_relaxed);
  st.age_flushes = stat_age_flushes_.load(std::memory_order_relaxed);
  st.direct_ops = stat_direct_ops_.load(std::memory_order_relaxed);
  st.background_errors =
      stat_background_errors_.load(std::memory_order_relaxed);
  st.ager_error_flushes =
      stat_ager_error_flushes_.load(std::memory_order_relaxed);
  return st;
}

Status ShardedPMA::last_error() const {
  {
    std::lock_guard<std::mutex> lk(bg_err_mu_);
    if (!bg_error_.ok()) return bg_error_;
  }
  for (const auto& s : shards_) {
    Status st = s->last_error();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// --------------------------------------------- COW snapshots (ISSUE 9)

std::unique_ptr<ShardedSnapshot> ShardedPMA::Snapshot() {
  // Drain the front door: every op staged before this point reaches its
  // shard's machinery, so the per-shard captures below sit at one
  // front-door stamp frontier.
  for (auto& slot : slots_) {
    for (size_t sh = 0; sh < shards_.size(); ++sh) {
      FlushSlotShard(slot.get(), sh, /*from_ager=*/false);
    }
  }
  // And the shards' combining queues: UpdateBatch hand-offs are async,
  // so without this wait an op staged before Snapshot() could still sit
  // in a gate queue at capture and miss the cut. After the two-phase
  // drain the frontier is exact: staged-before-Snapshot() ops are all
  // in, racing concurrent ops land on one side of each gate's capture
  // point like any other post-capture mutation.
  for (auto& shard : shards_) shard->Flush();
  std::unique_ptr<ShardedSnapshot> s(new ShardedSnapshot());
  s->pma_ = this;
  s->snaps_.reserve(shards_.size());
  for (auto& shard : shards_) s->snaps_.push_back(shard->Snapshot());
  return s;
}

uint64_t ShardedPMA::snapshots_open() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->snapshots_open();
  return n;
}

bool ShardedSnapshot::Find(Key key, Value* value) const {
  return snaps_[pma_->ShardOf(key)]->Find(key, value);
}

uint64_t ShardedSnapshot::SumAll() const {
  uint64_t sum = 0;
  for (const auto& s : snaps_) sum += s->SumAll();
  return sum;
}

uint64_t ShardedSnapshot::CountItems() const {
  uint64_t n = 0;
  for (const auto& s : snaps_) n += s->CountItems();
  return n;
}

void ShardedSnapshot::Scan(Key min, Key max,
                           const ScanCallback& cb) const {
  if (min > max) return;
  if (pma_->config().partition == ShardedConfig::Partition::kRange ||
      snaps_.size() == 1) {
    // Disjoint ascending intervals: ordered scan by concatenation.
    bool stop = false;
    const size_t first = pma_->ShardOf(min);
    const size_t last = pma_->ShardOf(max);
    for (size_t i = first; i <= last && !stop; ++i) {
      snaps_[i]->Scan(min, max, [&](Key k, Value v) {
        if (!cb(k, v)) {
          stop = true;
          return false;
        }
        return true;
      });
    }
    return;
  }
  // Hash partitioning: stage each shard's frozen slice of the range,
  // then k-way merge. Frozen images don't support pull cursors, so the
  // merge pays one staging pass per shard — snapshots are read-mostly
  // maintenance surfaces (checkpoints, audits), not scan hot paths.
  std::vector<std::vector<Item>> staged(snaps_.size());
  for (size_t i = 0; i < snaps_.size(); ++i) {
    auto& out = staged[i];
    snaps_[i]->Scan(min, max, [&out](Key k, Value v) {
      out.push_back(Item{k, v});
      return true;
    });
  }
  using HeapEntry = std::pair<Key, size_t>;  // (next key, stream index)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  std::vector<size_t> pos(snaps_.size(), 0);
  for (size_t i = 0; i < staged.size(); ++i) {
    if (!staged[i].empty()) heap.emplace(staged[i][0].key, i);
  }
  while (!heap.empty()) {
    const size_t i = heap.top().second;
    heap.pop();
    const Item& it = staged[i][pos[i]];
    if (!cb(it.key, it.value)) return;
    if (++pos[i] < staged[i].size()) {
      heap.emplace(staged[i][pos[i]].key, i);
    }
  }
}

}  // namespace cpma
