// ShardedPMA (ISSUE 8) — a key-space-partitioned front end over N
// independent ConcurrentPMA shards, attacking the two structural
// scaling ceilings a single instance keeps no matter how good its
// internals are:
//
//   * one rebalancer master: every global rebalance and resize of the
//     whole key space funnels through a single master thread (§3.3);
//     with N shards there are N masters, each responsible for 1/N of
//     the key space, so background reorganization scales with cores;
//   * global snapshot swaps: a resize invalidates every gate of the
//     instance and restarts every in-flight client; a shard's resize
//     only perturbs clients whose keys route there.
//
// Three cooperating pieces:
//
//   router    Key -> shard. Range partitioning (default) splits the key
//             domain at S-1 splitter keys, so shard i holds exactly the
//             keys in [splitter[i-1], splitter[i]) and a cross-shard
//             scan is the plain concatenation of per-shard scans —
//             global order for free. Hash partitioning (config
//             alternative, power-of-two S) routes by a splitmix64 mix
//             of the key for insert-balance under skewed key ranges;
//             ordered scans then pay a k-way merge of per-shard
//             cursors (ConcurrentPMA::ScanCursor).
//
//   coalescing front door   With coalesce_ops > 0, Insert/Remove stage
//             ops in per-producer, per-shard buffers and hand them to
//             the owning shard in runs via ConcurrentPMA::UpdateBatch —
//             one enqueue-stamp reservation and one epoch pin amortized
//             over the run instead of per op; each op still descends the
//             index and takes its gate on its own. Buffers flush
//             when they reach coalesce_ops, when they age past
//             coalesce_age_ms (background age flusher), and on Flush().
//             Per-key, per-producer FIFO (ISSUE 5) is preserved: a key
//             always routes to one shard, a producer's ops land in one
//             slot in issue order, and every flush of a slot+shard pair
//             holds that pair's flush lock across take+stamp+dispatch,
//             so runs reach UpdateBatch in buffer order and the block
//             stamp reservation reproduces issue order exactly.
//             coalesce_ops = 0 (default) bypasses staging entirely —
//             ops route straight to the shard, read-your-writes intact.
//
//   affinity  With pin_workers, shard i's rebalancer master pins to
//             the i-th slot of the topology-aware pin order
//             (common/pin.h): each shard's background machinery gets a
//             home physical core instead of N masters migrating onto
//             each other.
//
// Consistency: exactly the per-shard ConcurrentPMA contract, applied
// per shard. Point ops route to one shard and keep its full guarantees.
// Cross-shard Scan/SumAll are not atomic across shards — precisely as a
// single instance's multi-gate scan is not atomic across gates — and
// staged (coalesced) ops are invisible to reads until flushed, the same
// asynchrony the OrderedMap contract already grants combining modes.
//
// Env knobs (strict-parsed like CPMA_OPTIMISTIC_RETRIES; a typo warns on
// stderr and keeps the config value): CPMA_SHARDS overrides num_shards,
// CPMA_COALESCE_OPS overrides coalesce_ops, CPMA_COALESCE_AGE_MS
// overrides coalesce_age_ms.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "common/epoch_gc.h"
#include "common/ordered_map.h"
#include "common/status.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/snapshot.h"
#include "pma/config.h"

namespace cpma {

class ShardedPMA;

/// Coordinated point-in-time view over every shard (ISSUE 9): one
/// PMASnapshot per shard, captured after the coalescing front door was
/// drained, so the cut sits at a single front-door stamp frontier. Per
/// shard the full PMASnapshot guarantees hold; cross-shard the cut has
/// the same granularity a live cross-shard Scan has (per-shard capture
/// points, not one global instant). The owning ShardedPMA must outlive
/// the snapshot.
class ShardedSnapshot {
 public:
  ShardedSnapshot(const ShardedSnapshot&) = delete;
  ShardedSnapshot& operator=(const ShardedSnapshot&) = delete;

  bool Find(Key key, Value* value) const;
  uint64_t SumAll() const;
  /// Ordered scan over the frozen fleet: concatenation under range
  /// partitioning, a k-way merge of per-shard frozen streams under
  /// hash partitioning.
  void Scan(Key min, Key max, const ScanCallback& cb) const;
  uint64_t CountItems() const;

  size_t num_shards() const { return snaps_.size(); }
  const PMASnapshot& shard_snapshot(size_t i) const { return *snaps_[i]; }

 private:
  friend class ShardedPMA;
  ShardedSnapshot() = default;

  const ShardedPMA* pma_ = nullptr;
  std::vector<std::unique_ptr<PMASnapshot>> snaps_;
};

struct ShardedConfig {
  /// Per-shard ConcurrentPMA configuration. rebalancer_cpu is
  /// overwritten per shard when pin_workers is set.
  ConcurrentConfig shard;

  /// Number of shards (>= 1; power of two required for kHash).
  /// Overridden at construction by CPMA_SHARDS when set.
  size_t num_shards = 4;

  enum class Partition { kRange, kHash };
  /// kRange: contiguous key intervals, ordered scans by concatenation.
  /// kHash: splitmix64(key) & (S-1), ordered scans by k-way merge.
  Partition partition = Partition::kRange;

  /// Range-mode shard boundaries, ascending, size num_shards - 1;
  /// shard i covers [splitters[i-1], splitters[i]). Empty = uniform
  /// split of the key domain. Ignored under kHash.
  std::vector<Key> splitters;

  /// Coalescing front door: flush a producer's per-shard staging buffer
  /// at this many ops. 0 (default) disables staging — every op routes
  /// directly. Overridden by CPMA_COALESCE_OPS when set.
  size_t coalesce_ops = 0;

  /// Staged ops older than this are flushed by the background age
  /// flusher, bounding the visibility lag of a slow producer. 0
  /// disables the age flusher (size- and Flush()-triggered only).
  /// Meaningless when coalesce_ops = 0. Overridden by
  /// CPMA_COALESCE_AGE_MS when set.
  int64_t coalesce_age_ms = 2;

  /// Pin shard i's rebalancer master to pin-order slot i (one home
  /// physical core per shard while shards <= cores).
  bool pin_workers = false;
};

class ShardedPMA : public OrderedMap {
 public:
  explicit ShardedPMA(const ShardedConfig& config = ShardedConfig());
  ~ShardedPMA() override;

  void Insert(Key key, Value value) override;
  void Remove(Key key) override;
  bool Find(Key key, Value* value) const override;
  uint64_t SumAll() const override;
  void Scan(Key min, Key max, const ScanCallback& cb) const override;
  size_t Size() const override;

  /// Drain every producer staging buffer into its shard, then Flush()
  /// every shard (rebalancer batches + combining queues).
  void Flush() override;

  std::string Name() const override;

  /// Bulk load (ConcurrentPMA::LoadSorted per shard): route `n` items
  /// with strictly ascending keys to their shards with ShardOf — a
  /// range fleet takes contiguous slices, a hash fleet buckets them —
  /// and build every shard in one sized pass, the shards in parallel
  /// (up to one thread per CPU). All or nothing: every shard is built
  /// before any is published, so on an error the fleet is left empty
  /// and usable. Same preconditions and Status results as
  /// ConcurrentPMA::LoadSorted, for the whole fleet.
  Status LoadSorted(const Item* items, size_t n);

  /// The router, exposed for tests and for workload generators that
  /// want shard-local key streams.
  size_t ShardOf(Key key) const;

  size_t num_shards() const { return shards_.size(); }
  const ShardedConfig& config() const { return cfg_; }

  /// Direct access to one shard (tests, per-shard observability).
  ConcurrentPMA& shard(size_t i) { return *shards_[i]; }
  const ConcurrentPMA& shard(size_t i) const { return *shards_[i]; }

  /// Effective knobs (config, possibly overridden by env at
  /// construction).
  size_t coalesce_ops() const { return coalesce_ops_; }
  int64_t coalesce_age_ms() const { return coalesce_age_ms_; }

  /// Aggregated observability: per-shard counters summed, EBR stats
  /// folded, plus the front door's own counters. One struct so bench
  /// records and soak artifacts report the fleet like one instance.
  struct Stats {
    // Summed over shards.
    uint64_t local_rebalances = 0;
    uint64_t global_rebalances = 0;
    uint64_t resizes = 0;
    uint64_t queued_ops = 0;
    uint64_t batches = 0;
    uint64_t read_fallbacks = 0;
    uint64_t optimistic_gate_reads = 0;
    uint64_t rebalance_retries = 0;
    uint64_t watchdog_trips = 0;
    /// EBR counters summed over shards (global_epoch = max).
    EpochGCStats ebr;
    // Front door.
    uint64_t coalesced_flushes = 0;  // UpdateBatch hand-offs
    uint64_t coalesced_ops = 0;      // ops that went through staging
    uint64_t age_flushes = 0;        // flushes triggered by the ager
    uint64_t direct_ops = 0;         // ops bypassing staging
    /// Background errors reported by shard rebalancers through the
    /// per-shard error callback (captured sticky; see last_error()).
    uint64_t background_errors = 0;
    /// Ager-triggered flushes that observed a non-OK shard error — the
    /// signal a flush with no foreground caller would otherwise drop.
    uint64_t ager_error_flushes = 0;
    // COW snapshots / durability (ISSUE 9), summed over shards.
    uint64_t snapshots_open = 0;
    uint64_t snapshots_taken = 0;
    /// Heap bytes of the gate pre-images held by open snapshots
    /// (ConcurrentPMA::cow_pages_retained_bytes(), summed over shards).
    uint64_t cow_retained_bytes = 0;
  };
  Stats GetStats() const;

  /// Most recent background error captured from any shard's rebalancer
  /// (including errors surfaced on the coalescing-ager thread's
  /// flushes), else the first non-OK sticky error among shards, else
  /// Status::OK. Errors raised with no foreground caller — an
  /// ager-triggered flush, a master-thread resize failure — are
  /// captured here instead of being visible only to whoever polls the
  /// individual shard.
  Status last_error() const;

  // ------------------------------------------- COW snapshots (ISSUE 9)

  /// Coordinated cross-shard snapshot: drains the coalescing slots (so
  /// every staged op up to the drain is either applied or in a shard's
  /// combining machinery, where the per-shard capture cut orders it),
  /// then captures one PMASnapshot per shard. Non-const because the
  /// front-door drain dispatches staged runs.
  std::unique_ptr<ShardedSnapshot> Snapshot();

  /// Snapshots currently open across all shards (shard snapshots of a
  /// ShardedSnapshot count individually).
  uint64_t snapshots_open() const;

 private:
  // One producer's staging area: per-shard op runs. Producers map to
  // slots via a thread-local cache (SlotForThisThread); more than
  // kNumSlots concurrent producers share slots, which only costs
  // append_mu contention — interleaved appends of two producers still
  // preserve each producer's own issue order.
  struct ShardBuf {
    std::vector<GateOp> ops;
    int64_t oldest_ms = 0;  // NowMillis() of the first staged op
  };
  struct ProducerSlot {
    std::mutex append_mu;  // guards the buffers
    /// Serializes take+stamp+dispatch per slot: held across the
    /// UpdateBatch call so two flushes of the same slot (producer's
    /// size trigger vs the age flusher) cannot invert buffer order —
    /// the stamp block of the earlier take is both reserved and
    /// dispatched before the later take's.
    std::mutex flush_mu;
    std::vector<ShardBuf> per_shard;
    /// Guarded by flush_mu: the empty buffer a flush swaps in for the
    /// run it takes; the run's buffer, cleared, is the next spare.
    std::vector<GateOp> spare;
  };

  void Enqueue(GateOp op);
  void FlushSlotShard(ProducerSlot* slot, size_t shard_idx,
                      bool from_ager);
  ProducerSlot* SlotForThisThread() const;
  void AgeFlusherLoop();

  static constexpr size_t kNumSlots = 64;

  ShardedConfig cfg_;
  size_t coalesce_ops_ = 0;
  int64_t coalesce_age_ms_ = 0;
  uint64_t instance_id_ = 0;  // monotone; keys the thread-local slot cache
  std::vector<Key> splitters_;
  std::vector<std::unique_ptr<ConcurrentPMA>> shards_;
  mutable std::vector<std::unique_ptr<ProducerSlot>> slots_;
  mutable std::atomic<size_t> next_slot_{0};

  // Age flusher (started only when coalescing + age bound are on).
  std::thread ager_;
  std::mutex ager_mu_;
  std::condition_variable ager_cv_;
  bool ager_stop_ = false;

  mutable std::atomic<uint64_t> stat_coalesced_flushes_{0};
  mutable std::atomic<uint64_t> stat_coalesced_ops_{0};
  mutable std::atomic<uint64_t> stat_age_flushes_{0};
  mutable std::atomic<uint64_t> stat_direct_ops_{0};

  // Background-error capture (ISSUE 9 satellite): shard error callbacks
  // (installed at construction, fired from shard master threads) and
  // ager-flush observations land here so last_error()/GetStats() see
  // errors that had no foreground caller.
  mutable std::mutex bg_err_mu_;
  Status bg_error_;
  mutable std::atomic<uint64_t> stat_background_errors_{0};
  mutable std::atomic<uint64_t> stat_ager_error_flushes_{0};
};

}  // namespace cpma
