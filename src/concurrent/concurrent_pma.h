// ConcurrentPMA — the paper's contribution (§3): a packed memory array
// supporting concurrent reads and updates via
//   gates (chunk latches + fence keys)      §3.1  concurrent/gate.h
//   a latch-free static index over gates    §3.2  concurrent/static_index.h
//   a rebalancer master thread              §3.3  concurrent/rebalancer.h
//   epoch-based GC for resizes              §3.4  common/epoch_gc.h
//   asynchronous updates (local combining)  §3.5  here + gate.h
//
// Writer protocol (writers hold at most one latch):
//   1. enter an epoch; load the current snapshot (storage+gates+index);
//   2. traverse the static index without latches -> candidate gate;
//   3. acquire the gate latch; the fence keys decide whether the key
//      belongs here — if not, walk to the neighbour gate;
//   4. if the gate is invalidated (resize happened), refresh the epoch
//      and restart from the new snapshot;
//   5. writers finding an active writer on the gate append their update
//      to its combining queue and return (async modes).
//
// Reader protocol (optimistic, normally latch-free). One reader,
// ConcurrentPMA::ReadGateOf, runs it for Find, SumAll and ScanCursor;
// each supplies only the body that reads one gate. Readers run the same
// descent but, instead of taking the READ latch, snapshot the gate's
// sequence-lock version word (gate.h (f)):
//   1. enter an epoch; load the snapshot; index descent -> candidate;
//   2. read the gate version; if odd (writer/rebalancer active), retry;
//   3. check `invalidated`: a retired gate means refresh + restart;
//   4. read the fence keys and — only after re-validating the version,
//      which proves the [low, high] pair was untorn — walk to the
//      neighbour gate on mismatch, exactly like the latched descent;
//   5. run the body (SIMD segment search, gate sum or segment copy)
//      directly on the live storage with tagged accesses
//      (common/tagged.h);
//   6. validate the version; on success the read linearizes at the
//      validation point. On failure retry; after
//      `ConcurrentConfig::optimistic_retries` failed windows and walks
//      (env override CPMA_OPTIMISTIC_RETRIES; 0 forces fallback) take
//      the blocking READ latch, walk by fences under it and run the
//      same body — the latched protocol, so the forced-fallback mode is
//      the pre-optimistic protocol.
// Scans (ScanCursor) deliver one segment run per read: the keys from
// the resume key — one past the last delivered key — to the end of
// that segment. Every read proves the resume key lies inside the gate's
// validated fences and walks left or right when it does not, so a run
// validated at time t is exactly the gate's keys in [resume, run end]
// at t and no key a rebalance moved across a fence is ever skipped: a
// key present for the whole scan is delivered exactly once. While the
// same gate's version is unchanged the next run continues at the next
// segment without a locate; otherwise it relocates from the resume key.
// Epoch pinning keeps a retired storage alive across the validation
// window, so torn reads are bounded but never wild.
// Memory-ordering argument: SeqVersion in common/latches.h.
//
// Updates may therefore complete asynchronously; Flush() waits until all
// queued work (including rebalancer batches) has been applied.
//
// Async ordering contract (§3.5): updates on the SAME key are applied
// in the order their producer issued them — per-key, per-producer FIFO
// — across every async mode, including ops parked in combining queues
// while a fence-moving multi-gate rebalance or a resize runs. Three
// mechanisms compose into the guarantee:
//   1. every GateOp is stamped with a monotone enqueue sequence in
//      Update(); CanonicalizeBatch picks per-key winners by stamp;
//   2. fences never move over a non-empty combining queue: the master
//      drains the queue of every gate its window covers and folds the
//      drained ops into the merged spread while holding those gates;
//   3. a writer whose op needs a multi-gate rebalance pushes the op
//      into its gate's queue BEFORE transferring the latch, so the op
//      rides mechanism 2 instead of being re-dispatched through the
//      index after the fences moved (where a younger op could reach the
//      destination gate first).
// An op is therefore never found outside its gate's fences; the owner
// path checks this (CPMA_CHECK_MSG) rather than re-dispatching.
// Cross-key ordering stays relaxed, exactly as the paper specifies.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/epoch_gc.h"
#include "common/status.h"
#include "common/ordered_map.h"
#include "concurrent/gate.h"
#include "concurrent/static_index.h"
#include "pma/config.h"
#include "pma/storage.h"

namespace cpma {

class Rebalancer;
class PMASnapshot;
struct Structure;

/// Recompute fence keys + index separators for gates [gb, ge) from the
/// live chunk contents, preserving the window's outer boundaries. The
/// caller must own the gates (or be single-threaded at construction).
void RecomputeFences(Structure* snap, size_t gb, size_t ge);

/// Everything that is replaced wholesale by a resize or a bulk load.
/// Clients reach a Structure through an atomic pointer and keep it alive
/// via their epoch.
struct Structure {
  uint64_t version = 1;  // +1 per published replacement
  std::unique_ptr<Storage> storage;
  std::deque<Gate> gates;  // deque: Gate is immovable (mutex member)
  std::unique_ptr<StaticIndex> index;
  size_t segments_per_gate = 8;
  std::atomic<bool> resize_requested{false};

  size_t num_gates() const { return gates.size(); }
};

class ConcurrentPMA : public OrderedMap {
 public:
  explicit ConcurrentPMA(const ConcurrentConfig& config = ConcurrentConfig());
  ~ConcurrentPMA() override;

  void Insert(Key key, Value value) override;
  void Remove(Key key) override;
  bool Find(Key key, Value* value) const override;
  uint64_t SumAll() const override;
  void Scan(Key min, Key max, const ScanCallback& cb) const override;

  /// Batched front-door hand-off (ISSUE 8): apply a producer-ordered run
  /// of ops, equivalent to calling Insert/Remove for each in order but
  /// with ONE enqueue-stamp reservation and ONE epoch pin for the whole
  /// run instead of a fetch_add and a pin per op — the per-op costs the
  /// sharded coalescing front door exists to amortize. The block
  /// reservation linearizes the run at the reservation point, so
  /// per-producer FIFO (ISSUE 5) is preserved exactly as if the ops had
  /// been issued one by one there; callers flushing staging buffers must
  /// therefore serialize UpdateBatch calls per producer (the sharded
  /// front door holds the producer slot's flush lock across the call).
  /// Ops are dispatched in array order; `ops[i].seq` is overwritten. A
  /// structure a resize retires during the run is freed once the run
  /// ends (or re-pins on meeting the invalidated gate), so keep runs
  /// short: the front door's are about `coalesce_ops` long.
  void UpdateBatch(GateOp* ops, size_t n);

  /// Bulk load: build the whole array from `n` items with strictly
  /// ascending keys (all <= kKeyMax) in one pass — storage sized by the
  /// resize capacity policy (SegmentsForCount), an even spread, then
  /// gates, index and fences by the same builder as the initial
  /// structure and resizes — and publish it like a resize. No rebalance
  /// runs. The map must be empty with no open snapshot, and no other
  /// client may use it during the call (pending async ops are flushed
  /// first). InvalidArgument for a non-empty map, an open snapshot or
  /// an unordered run; ResourceExhausted when the storage cannot be
  /// allocated. On any error the map is left unchanged (empty, usable).
  Status LoadSorted(const Item* items, size_t n);

  /// The capacity policy shared by resizes and LoadSorted: the smallest
  /// power-of-two segment count (>= 2 gates) that holds `count`
  /// elements at density <= 0.6.
  size_t SegmentsForCount(size_t count) const;

  /// Pull-based ordered read cursor: the segment loop of Scan()
  /// exposed as an explicit cursor, so a consumer can merge several
  /// PMAs' streams (the sharded front end's k-way scan merge) without
  /// inverting control through callbacks. Each NextChunk() delivers
  /// one validated segment run in [resume key, max] — at most
  /// `segment_capacity` items, copied once into the caller's buffer —
  /// or returns false when the range is exhausted. The resume key is
  /// one past the last delivered key, so every key present for the
  /// cursor's whole lifetime is delivered exactly once, in ascending
  /// order, however fences move in between (see the reader protocol
  /// above). The cursor pins its epoch for its whole lifetime; hold it
  /// only for the duration of a scan pass.
  class ScanCursor {
   public:
    ScanCursor(const ConcurrentPMA& pma, Key min, Key max);
    ~ScanCursor();

    ScanCursor(const ScanCursor&) = delete;
    ScanCursor& operator=(const ScanCursor&) = delete;

    /// Fill `out` with the next run (ascending keys, all in range,
    /// non-empty on true). False = range exhausted; `out` is cleared.
    bool NextChunk(std::vector<Item>* out);

   private:
    const ConcurrentPMA& pma_;
    EpochGuard guard_;
    const Key max_;
    Key next_;  // resume key: [min, next_) is delivered
    bool done_;
    Structure* snap_;
    size_t gid_;  // gate to try next_ in (a hint; reads walk by fences)
    // Position from the last delivery: at version ver_, gate
    // resume_gate_ held its keys >= next_ in segments seg_ onward.
    const Gate* resume_gate_ = nullptr;
    size_t seg_ = 0;
    uint64_t ver_ = 0;
    uint64_t optimistic_gate_reads_ = 0;  // published by the destructor
  };
  size_t Size() const override {
    return count_.load(std::memory_order_relaxed);
  }
  void Flush() override;
  std::string Name() const override;

  const ConcurrentConfig& config() const { return cfg_; }
  size_t capacity() const;

  // --- statistics ---
  uint64_t num_local_rebalances() const {
    return stat_local_rebalances_.load(std::memory_order_relaxed);
  }
  uint64_t num_global_rebalances() const {
    return stat_global_rebalances_.load(std::memory_order_relaxed);
  }
  uint64_t num_resizes() const {
    return stat_resizes_.load(std::memory_order_relaxed);
  }
  uint64_t num_queued_ops() const {
    return stat_queued_ops_.load(std::memory_order_relaxed);
  }
  uint64_t num_batches() const {
    return stat_batches_.load(std::memory_order_relaxed);
  }

  /// Times a read (Find, one segment run of a Scan, one gate of a
  /// SumAll) exhausted its optimistic retry budget and took the
  /// blocking READ latch. Zero under quiescence proves the optimistic
  /// path carried every read; the forced-fallback mode (retry budget
  /// 0) counts every read here.
  uint64_t num_read_fallbacks() const {
    return stat_read_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Gate visits served latch-free by validated optimistic scan windows
  /// (Scan/SumAll; Find avoids a shared counter on its hot path). Each
  /// Scan, ScanCursor and SumAll tallies its visits locally and adds
  /// them once, when it finishes, to its thread's stripe of the counter;
  /// this sums the stripes (exact once the scans have finished).
  uint64_t num_optimistic_gate_reads() const;

  /// Effective per-gate optimistic retry budget (config, possibly
  /// overridden by CPMA_OPTIMISTIC_RETRIES at construction).
  int optimistic_retries() const { return optimistic_retries_; }

  /// Epoch-reclamation counters (§3.4): pending/retired/freed garbage,
  /// retired-bytes high-water mark, epoch advances, and collection
  /// passes (the master's, while garbage is pending, and watermark
  /// crossings'). Surfaced into bench JSON and the nightly soak artifact.
  EpochGCStats ebr_stats() const { return gc_.Stats(); }

  /// The system page size, the mapping granularity of the storage.
  size_t storage_page_bytes() const;

  /// Always 0: every rebalance publishes by copy (pma/storage.h), so
  /// no page is ever remapped. Kept for bench records that report them.
  uint64_t storage_num_remaps() const { return 0; }
  uint64_t storage_num_fallback_copies() const { return 0; }

  // ----------------------------------------------------- fault tolerance

  /// Install a callback fired (from the rebalancer master thread) every
  /// time a background rebalance exhausts its degradation ladder — the
  /// affected ops are requeued and retried, so this is a health signal,
  /// not a data-loss notice. Set under quiescence (before concurrent
  /// clients exist); pass nullptr to remove.
  void SetErrorCallback(std::function<void(const Status&)> cb) {
    error_cb_ = std::move(cb);
  }

  /// Sticky most-recent background error (Status::OK when none was ever
  /// reported). A non-OK value with a later successful Flush means the
  /// condition was transient and every op still applied.
  Status last_error() const {
    std::lock_guard<std::mutex> lk(error_mu_);
    return last_error_;
  }

  /// Storage allocation retries performed by the rebalancer's resize
  /// ladder (EpochGC collect + backoff + denser-capacity attempts).
  uint64_t num_rebalance_retries() const {
    return stat_rebalance_retries_.load(std::memory_order_relaxed);
  }

  /// Stall diagnoses emitted by the rebalancer watchdog (0 unless
  /// watchdog_ms/CPMA_WATCHDOG_MS armed the checker and a rebalance
  /// exceeded the threshold without progress).
  uint64_t num_watchdog_trips() const;

  /// Effective watchdog threshold (config, possibly overridden by
  /// CPMA_WATCHDOG_MS at construction; 0 = disabled).
  int64_t watchdog_ms() const { return watchdog_ms_; }

  // ------------------------------------------- COW snapshots (ISSUE 9)

  /// Capture a frozen, consistent point-in-time view without stopping
  /// the world. The snapshot forms a consistent cut: per gate, its
  /// capture point is the first post-snapshot mutation of that gate
  /// (which first preserves the chunk's pre-image as one heap copy), or
  /// the moment the snapshot reads it, whichever comes first. Window
  /// rebalances preserve every window gate while all of them are held,
  /// so fence moves land atomically on one side of the cut and
  /// sequential gate iteration always yields an ordered, retry-free
  /// scan. Reads on the snapshot (Scan/SumAll/Find) never block
  /// writers; writers pay two relaxed loads per gate op while a
  /// snapshot is open (one when none was ever taken) plus a one-time
  /// per-gate preservation. Destroy the snapshot to release the pinned
  /// structure and the pre-images (retired through the epoch GC's
  /// byte-accounted limbo).
  std::unique_ptr<PMASnapshot> Snapshot() const;

  /// Snapshots currently open / ever taken on this PMA.
  uint64_t snapshots_open() const {
    return snapshots_open_.load(std::memory_order_relaxed);
  }
  uint64_t num_snapshots_taken() const {
    return stat_snapshots_taken_.load(std::memory_order_relaxed);
  }

  /// Heap bytes of the gate pre-images held by this PMA's open
  /// snapshots (the sum of PMASnapshot::retained_bytes(), taken under
  /// the snapshot registry lock): the memory overhead of snapshots.
  uint64_t cow_pages_retained_bytes() const;

  /// Structural validation: fences contiguous and sorted, chunk contents
  /// within fences, per-segment sortedness, index separators == fences,
  /// element count. Requires quiescence (no concurrent clients); call
  /// after Flush().
  bool CheckInvariants(std::string* error) const;

 private:
  friend class Rebalancer;
  friend class PMASnapshot;
  friend class ShardedPMA;  // all-or-nothing fleet loads: BuildLoaded first

  /// Rebalancer -> client surface: record the sticky error and invoke
  /// the callback (master thread).
  void ReportError(const Status& status);

  // Shared update entry point for Insert/Remove.
  void Update(GateOp op);

  // Dispatch an op that already carries its enqueue stamp (Update stamps
  // one op, UpdateBatch reserves a block) under the caller's epoch pin
  // (Update pins per op, UpdateBatch once per run): index descent, gate
  // access, owner apply / queue hand-off. An invalidated gate refreshes
  // `guard` and restarts on the new structure.
  void DispatchStamped(EpochGuard* guard, GateOp op);

  // Owner path: apply `op`, then drain the combining queue according to
  // the configured async mode.
  void OwnerApplyAndDrain(Structure* snap, Gate* gate, GateOp op);

  /// Apply one op inside the gate, after at most one local (in-gate)
  /// spread. Returns false when a global rebalance is required; then
  /// *trigger_seg holds the violating segment.
  bool ApplyOpLocal(Structure* snap, Gate* gate, const GateOp& op,
                    size_t* trigger_seg);

  /// Apply a sorted batch of ops whose keys are within the gate's fences
  /// entirely inside the gate. Returns false when the merged result does
  /// not fit (global batch needed).
  bool ApplyBatchLocal(Structure* snap, Gate* gate,
                       std::deque<GateOp>* pending);

  /// Fold a canonical batch into the gate's window with one merged
  /// spread, if the merged total fits the gate-level density threshold.
  /// Updates the element counter / batch stats and requests a shrink
  /// after net deletions. Returns false (nothing changed) otherwise.
  bool TryMergedGateSpread(Structure* snap, Gate* gate,
                           const std::vector<BatchEntry>& ops);

  // In-gate navigation for writers (latch held) and readers (inside a
  // version window). Rightmost non-empty segment of the chunk whose
  // routing key is <= key, or the leftmost non-empty segment, or
  // seg_begin() for an empty chunk. Tagged route loads: on torn data the
  // result stays within the chunk and the reader's validation rejects
  // the window.
  size_t LocateSegment(const Structure& snap, const Gate& gate, Key key) const;

  // ------------------------------------------------------- reads

  /// How ReadGateOf served a read.
  enum class ReadPath {
    kOptimistic,  // in a validated version window, latch-free
    kLatched,     // under the READ latch, after the retry budget ran out
    kRetired,     // a resize retired `snap`: refresh the epoch, restart
  };

  /// The one gate reader (reader protocol above): find the gate holding
  /// `key`, starting at *gid and walking by fences, and run
  /// `read(gate, version, high_fence)` on it — in a validated seqlock
  /// window, or under the READ latch once `optimistic_retries_` windows
  /// and walks failed. *gid is left at the gate read. `read` returns
  /// false to abandon a torn window early and may run several times, so
  /// it must rewrite all its outputs on every call.
  template <typename Read>
  ReadPath ReadGateOf(Structure* snap, size_t* gid, Key key,
                      Read&& read) const;

  /// True if the effective spread policy is adaptive (paper: one-by-one
  /// leverages adaptive rebalancing, batch uses traditional).
  bool adaptive_effective() const {
    return cfg_.pma.adaptive &&
           cfg_.async_mode != ConcurrentConfig::AsyncMode::kBatch;
  }

  // ------------------------------------------- COW snapshots (ISSUE 9)

  /// Mutator-side hook, called with `gate` held exclusively (writer or
  /// master) BEFORE the first storage/fence mutation of the hold: when
  /// any open snapshot of `snap` has not captured this gate yet, build
  /// its frozen image (GateSnap) now. Fast path: two relaxed loads (one
  /// while no snapshot was ever taken).
  void PreserveGateForSnapshots(Structure* snap, Gate* gate) const {
    const uint64_t sv = snap_stamp_.load(std::memory_order_relaxed);
    if (sv == 0) return;
    if (gate->cow_stamp() == sv) return;
    PreserveGateSlow(snap, gate);
  }
  void PreserveGateSlow(Structure* snap, Gate* gate) const;

  /// Fire-and-forget shrink check after deletions.
  void MaybeRequestShrink(Structure* snap);

  /// The one structure builder (initial structure, resizes, loads):
  /// gates of segments_per_gate segments over `storage`, the static
  /// index, and fences from the storage's contents. Throws
  /// std::bad_alloc; callers with a degradation path catch it.
  std::unique_ptr<Structure> BuildStructure(
      std::unique_ptr<Storage> storage) const;

  /// Replace `old` by `fresh` holding `count` elements, like a resize:
  /// publish the new structure, invalidate and release every old gate
  /// (the caller holds them all, master-owned), retire `old` through
  /// the epoch GC.
  void PublishStructure(Structure* old, std::unique_ptr<Structure> fresh,
                        size_t count);

  /// LoadSorted's two phases, split so a sharded fleet can build every
  /// shard before publishing any: BuildLoaded checks the run and builds
  /// the structure (fallible, touches nothing shared); PublishLoaded
  /// acquires the current gates and publishes it (cannot fail).
  Status BuildLoaded(const Item* items, size_t n,
                     std::unique_ptr<Structure>* out) const;
  void PublishLoaded(std::unique_ptr<Structure> loaded, size_t n);

  // Members are grouped by who writes them, so that no field an op
  // writes shares a cache line with one every op reads: the read-mostly
  // group first (written only by construction, a structure publish or
  // Snapshot()), then one alignas(64) group per kind of write.

  ConcurrentConfig cfg_;
  // Effective retry budget (cfg_ value or CPMA_OPTIMISTIC_RETRIES).
  int optimistic_retries_ = 8;
  // Effective watchdog threshold (cfg_ value or CPMA_WATCHDOG_MS).
  int64_t watchdog_ms_ = 0;
  std::atomic<Structure*> structure_;
  std::unique_ptr<Rebalancer> rebalancer_;
  // COW snapshot stamp, bumped once per Snapshot() under snaps_mu_ and
  // read by every mutation (PreserveGateForSnapshots).
  mutable std::atomic<uint64_t> snap_stamp_{0};

  // Global enqueue stamp generator (see GateOp::seq): one RMW per
  // Update and per UpdateBatch run.
  alignas(64) std::atomic<uint64_t> seq_gen_{1};

  // Element count (every insert and remove) and the queued-op tally.
  alignas(64) std::atomic<size_t> count_{0};
  std::atomic<int64_t> pending_async_{0};

  alignas(64) std::atomic<uint64_t> stat_local_rebalances_{0};
  std::atomic<uint64_t> stat_global_rebalances_{0};
  std::atomic<uint64_t> stat_resizes_{0};
  std::atomic<uint64_t> stat_queued_ops_{0};
  std::atomic<uint64_t> stat_batches_{0};
  mutable std::atomic<uint64_t> stat_read_fallbacks_{0};
  std::atomic<uint64_t> stat_rebalance_retries_{0};

  // Optimistic scan gate reads, striped: every Scan, ScanCursor and
  // SumAll adds its tally to the stripe of its thread (picked once per
  // thread, round robin), so concurrent short scans do not bounce one
  // line; num_optimistic_gate_reads() sums the stripes.
  struct alignas(64) TallyStripe {
    std::atomic<uint64_t> n{0};
  };
  static constexpr size_t kTallyStripes = 16;
  mutable TallyStripe stat_optimistic_gate_reads_[kTallyStripes];
  void AddOptimisticGateReads(uint64_t n) const;

  // Cache-line aligned by its slots; only retirements and collection
  // passes write its shared fields. Passive: the rebalancer master
  // drives its passes (rebalancer.h).
  mutable EpochGC gc_;

  // Background-error surface (ISSUE 7).
  std::function<void(const Status&)> error_cb_;
  mutable std::mutex error_mu_;
  Status last_error_;

  // COW snapshot registry (ISSUE 9). snap_stamp_ (above) is bumped once
  // per Snapshot() under snaps_mu_; a gate whose cow_stamp matches it
  // has been preserved for every open snapshot. Preservation itself is
  // serialized by snaps_mu_ — it runs at most once per (gate, snapshot),
  // so contention there is a cold path by construction.
  mutable std::mutex snaps_mu_;
  mutable std::vector<PMASnapshot*> open_snaps_;
  mutable std::atomic<uint64_t> stat_snapshots_taken_{0};
  mutable std::atomic<uint64_t> snapshots_open_{0};
};

}  // namespace cpma
