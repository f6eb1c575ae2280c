// Gate: per-chunk concurrency metadata (paper §3.1).
//
// The sparse array is split into fixed-size chunks of `segments_per_gate`
// segments; each chunk is guarded by one Gate carrying
//   (a) the chunk's read-write latch — a {FREE, READ, WRITE, REBAL}
//       state machine on a mutex/condvar pair. REBAL marks ownership by
//       the rebalancer service: a writer *transfers* its WRITE hold to
//       the master (paper §3.3) and the master acquires whole windows;
//   (b) the fence keys [low_fence, high_fence], the inclusive key range
//       this chunk may store. Clients validate their key against the
//       fences after every (latch-free, possibly stale) index descent and
//       walk to a neighbour gate on mismatch (paper §3.2);
//   (c) the local-combining queue (paper §3.5): while a writer is active
//       on the gate (`writer_active`), later writers append their update
//       and return immediately; the active writer (or the rebalancer, for
//       deferred batches) drains the queue. Ordering invariant (ISSUE 5):
//       fences never move while this queue is non-empty — every master
//       acquisition that may move fences drains the queue first and folds
//       the drained ops into the merged spread while all affected gates
//       are held. A queued op therefore never outlives the fence range it
//       was admitted under, which is what makes the per-key FIFO contract
//       of the async modes enforceable (the owner path aborts on an op
//       outside its gate's fences instead of re-dispatching it);
//   (d) the per-segment minimum keys that aid lookups inside a chunk —
//       these live in Storage::route() and need no duplication here;
//   (e) the `invalidated` flag set when a resize replaced the whole
//       structure: woken clients restart in a new epoch (paper §3.4);
//   (f) a sequence-lock version word (ISSUE 4): even = no mutator, odd =
//       a writer or the rebalancer owns the chunk. It is bumped exactly
//       on the WRITE/REBAL edges of the state machine (write acquire and
//       release, master acquire and release, invalidation; a WRITE ->
//       REBAL hand-off keeps it odd), so readers can run the segment
//       search directly on the storage and validate afterwards instead
//       of taking the READ latch — the optimistic read protocol in
//       concurrent_pma.h. Fence keys and the invalidated flag are
//       relaxed atomics for the same reason: optimistic readers consult
//       them inside a version-validated window, writers only under the
//       latch. The memory-ordering argument lives with SeqVersion in
//       common/latches.h.
//
// Deadlock freedom: clients hold at most one gate latch; only the single
// rebalancer master ever holds several.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/latches.h"
#include "common/ordered_map.h"
#include "pma/item.h"

namespace cpma {

/// A queued update forwarded between writers (local combining).
struct GateOp {
  enum class Type : uint8_t { kInsert, kRemove };
  Type type;
  Key key;
  Value value;
  /// Monotone enqueue stamp (ISSUE 5): assigned once from a global
  /// counter when the producer enters ConcurrentPMA::Update and carried
  /// unchanged through queues, batch canonicalization and rebalancer
  /// merges. Because each producer issues its ops sequentially, seq
  /// order restricted to one producer is that producer's program order,
  /// so "per-key winner = max seq" (CanonicalizeBatch) implements the
  /// per-key FIFO guarantee of the async modes.
  uint64_t seq = 0;
};

/// Outcome of an access attempt; see Gate::WriterAccess / ReaderAccess.
enum class GateAccess {
  kOwner,        // latch acquired; caller is responsible for release
  kQueued,       // update handed to the gate's active writer; caller done
  kInvalidated,  // gate belongs to a retired snapshot; restart
  kTooLow,       // key below low fence: retry on the left neighbour
  kTooHigh,      // key above high fence: retry on the right neighbour
};

class Gate {
 public:
  enum class State : uint8_t { kFree, kRead, kWrite, kRebal };

  Gate(uint32_t id, size_t seg_begin, size_t seg_end)
      : id_(id), seg_begin_(seg_begin), seg_end_(seg_end) {}

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  uint32_t id() const { return id_; }
  size_t seg_begin() const { return seg_begin_; }
  size_t seg_end() const { return seg_end_; }

  // ------------------------------------------------------------ clients

  /// Writer entry point. Validates fences, then either acquires the
  /// latch exclusively (kOwner), forwards `op` to the already-active
  /// writer (kQueued; only when `allow_queue`), or reports the reason to
  /// move on. Blocks while the gate is held by readers/writers/rebalancer
  /// and no queueing is possible.
  GateAccess WriterAccess(const GateOp& op, bool allow_queue);

  /// Reader entry point: shared acquisition with fence validation.
  /// `key` may be nullptr for "any key" access (scan cursor positioning
  /// is done by the caller).
  GateAccess ReaderAccess(const Key* key);

  void ReaderRelease();

  /// Active writer: pop one queued op (one-by-one processing). Returns
  /// false when the queue is empty, in which case the gate has been
  /// released and `writer_active` cleared.
  bool WriterPopOrRelease(GateOp* op);

  /// Active writer: take the whole queue (batch processing) without
  /// releasing. Returns an empty deque when nothing is pending.
  std::deque<GateOp> WriterTakeQueue();

  /// Active writer: release the latch; clears writer_active only when
  /// the queue is empty (returns true). If false, the caller must keep
  /// draining (new ops arrived).
  bool WriterRelease();

  /// Active writer: prepend older ops (a batch remainder) ahead of any
  /// updates that arrived while the batch was being processed, keeping
  /// per-key arrival order intact.
  void OwnerPushFront(const std::vector<GateOp>& ops);

  /// Active writer: convert WRITE -> REBAL, handing the latch to the
  /// rebalancer (paper: "transfers the ownership of the held latch").
  /// writer_active stays set: the caller remains the gate's combiner and
  /// must call WriterReacquireAfterRebal() afterwards.
  void TransferToRebalancer();

  /// Block until the rebalancer released the gate, then re-take WRITE.
  /// Returns false if the gate was invalidated by a resize instead.
  bool WriterReacquireAfterRebal();

  /// Active writer in batch mode, t_delay not yet elapsed: release the
  /// latch but keep writer_active so the queue keeps accumulating for
  /// the rebalancer (paper: "transfers the ownership of its queue to the
  /// rebalancer, leaving pQ still set").
  void WriterDetachKeepQueue();

  // --------------------------------------------------------- rebalancer

  /// Master: acquire the gate for a rebalance. Waits for readers and
  /// writers to drain; takes over gates already in REBAL that were
  /// transferred by a writer.
  void MasterAcquire();

  /// Master: release after a rebalance; wakes all waiters.
  void MasterRelease();

  /// Master (holding the gate): take the combining queue for merging.
  std::deque<GateOp> MasterTakeQueue();

  /// Master (holding the gate): clear writer_active after consuming a
  /// detached queue, so the next writer becomes the combiner again.
  void MasterClearWriterActive();

  /// Master (holding the gate): put drained ops back at the front of the
  /// combining queue — the resize-failure path (ISSUE 7). `ops` must be
  /// in seq order; writer_active is set so writers arriving after the
  /// master releases queue behind the requeued ops instead of taking
  /// ownership and applying a younger op first — the rebalancer owes the
  /// gate a deferred batch request that drains the queue.
  void MasterRequeue(const std::vector<GateOp>& ops);

  /// Master: mark the gate as belonging to a retired snapshot and wake
  /// everyone (resize path). Also releases the latch.
  void InvalidateAndRelease();

  /// Monotone per-gate progress stamp for the stall watchdog (ISSUE 7):
  /// bumped on every master-side acquire/release/invalidate edge, so a
  /// gate whose stamp stops moving while the master is mid-rebalance is
  /// where the rebalance is stuck.
  uint64_t rebal_stamp() const {
    return rebal_stamp_.load(std::memory_order_relaxed);
  }

  /// Watchdog diagnosis line: state/queue/fence dump for this gate.
  /// Never blocks — the queue size is read under try_lock and printed as
  /// "?" when the mutex is held (the point is to debug a stuck rebalance
  /// without joining it).
  void DumpStateForStall(std::FILE* out) const;

  // ------------------------------------------------- optimistic readers

  /// The chunk's sequence-lock version word. Readers snapshot with
  /// ReadBegin(), run tagged reads on the storage, then Validate();
  /// only the gate's own state machine mutates it.
  const SeqVersion& version() const { return version_; }

  /// Latch-free invalidation check for the optimistic path (resize
  /// handling): pairs with the release edge of InvalidateAndRelease via
  /// the version word, so a reader that observes the post-invalidate
  /// even version also observes the flag.
  bool invalidated_relaxed() const {
    return invalidated_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------------- metadata

  // Fence keys. Written by the master while holding the gate (version
  // word odd), read under the latch, under the mutex, or — optimistic
  // path — inside a version-validated window (a stable version proves
  // the [low, high] pair was read untorn).
  Key low_fence() const {
    return low_fence_.load(std::memory_order_relaxed);
  }
  Key high_fence() const {
    return high_fence_.load(std::memory_order_relaxed);
  }
  void SetFences(Key low, Key high);

  int64_t last_global_rebalance_ms() const {
    return last_global_rebalance_ms_;
  }
  void set_last_global_rebalance_ms(int64_t t) {
    last_global_rebalance_ms_ = t;
  }

  bool writer_active_unsafe() const {
    return writer_active_.load(std::memory_order_relaxed);
  }
  size_t queue_size_unsafe() const { return queue_.size(); }

  // -------------------------------------------------- COW snapshots
  // Highest ConcurrentPMA snapshot stamp this gate's chunk has been
  // preserved for (ISSUE 9). Written only while the gate is held
  // exclusively (writer or master); mutators compare it (relaxed)
  // against the PMA's global snapshot stamp before touching storage —
  // equal means every open snapshot already has this gate's capture,
  // so the hot path stays two relaxed loads when snapshots exist and
  // one when none was ever taken.
  uint64_t cow_stamp() const {
    return cow_stamp_.load(std::memory_order_relaxed);
  }
  void set_cow_stamp(uint64_t stamp) {
    cow_stamp_.store(stamp, std::memory_order_relaxed);
  }

 private:
  bool FenceCheck(Key key, GateAccess* out) const {
    if (key < low_fence()) {
      *out = GateAccess::kTooLow;
      return false;
    }
    if (key > high_fence()) {
      *out = GateAccess::kTooHigh;
      return false;
    }
    return true;
  }

  /// Every state_ change goes through here so the latch-free mirror the
  /// spin loops poll stays in sync (always under m_).
  void SetState(State s) {
    state_ = s;
    pub_state_.store(s, std::memory_order_relaxed);
  }

  // Latch-free pre-checks for the spin phases: true when re-acquiring
  // the mutex could change the caller's outcome (gate looks acquirable,
  // queueable, invalidated, or the fences moved off the key).
  bool WriterPollActionable(Key key, bool allow_queue) const;
  bool ReaderPollActionable(const Key* key) const;

  const uint32_t id_;
  const size_t seg_begin_;
  const size_t seg_end_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  State state_ = State::kFree;
  uint32_t num_readers_ = 0;
  bool master_owned_ = false;

  // Mirror of state_ for the latch-free spin polls (see SetState) and
  // the seqlock word for optimistic readers.
  std::atomic<State> pub_state_{State::kFree};
  SeqVersion version_;
  std::atomic<bool> invalidated_{false};

  std::atomic<bool> writer_active_{false};
  std::deque<GateOp> queue_;

  std::atomic<Key> low_fence_{kKeyMin};
  std::atomic<Key> high_fence_{kKeySentinel};
  int64_t last_global_rebalance_ms_ = 0;
  std::atomic<uint64_t> rebal_stamp_{0};
  std::atomic<uint64_t> cow_stamp_{0};
};

}  // namespace cpma
