// Rebalancer service (paper §3.3–3.4): one master thread per sparse
// array, which runs every window rebalance and resize itself.
//
// Writers that detect a rebalance spanning multiple gates transfer their
// gate latch to the service (Gate::TransferToRebalancer) and enqueue a
// request; the master computes the final window by walking the calibrator
// tree upward, acquiring the gates it grows over and draining their
// combining queues, then folds the drained ops into one merged spread
// (pma/spread.h) while it still holds every gate of the window.
//
// The paper's master splits a large window over a pool of workers. Here
// every window the master runs carries ops: a sync or one-by-one writer
// hands its own op over inside its gate's queue (per-key FIFO), and a
// batch request exists to drain a queue. Folding sorted ops into a window
// is one ordered pass, so the master merges alone. A request whose queue
// comes up empty was absorbed by an earlier window that merged its ops,
// so it releases its gates and does nothing.
//
// Batch requests (async batch mode, §3.5) carry a due time (t_delay
// throttle); the master merges the gate's combining queue into the
// window spread in one pass (deletions first by key order, insertions
// merged during redistribution).
//
// When even the root window violates its threshold — or a shrink request
// validates — the master rebuilds storage, gates and index at the new
// capacity, publishes the new snapshot, and retires the old one through
// the epoch GC (§3.4), waking all clients parked on old gates.
//
// The master is also the PMA's garbage collector (§3.4): the EpochGC is
// passive, and while it holds pending garbage the master runs one
// Collect() pass every kCollectPeriodMs (10 ms), between requests. With
// nothing pending it runs none, so an idle PMA makes no membarrier call. A
// retirement made on another thread (a LoadSorted publish) wakes it via
// NotifyRetired(). A pass never waits for a reader, and it is not
// rebalancer work: Drain() and Idle() do not wait for garbage that a
// parked reader pins.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "concurrent/concurrent_pma.h"
#include "pma/spread.h"

namespace cpma {

/// Collapse a combining queue into a sorted, per-key last-wins batch;
/// "last" is decided by the ops' enqueue stamps (GateOp::seq), falling
/// back to arrival order for unstamped (seq 0) entries.
std::vector<BatchEntry> CanonicalizeBatch(const std::deque<GateOp>& ops);

class Rebalancer {
 public:
  explicit Rebalancer(ConcurrentPMA* pma);
  ~Rebalancer();

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  void Start();
  void Stop();

  /// Stall diagnoses the watchdog emitted (0 when disabled or healthy).
  uint64_t watchdog_trips() const {
    return watchdog_trips_.load(std::memory_order_relaxed);
  }

  /// Writer -> master: the gate (already in REBAL state, ownership
  /// transferred) needs a window rebalance for a pending insertion into
  /// `trigger_seg`. While a resize-failure retry waits out its backoff,
  /// the request waits with it.
  void RequestRebalance(uint64_t version, uint32_t gate_id,
                        size_t trigger_seg);

  /// Writer -> master: process the gate's combining queue as a batch at
  /// `due_ms` (NowMillis-based). The gate is left FREE with
  /// writer_active set, so the queue keeps accumulating until then.
  void RequestBatch(uint64_t version, uint32_t gate_id, int64_t due_ms);

  /// Writer -> master (fire and forget): global density dropped below
  /// the shrink threshold; master re-validates before resizing.
  void RequestShrink(uint64_t version);

  /// Any thread but the master, after an EpochGC retirement: wake the
  /// master so its reclamation passes start.
  void NotifyRetired();

  /// Process everything immediately (deferred batches included, except
  /// resize-failure retries, which keep their backoff) and wait until
  /// idle. Used by Flush().
  void Drain();

  bool Idle();

 private:
  struct Request {
    enum class Type { kWindow, kShrink };
    Type type;
    uint64_t version;
    uint32_t gate_id;
    size_t trigger_seg;
    int64_t due_ms;
    bool retry = false;  // resize-failure retry: due_ms holds under Drain()
  };

  void MasterLoop();
  void Dispatch(const Request& req);

  // ------------------------------------------------ stall watchdog (ISSUE 7)
  //
  // The master stamps its progress (monotone counter + phase label +
  // active window) at every dispatch step; a background checker samples
  // the stamp every watchdog_ms and, when it has not moved while a phase
  // is active, prints a diagnosis (master phase, window, per-gate state
  // via Gate::DumpStateForStall) and bumps watchdog_trips_. Detection
  // only — it never kills or unwedges anything.

  /// Master-side: record forward progress (bumps the stamp, sets the
  /// phase label; nullptr = idle). Labels must be string literals.
  void Progress(const char* phase);

  void WatchdogLoop();

  /// Handler for every window request (rebalance and batch): walks the
  /// calibrator tree upward from the origin gate, draining the combining
  /// queue of every gate the window grows over, until the *merged* total
  /// fits the level's threshold — then runs one merged spread. Draining
  /// the queues together with the fence update keeps per-key operation
  /// order intact: an op can never be left queued under stale fences.
  void HandleWindowWork(const Request& req);
  void HandleShrink(const Request& req);

  /// Grow the held-gate range [*gb, *ge) to cover gates [nb, ne),
  /// acquiring the newly covered gates.
  void AcquireGates(Structure* snap, size_t nb, size_t ne, size_t* gb,
                    size_t* ge);

  /// AcquireGates + drain the combining queues of the newly acquired
  /// gates into *raw (decrementing the owner's pending-op counter).
  void AcquireGatesAndDrain(Structure* snap, size_t nb, size_t ne, size_t* gb,
                            size_t* ge, std::deque<GateOp>* raw);
  void ReleaseGates(Structure* snap, size_t gb, size_t ge);

  /// Full resize: requires *all* gates held ([gb,ge) == [0,num_gates)).
  /// Drains every combining queue, merges those updates plus `extra`,
  /// publishes a new snapshot and invalidates the old gates.
  ///
  /// Allocation failures run a degradation ladder (ISSUE 7): EpochGC
  /// collect + backoff retries, then denser (smaller) capacities. If the
  /// ladder is exhausted, the drained ops are requeued to their
  /// fence-owning gates in seq order (per-key FIFO preserved), deferred
  /// retry batches are scheduled, the gates are released, the error is
  /// reported through ConcurrentPMA::ReportError, and false is returned
  /// — no op is lost and the old snapshot stays live.
  bool ExecuteResize(Structure* snap, std::deque<GateOp> extra = {});

  /// The resize ladder's storage allocation: TryCreate with collect +
  /// backoff retries at `new_segs`, then halving capacities while the
  /// elements still fit. Returns nullptr (status = last failure) when
  /// every rung failed.
  std::unique_ptr<Storage> AllocStorageWithRetry(size_t new_segs,
                                                 size_t total, Status* status);

  /// Resize-failure recovery: push `ops` back into the combining queues
  /// of their fence-owning gates (sorted by seq; writer_active is set so
  /// later writers queue behind them), re-account pending_async_,
  /// release all gates and schedule deferred retry batches with
  /// escalating backoff.
  void RequeueAndReschedule(Structure* snap, const std::deque<GateOp>& ops);

  /// Under m_: defer `req` as a resize-failure retry due at `due_ms`.
  /// A gate keeps at most one pending retry: one that is already queued
  /// drains the gate's whole queue, so it only takes the later due time.
  void DeferRetryLocked(Request req, int64_t due_ms);

  ConcurrentPMA* pma_;

  std::thread master_;
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Request> ready_;
  std::vector<Request> deferred_;  // unordered; master scans for due
  bool stop_ = false;
  bool ignore_due_times_ = false;  // Drain() mode
  bool processing_ = false;

  // Master-only bookkeeping for the resize degradation ladder: how many
  // ExecuteResize calls in a row exhausted the ladder (drives the retry
  // backoff; reset on the first successful resize).
  size_t consecutive_resize_failures_ = 0;

  // Watchdog state. progress_stamp_/phase_/active window are written by
  // the master (relaxed) and sampled by the watchdog thread; phase_ only
  // ever holds string literals so the pointer itself is the value.
  std::thread watchdog_;
  std::mutex wd_m_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::atomic<uint64_t> progress_stamp_{0};
  std::atomic<const char*> phase_{nullptr};
  std::atomic<size_t> active_gb_{0};
  std::atomic<size_t> active_ge_{0};
  std::atomic<uint64_t> watchdog_trips_{0};
};

}  // namespace cpma
