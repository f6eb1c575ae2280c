#include "concurrent/concurrent_pma.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hotpath/locate.h"
#include "common/hotpath/search.h"
#include "common/hotpath/tagged.h"
#include "common/timer.h"
#include "concurrent/event_ring.h"
#include "concurrent/rebalancer.h"
#include "pma/density.h"
#include "pma/spread.h"

namespace cpma {

void RecomputeFences(Structure* snap, size_t gb, size_t ge) {
  CPMA_CHECK(gb < ge && ge <= snap->num_gates());
  const Storage& st = *snap->storage;
  const size_t spg = snap->segments_per_gate;

  auto first_key_of_chunk = [&](size_t g) -> std::optional<Key> {
    for (size_t s = g * spg; s < (g + 1) * spg; ++s) {
      if (st.card(s) > 0) return st.segment(s)[0].key;
    }
    return std::nullopt;
  };

  // Right-to-left: a gate's high fence is the predecessor of the next
  // gate's low fence (paper §3.1); empty chunks collapse onto the next
  // boundary, yielding an empty [low, high] range that fence checks
  // simply walk past.
  const size_t n = ge - gb;
  std::vector<Key> low(n), high(n);
  for (size_t g = ge; g-- > gb;) {
    const size_t j = g - gb;
    high[j] =
        (g == ge - 1) ? snap->gates[g].high_fence() : low[j + 1] - 1;
    if (g == gb) {
      low[j] = snap->gates[g].low_fence();
    } else if (auto fk = first_key_of_chunk(g)) {
      low[j] = *fk;
    } else {
      low[j] = (high[j] == kKeySentinel) ? kKeySentinel : high[j] + 1;
    }
  }
  for (size_t g = gb; g < ge; ++g) {
    snap->gates[g].SetFences(low[g - gb], high[g - gb]);
    snap->index->SetSeparator(g, low[g - gb]);
  }
}

ConcurrentPMA::ConcurrentPMA(const ConcurrentConfig& config) : cfg_(config) {
  CPMA_CHECK(IsPowerOfTwo(cfg_.segments_per_gate));
  CPMA_CHECK(cfg_.segments_per_gate >= 2);
  CPMA_CHECK(IsPowerOfTwo(cfg_.pma.segment_capacity));
  CPMA_CHECK(cfg_.pma.segment_capacity >= 4);
  optimistic_retries_ = cfg_.optimistic_retries;
  if (const char* env = std::getenv("CPMA_OPTIMISTIC_RETRIES")) {
    // Strict parse: a typo silently becoming 0 would turn the whole
    // optimistic read path off and masquerade as a perf regression.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v >= 0 &&
        v <= INT_MAX) {
      optimistic_retries_ = static_cast<int>(v);
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "cpma: ignoring invalid CPMA_OPTIMISTIC_RETRIES=%s "
                   "(want a non-negative integer); using %d\n",
                   env, optimistic_retries_);
    }
  }
  if (optimistic_retries_ < 0) optimistic_retries_ = 0;
  watchdog_ms_ = cfg_.watchdog_ms;
  if (const char* env = std::getenv("CPMA_WATCHDOG_MS")) {
    // Strict parse like the knobs above: a typo must not silently arm or
    // disarm the stall checker.
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v >= 0) {
      watchdog_ms_ = static_cast<int64_t>(v);
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "cpma: ignoring invalid CPMA_WATCHDOG_MS=%s "
                   "(want a non-negative integer); using %lld\n",
                   env, static_cast<long long>(watchdog_ms_));
    }
  }
  size_t segs = std::max(cfg_.pma.initial_num_segments,
                         2 * cfg_.segments_per_gate);
  while (!IsPowerOfTwo(segs)) ++segs;
  structure_.store(
      BuildStructure(std::make_unique<Storage>(segs, cfg_.pma.segment_capacity))
          .release(),
      std::memory_order_release);
  rebalancer_ = std::make_unique<Rebalancer>(this);
  rebalancer_->Start();
}

ConcurrentPMA::~ConcurrentPMA() {
  CPMA_CHECK_MSG(snapshots_open_.load(std::memory_order_relaxed) == 0,
                 "ConcurrentPMA destroyed with open snapshots");
  Flush();
  rebalancer_->Stop();
  rebalancer_.reset();
  delete structure_.load(std::memory_order_acquire);
  // gc_'s destructor frees retired structures no pass has freed yet.
}

std::unique_ptr<Structure> ConcurrentPMA::BuildStructure(
    std::unique_ptr<Storage> storage) const {
  const size_t spg = cfg_.segments_per_gate;
  const size_t num_gates = storage->num_segments() / spg;
  auto snap = std::make_unique<Structure>();
  snap->segments_per_gate = spg;
  snap->storage = std::move(storage);
  for (size_t g = 0; g < num_gates; ++g) {
    snap->gates.emplace_back(static_cast<uint32_t>(g), g * spg,
                             (g + 1) * spg);
  }
  snap->index = std::make_unique<StaticIndex>(num_gates, cfg_.index_fanout);
  RecomputeFences(snap.get(), 0, num_gates);
  return snap;
}

void ConcurrentPMA::PublishStructure(Structure* old,
                                     std::unique_ptr<Structure> fresh,
                                     size_t count) {
  fresh->version = old->version + 1;
  count_.store(count, std::memory_order_relaxed);
  structure_.store(fresh.release(), std::memory_order_release);
  // Wake every client parked on the old gates; they observe the
  // invalidation, refresh their epoch and restart on the new snapshot.
  for (Gate& gate : old->gates) gate.InvalidateAndRelease();
  // Byte-accounted retirement (§3.4): the snapshot's dominant footprint
  // is its storage (live array + rebalance buffer), so a parked reader
  // pinning a few multi-MB snapshots trips the bytes watermark long
  // before the count watermark would notice.
  const size_t bytes = sizeof(Structure) +
                       2 * old->storage->capacity() * sizeof(Item) +
                       old->num_gates() * sizeof(Gate);
  gc_.Retire(old, bytes);
}

size_t ConcurrentPMA::SegmentsForCount(size_t count) const {
  const size_t B = cfg_.pma.segment_capacity;
  size_t segs = 2 * cfg_.segments_per_gate;
  while (static_cast<double>(count) >
         0.6 * static_cast<double>(segs) * static_cast<double>(B)) {
    segs *= 2;
  }
  return segs;
}

Status ConcurrentPMA::LoadSorted(const Item* items, size_t n) {
  Flush();  // ops still queued would otherwise land after the load
  if (Size() != 0 || snapshots_open() != 0) {
    return Status::InvalidArgument(
        "LoadSorted: the map must be empty with no open snapshot");
  }
  std::unique_ptr<Structure> loaded;
  Status st = BuildLoaded(items, n, &loaded);
  if (st.ok()) PublishLoaded(std::move(loaded), n);
  return st;
}

Status ConcurrentPMA::BuildLoaded(const Item* items, size_t n,
                                  std::unique_ptr<Structure>* out) const {
  for (size_t i = 0; i < n; ++i) {
    if (items[i].key > kKeyMax || (i > 0 && items[i].key <= items[i - 1].key)) {
      return Status::InvalidArgument(
          "LoadSorted: keys must ascend strictly and stay <= kKeyMax");
    }
  }
  Status st;
  std::unique_ptr<Storage> storage =
      Storage::TryCreate(SegmentsForCount(n), cfg_.pma.segment_capacity, &st);
  if (storage == nullptr) return st;
  try {
    SpreadSortedInto(items, n, storage.get());
    *out = BuildStructure(std::move(storage));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("LoadSorted: structure allocation failed");
  }
  return Status::OK();
}

void ConcurrentPMA::PublishLoaded(std::unique_ptr<Structure> loaded,
                                  size_t n) {
  // No client runs and the rebalancer is idle (flushed), so every
  // acquisition is immediate; holding the gates makes the publish the
  // same protocol as a resize.
  Structure* old = structure_.load(std::memory_order_acquire);
  for (Gate& gate : old->gates) gate.MasterAcquire();
  PublishStructure(old, std::move(loaded), n);
  rebalancer_->NotifyRetired();  // the master reclaims `old`
}

size_t ConcurrentPMA::capacity() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)->storage->capacity();
}

std::string ConcurrentPMA::Name() const {
  switch (cfg_.async_mode) {
    case ConcurrentConfig::AsyncMode::kSync:
      return "ConcurrentPMA(sync)";
    case ConcurrentConfig::AsyncMode::kOneByOne:
      return "ConcurrentPMA(1by1)";
    case ConcurrentConfig::AsyncMode::kBatch:
      return "ConcurrentPMA(batch," + std::to_string(cfg_.t_delay_ms) + "ms)";
  }
  return "ConcurrentPMA";
}

// --------------------------------------------------------------- updates

void ConcurrentPMA::Insert(Key key, Value value) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Update(GateOp{GateOp::Type::kInsert, key, value});
}

void ConcurrentPMA::Remove(Key key) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  Update(GateOp{GateOp::Type::kRemove, key, 0});
}

void ConcurrentPMA::Update(GateOp op) {
  // Enqueue stamp (ISSUE 5): one fetch_add per producer-issued op; the
  // stamp rides the op through queues and rebalancer merges, where
  // CanonicalizeBatch resolves per-key winners by it.
  op.seq = seq_gen_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard(gc_);
  DispatchStamped(&guard, op);
}

void ConcurrentPMA::UpdateBatch(GateOp* ops, size_t n) {
  if (n == 0) return;
  // Block stamp reservation (ISSUE 8): one fetch_add covers the whole
  // producer-ordered run, linearizing it at the reservation point.
  // ops[i] gets base+i, so within the run the stamps reproduce issue
  // order exactly — CanonicalizeBatch and the per-key FIFO machinery
  // cannot tell these ops from individually stamped ones.
  const uint64_t base = seq_gen_.fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    CPMA_CHECK_MSG(ops[i].key <= kKeyMax,
                   "key out of domain (UINT64_MAX reserved)");
    ops[i].seq = base + i;
  }
  // One epoch pin for the whole run: a structure a resize retires
  // mid-run stays allocated until the run ends, or until an op of the
  // run meets the invalidated gate and re-pins (DispatchStamped).
  EpochGuard guard(gc_);
  for (size_t i = 0; i < n; ++i) DispatchStamped(&guard, ops[i]);
}

void ConcurrentPMA::DispatchStamped(EpochGuard* guard, GateOp op) {
  const bool allow_queue =
      cfg_.async_mode != ConcurrentConfig::AsyncMode::kSync;
  for (;;) {
    Structure* snap = structure_.load(std::memory_order_acquire);
    size_t gid = snap->index->Lookup(op.key);
    GateAccess a;
    Gate* gate;
    for (;;) {
      gate = &snap->gates[gid];
      a = gate->WriterAccess(op, allow_queue);
      if (a == GateAccess::kTooLow) {
        CPMA_CHECK(gid > 0);
        --gid;
      } else if (a == GateAccess::kTooHigh) {
        CPMA_CHECK(gid + 1 < snap->num_gates());
        ++gid;
      } else {
        break;
      }
    }
    if (a == GateAccess::kInvalidated) {
      guard->Refresh();
      continue;
    }
    if (a == GateAccess::kQueued) {
      pending_async_.fetch_add(1, std::memory_order_relaxed);
      stat_queued_ops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CPMA_CHECK(a == GateAccess::kOwner);
    OwnerApplyAndDrain(snap, gate, op);
    return;
  }
}

void ConcurrentPMA::OwnerApplyAndDrain(Structure* snap, Gate* gate,
                                       GateOp op) {
  using AsyncMode = ConcurrentConfig::AsyncMode;
  const bool batch_mode = cfg_.async_mode == AsyncMode::kBatch;
  std::optional<GateOp> pending = op;
  bool pending_counted = false;  // true when `pending` came off the queue

  auto drop_pending = [&] {
    if (pending_counted) {
      pending_async_.fetch_sub(1, std::memory_order_relaxed);
    }
    pending.reset();
    pending_counted = false;
  };

  for (;;) {
    if (pending.has_value()) {
      // The op was fence-validated under this WRITE hold, or popped
      // from a queue the master drains before any fence move (gate.h
      // invariant (c)); one outside the fences would be a per-key FIFO
      // break, so it aborts instead of being re-dispatched.
      CPMA_CHECK_MSG(pending->key >= gate->low_fence() &&
                         pending->key <= gate->high_fence(),
                     "owner's pending op outside its gate's fences");
      size_t trigger_seg = 0;
      if (ApplyOpLocal(snap, gate, *pending, &trigger_seg)) {
        drop_pending();
      } else if (batch_mode) {
        // Hand the gate's queue (including this op) to the rebalancer;
        // the t_delay throttle decides when it runs (paper §3.5).
        gate->OwnerPushFront({*pending});
        if (!pending_counted) {
          pending_async_.fetch_add(1, std::memory_order_relaxed);
        }
        pending.reset();
        pending_counted = false;
        const int64_t due =
            std::max(NowMillis(),
                     gate->last_global_rebalance_ms() + cfg_.t_delay_ms);
        rebalancer_->RequestBatch(snap->version, gate->id(), due);
        gate->WriterDetachKeepQueue();
        return;
      } else {
        // Per-key FIFO: hand the op to the master INSIDE the combining
        // queue instead of carrying it across the rebalance in this
        // frame. The master drains the queue of every gate its window
        // grows over and folds the drained ops into the merged spread
        // while holding all of those gates, so the op is applied at its
        // stamp-order position before any younger op can reach the
        // moved fences. Push to the FRONT: the op is the oldest
        // unapplied op on this gate (its own latch acquisition, or a
        // pop off the queue head), and while the master is indifferent
        // (it canonicalizes by stamp), the writer itself may end up
        // draining this queue op-at-a-time after a shrink-probe
        // interleave (MasterAcquire + release without a drain) — a
        // back-push would then apply same-key ops out of issue order.
        gate->OwnerPushFront({*pending});
        if (!pending_counted) {
          pending_async_.fetch_add(1, std::memory_order_relaxed);
        }
        pending.reset();
        pending_counted = false;
        gate->TransferToRebalancer();
        rebalancer_->RequestRebalance(snap->version, gate->id(),
                                      trigger_seg);
        if (!gate->WriterReacquireAfterRebal()) {
          // Resize: the gate is gone, but the op is not — ExecuteResize
          // drained every combining queue (ours included) into the
          // merge before invalidating. Nothing left to do.
          return;
        }
        continue;  // nothing pending; drain the combining queue
      }
    }

    // Own op done — drain the combining queue. Sync mode drains too:
    // its queue is normally empty, but a hand-off that interleaved with
    // a shrink probe (MasterAcquire without a drain, released without a
    // rebalance) can leave the handed-off op queued for us to finish;
    // releasing with it still queued would strand the op and park the
    // master forever.
    if (!batch_mode) {
      GateOp qop;
      if (gate->WriterPopOrRelease(&qop)) {
        pending = qop;
        pending_counted = true;
        continue;
      }
      return;  // queue empty: gate released
    }
    // Batch mode: release unless ops are queued, and only then take
    // the whole queue. A false release keeps the WRITE hold, and only
    // the owner drains a held gate, so the queue is still non-empty
    // when it is taken — an empty queue costs one lock and no deque.
    if (gate->WriterRelease()) return;
    std::deque<GateOp> q = gate->WriterTakeQueue();
    CPMA_CHECK(!q.empty());
    pending_async_.fetch_sub(static_cast<int64_t>(q.size()),
                             std::memory_order_relaxed);
    for (const GateOp& qop : q) {
      // Queued ops never outlive their admission fences (gate.h (c)).
      CPMA_CHECK_MSG(
          qop.key >= gate->low_fence() && qop.key <= gate->high_fence(),
          "drained batch op outside its gate's fences");
    }
    if (ApplyBatchLocal(snap, gate, &q)) continue;
    // Remainder does not fit inside the gate: back onto the queue —
    // *ahead* of anything that arrived while we processed the batch —
    // and over to the rebalancer.
    gate->OwnerPushFront(std::vector<GateOp>(q.begin(), q.end()));
    pending_async_.fetch_add(static_cast<int64_t>(q.size()),
                             std::memory_order_relaxed);
    const int64_t due = std::max(
        NowMillis(), gate->last_global_rebalance_ms() + cfg_.t_delay_ms);
    rebalancer_->RequestBatch(snap->version, gate->id(), due);
    gate->WriterDetachKeepQueue();
    return;
  }
}

bool ConcurrentPMA::ApplyOpLocal(Structure* snap, Gate* gate, const GateOp& op,
                                 size_t* trigger_seg) {
  // COW snapshots (ISSUE 9): before the first mutation under this hold,
  // hand every open snapshot its frozen image of the chunk.
  PreserveGateForSnapshots(snap, gate);
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();

  if (op.type == GateOp::Type::kRemove) {
    const size_t s = LocateSegment(*snap, *gate, op.key);
    Item* seg = st->segment(s);
    const uint32_t card = st->card(s);
    const size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, op.key);
    if (pos >= card || seg[pos].key != op.key) return true;  // absent
    // All live-item stores below are tagged: the gate version is odd
    // (we hold WRITE), but optimistic readers may race through here and
    // TSan must see the race as atomics (common/tagged.h).
    hotpath::TaggedMoveItems(seg + pos, seg + pos + 1, card - pos - 1);
    st->set_card(s, card - 1);
    count_.fetch_sub(1, std::memory_order_relaxed);
    if (pos == 0 && s > 0) {
      st->set_route(s, card > 1 ? seg[0].key : kKeySentinel);
    }
    MaybeRequestShrink(snap);
    return true;
  }

  size_t s = LocateSegment(*snap, *gate, op.key);
  Item* seg = st->segment(s);
  uint32_t card = st->card(s);
  size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, op.key);
  if (pos < card && seg[pos].key == op.key) {
    TaggedStore(&seg[pos].value, op.value);  // upsert
    return true;
  }
  if (card == B) {
    // Segment full: one local spread over the smallest in-gate calibrator
    // window that keeps a free slot in every segment (m + n <= cap), so
    // the key's segment has room afterwards, wherever it routes.
    DensityBounds bounds(cfg_.pma, st->num_segments());
    const size_t gate_level = Log2Floor(snap->segments_per_gate);
    bool spread_done = false;
    for (size_t level = 1;
         level <= std::min(gate_level, bounds.root_level()); ++level) {
      size_t b, e;
      WindowAt(s, level, &b, &e);
      if (b < gate->seg_begin() || e > gate->seg_end()) break;
      size_t m = 0;
      for (size_t i = b; i < e; ++i) m += st->card(i);
      const size_t cap = (e - b) * B;
      const double delta =
          static_cast<double>(m) / static_cast<double>(cap);
      if (delta <= bounds.Tau(level) && m + (e - b) <= cap) {
        WindowPlan plan = PlanMergedSpread(*st, b, e, m, adaptive_effective());
        MergedCopyToBuffer(st, plan, /*ops=*/{});
        FinishSpread(st, plan);
        stat_local_rebalances_.fetch_add(1, std::memory_order_relaxed);
        spread_done = true;
        break;
      }
    }
    if (!spread_done) {
      *trigger_seg = s;
      return false;  // needs the rebalancer (window exceeds the gate)
    }
    s = LocateSegment(*snap, *gate, op.key);
    seg = st->segment(s);
    card = st->card(s);
    CPMA_CHECK_MSG(card < B, "local spread left the key's segment full");
    pos = hotpath::SegmentLowerBoundForUpdate(seg, card, op.key);
  }
  hotpath::TaggedMoveItems(seg + pos + 1, seg + pos, card - pos);
  hotpath::TaggedStoreItem(seg + pos, Item{op.key, op.value});
  st->set_card(s, card + 1);
  if (pos == 0 && s > 0) st->set_route(s, op.key);
  st->bump_insert_count(s);
  count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ConcurrentPMA::ApplyBatchLocal(Structure* snap, Gate* gate,
                                    std::deque<GateOp>* pending) {
  size_t trigger = 0;
  // Canonicalize first (per key the last op wins) so that the
  // deletions-before-insertions passes below cannot reorder ops on the
  // *same* key — only the cross-key order is relaxed (paper §3.5).
  std::vector<BatchEntry> canon = CanonicalizeBatch(*pending);
  pending->clear();

  // Large batches go straight through one merged gate-window spread
  // (run-length merge, deletions as skipped runs) instead of the
  // op-at-a-time passes below: per-op application shifts ~B/2 items per
  // insert plus its share of local rebalances, while the merged spread
  // touches each window element exactly once — the crossover is when
  // the batch's shift work reaches the window's live size. When the
  // merged total does not fit, fall through: the deletions may free
  // enough room, and whatever remains spills to the rebalancer.
  {
    Storage* st = snap->storage.get();
    const size_t B = st->segment_capacity();
    size_t window_live = 0;
    for (size_t s = gate->seg_begin(); s < gate->seg_end(); ++s) {
      window_live += st->card(s);
    }
    if (!canon.empty() && canon.size() * (B / 2) >= window_live &&
        TryMergedGateSpread(snap, gate, canon)) {
      return true;
    }
  }
  // First pass: all deletions, freeing space for the insertions.
  std::vector<BatchEntry> inserts;
  for (const BatchEntry& e : canon) {
    if (e.is_delete) {
      CPMA_CHECK(ApplyOpLocal(snap, gate,
                              GateOp{GateOp::Type::kRemove, e.key, 0},
                              &trigger));
    } else {
      inserts.push_back(e);
    }
  }
  // Second pass: insertions, individually while they fit inside the
  // gate. The rest spills to the rebalancer: the gate-window spread that
  // ApplyOpLocal just ruled out held at least one element fewer.
  size_t next = 0;
  while (next < inserts.size() &&
         ApplyOpLocal(snap, gate,
                      GateOp{GateOp::Type::kInsert, inserts[next].key,
                             inserts[next].value},
                      &trigger)) {
    ++next;
  }
  if (next == inserts.size()) return true;
  for (size_t i = next; i < inserts.size(); ++i) {
    const BatchEntry& e = inserts[i];
    // Restore the winner's enqueue stamp: the remainder re-enters the
    // queue and must compete against fresh (younger) ops under its
    // original issue order, not a fabricated one.
    pending->push_back(GateOp{GateOp::Type::kInsert, e.key, e.value, e.seq});
  }
  return false;
}

bool ConcurrentPMA::TryMergedGateSpread(Structure* snap, Gate* gate,
                                        const std::vector<BatchEntry>& ops) {
  PreserveGateForSnapshots(snap, gate);  // ISSUE 9: pre-image before mutation
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();
  const size_t b = gate->seg_begin();
  const size_t e = gate->seg_end();
  size_t ins = 0, del = 0;
  const size_t total = CountMerged(*st, b, e, ops, &ins, &del);
  DensityBounds bounds(cfg_.pma, st->num_segments());
  const size_t gate_level = Log2Floor(snap->segments_per_gate);
  const size_t cap = (e - b) * B;
  const double delta =
      static_cast<double>(total) / static_cast<double>(cap);
  if (delta > bounds.Tau(std::min(gate_level, bounds.root_level())) ||
      total + (e - b) > cap) {
    return false;
  }
  WindowPlan plan = PlanMergedSpread(*st, b, e, total, adaptive_effective());
  MergedCopyToBuffer(st, plan, ops);
  FinishSpread(st, plan);
  count_.fetch_add(ins, std::memory_order_relaxed);
  count_.fetch_sub(del, std::memory_order_relaxed);
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  if (del > 0) MaybeRequestShrink(snap);
  return true;
}

size_t ConcurrentPMA::LocateSegment(const Structure& snap, const Gate& gate,
                                    Key key) const {
  // The routing keys double as the gate's first-keys array: route(s) is
  // the first key of a non-empty segment, kKeySentinel for an empty one
  // (compares greater than any valid key, so empties drop out), kKeyMin
  // for global segment 0. The rightmost route <= key is therefore the
  // candidate segment, picked branchlessly/SIMD (hotpath/locate.h)
  // instead of the old early-exit scan over segment(s)[0].key. Only for
  // an empty global segment 0 can this pick an empty segment (its route
  // stays kKeyMin) — then the key precedes every stored key of the gate
  // and inserting at segment 0, position 0 is exactly right. The route
  // loads are tagged for optimistic readers; outside TSan that is the
  // same LocateRoute kernel.
  const Storage& st = *snap.storage;
  const size_t idx =
      hotpath::TaggedLocateRoute(st.routes().data() + gate.seg_begin(),
                                 gate.seg_end() - gate.seg_begin(), key);
  if (idx != hotpath::kNoRoute) return gate.seg_begin() + idx;
  // Key precedes every stored key of the chunk (rare — only next to the
  // low fence): fall back to the first non-empty segment.
  for (size_t s = gate.seg_begin(); s < gate.seg_end(); ++s) {
    if (st.card(s) > 0) return s;
  }
  return gate.seg_begin();
}

void ConcurrentPMA::MaybeRequestShrink(Structure* snap) {
  const size_t cap = snap->storage->capacity();
  if (snap->num_gates() <= 2) return;
  if (static_cast<double>(count_.load(std::memory_order_relaxed)) <
      cfg_.pma.shrink_density * static_cast<double>(cap)) {
    bool expected = false;
    if (snap->resize_requested.compare_exchange_strong(expected, true)) {
      rebalancer_->RequestShrink(snap->version);
    }
  }
}

// ---------------------------------------------------------------- reads
//
// One reader, ReadGateOf, runs the whole reader protocol for Find,
// SumAll and the ScanCursor; each of them is only the body that reads
// the gate (a point search, a gate sum, one segment run). The body runs
// on the live storage with tagged accesses inside a seqlock window.
// After `optimistic_retries_` failed windows and walks (0 = always
// blocking; CPMA_OPTIMISTIC_RETRIES env override) ReadGateOf takes the
// READ latch and runs the same body under it: the latch excludes every
// mutator, so any version check the body makes there passes. Protocol
// and ordering argument: concurrent_pma.h / common/latches.h.

template <typename Read>
ConcurrentPMA::ReadPath ConcurrentPMA::ReadGateOf(Structure* snap,
                                                  size_t* gid, Key key,
                                                  Read&& read) const {
  // One gate toward `key`; false at the array's edge.
  const auto walk = [&](bool left) {
    if (left ? *gid == 0 : *gid + 1 == snap->num_gates()) return false;
    *gid = left ? *gid - 1 : *gid + 1;
    return true;
  };
  for (int attempt = 0; attempt < optimistic_retries_; ++attempt) {
    const Gate& gate = snap->gates[*gid];
    const uint64_t v = gate.version().ReadBegin();
    if (!SeqVersion::Stable(v)) continue;  // mutator active on this gate
    if (gate.invalidated_relaxed()) return ReadPath::kRetired;
    const Key lo = gate.low_fence();
    const Key hi = gate.high_fence();
    if (key < lo || key > hi) {
      // Only a validated version proves [lo, hi] was read untorn; then
      // the neighbour walk is as sound as the latched one. A walk burns
      // an attempt, which bounds fence ping-pong under churn. Untorn
      // fences never put a key outside gate 0 or the last gate, so a
      // validated mismatch there is left to the latch.
      if (!gate.version().Validate(v)) continue;
      if (!walk(key < lo)) break;
      continue;
    }
    if (read(gate, v, hi) && gate.version().Validate(v)) {
      return ReadPath::kOptimistic;  // linearizes at the validation
    }
  }
  stat_read_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  TailEventRing::Global().RecordInstant(TailEvent::kReadFallback);
  for (;;) {
    Gate& gate = snap->gates[*gid];
    const GateAccess a = gate.ReaderAccess(&key);
    if (a == GateAccess::kInvalidated) return ReadPath::kRetired;
    if (a == GateAccess::kOwner) {
      read(gate, gate.version().ReadBegin(), gate.high_fence());
      gate.ReaderRelease();
      return ReadPath::kLatched;
    }
    CPMA_CHECK(walk(a == GateAccess::kTooLow));
  }
}

bool ConcurrentPMA::Find(Key key, Value* value) const {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  EpochGuard guard(gc_);
  for (;;) {
    Structure* snap = structure_.load(std::memory_order_acquire);
    const Storage& st = *snap->storage;
    const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
    Item it{kKeySentinel, 0};
    const auto search = [&](const Gate& gate, uint64_t, Key) {
      const size_t s = LocateSegment(*snap, gate, key);
      const Item* seg = st.segment(s);
      // Clamp a (possibly racing) cardinality so the search never leaves
      // the segment; any stored card is <= B, the min is belt-and-braces.
      const uint32_t card = std::min(st.card(s), B);
      hotpath::PrefetchSegment(seg, card);
      const size_t pos = hotpath::TaggedSegmentLowerBound(seg, card, key);
      it = pos < card ? hotpath::TaggedLoadItem(seg + pos)
                      : Item{kKeySentinel, 0};
      return true;
    };
    // No optimistic-read count: Find's hot path touches no shared
    // counter.
    size_t gid = snap->index->Lookup(key);
    if (ReadGateOf(snap, &gid, key, search) == ReadPath::kRetired) {
      guard.Refresh();
      continue;
    }
    if (it.key != key) return false;
    if (value != nullptr) *value = it.value;
    return true;
  }
}

uint64_t ConcurrentPMA::SumAll() const {
  uint64_t sum = 0;
  uint64_t gate_reads = 0;
  // Resume key: every key below `next` is folded, so restarts and
  // fallbacks resume without re-reading gates that were read.
  Key next = kKeyMin;
  EpochGuard guard(gc_);
  Structure* snap = structure_.load(std::memory_order_acquire);
  size_t gid = 0;
  uint64_t gate_sum = 0;
  Key gate_high = 0;
  const auto sum_gate = [&](const Gate& gate, uint64_t v, Key hi) {
    const Storage& st = *snap->storage;
    const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
    // Only a resume inside the gate (restart or walk) cuts segments.
    const bool cut = next > gate.low_fence();
    uint64_t local = 0;
    for (size_t s = gate.seg_begin(); s < gate.seg_end(); ++s) {
      if (s + 1 < gate.seg_end()) {
        hotpath::PrefetchSegment(
            st.segment(s + 1),
            std::min(st.card(s + 1), hotpath::kPrefetchHeadItems));
      }
      const Item* seg = st.segment(s);
      const uint32_t card = std::min(st.card(s), B);
      uint32_t i = cut ? static_cast<uint32_t>(
                             hotpath::TaggedSegmentLowerBound(seg, card, next))
                       : 0;
      for (; i < card; ++i) local += TaggedLoad(&seg[i].value);
      // Segment granularity: one failed window discards at most one
      // segment's worth of torn accumulation.
      if (!gate.version().Validate(v)) return false;
    }
    gate_sum = local;
    gate_high = hi;
    return true;
  };
  for (;;) {
    const ReadPath r = ReadGateOf(snap, &gid, next, sum_gate);
    if (r == ReadPath::kRetired) {
      guard.Refresh();
      snap = structure_.load(std::memory_order_acquire);
      gid = snap->index->Lookup(next);
      continue;
    }
    gate_reads += r == ReadPath::kOptimistic;
    sum += gate_sum;
    // No key lies above kKeyMax; the last gate's high fence is the
    // sentinel, so this also ends the walk there.
    if (gate_high >= kKeyMax) break;
    next = gate_high + 1;
    ++gid;
  }
  if (gate_reads != 0) AddOptimisticGateReads(gate_reads);
  return sum;
}

ConcurrentPMA::ScanCursor::ScanCursor(const ConcurrentPMA& pma, Key min,
                                      Key max)
    : pma_(pma),
      guard_(pma.gc_),
      max_(max),
      next_(min),
      done_(min > max),
      snap_(pma.structure_.load(std::memory_order_acquire)),
      gid_(snap_->index->Lookup(min)) {}

ConcurrentPMA::ScanCursor::~ScanCursor() {
  if (optimistic_gate_reads_ != 0) {
    pma_.AddOptimisticGateReads(optimistic_gate_reads_);
  }
}

bool ConcurrentPMA::ScanCursor::NextChunk(std::vector<Item>* out) {
  out->clear();
  while (!done_) {
    const Storage& st = *snap_->storage;
    const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
    size_t s = 0;
    uint64_t ver = 0;
    Key high = 0;
    bool resumed = false;
    // One segment run: the keys >= next_ of the first segment of the
    // gate that holds any; s == seg_end when the gate holds none.
    const auto copy_run = [&](const Gate& gate, uint64_t v, Key hi) {
      // The same gate at the same version as the last delivery holds
      // its keys >= next_ from seg_ on: no locate. Walks move gid_, and
      // a neighbour gate can carry the same version number, so the gate
      // is compared too.
      resumed = &gate == resume_gate_ && v == ver_;
      s = resumed ? seg_ : pma_.LocateSegment(*snap_, gate, next_);
      out->clear();
      for (bool cut = !resumed; s < gate.seg_end(); ++s, cut = false) {
        const Item* seg = st.segment(s);
        const uint32_t card = std::min(st.card(s), B);
        if (cut) hotpath::PrefetchSegment(seg, card);
        const uint32_t i0 =
            cut ? static_cast<uint32_t>(
                      hotpath::TaggedSegmentLowerBound(seg, card, next_))
                : 0;
        if (i0 < card) {
          out->resize(card - i0);
          hotpath::TaggedReadItems(out->data(), seg + i0, card - i0);
          if (s + 1 < gate.seg_end()) {
            hotpath::PrefetchSegment(
                st.segment(s + 1),
                std::min(st.card(s + 1), hotpath::kPrefetchHeadItems));
          }
          break;
        }
      }
      ver = v;
      high = hi;
      return true;
    };
    const ReadPath r = pma_.ReadGateOf(snap_, &gid_, next_, copy_run);
    if (r == ReadPath::kRetired) {
      guard_.Refresh();
      snap_ = pma_.structure_.load(std::memory_order_acquire);
      gid_ = snap_->index->Lookup(next_);
      resume_gate_ = nullptr;
      continue;
    }
    // One count per gate visit, not per resumed run.
    if (r == ReadPath::kOptimistic && !resumed) ++optimistic_gate_reads_;
    const Gate& gate = snap_->gates[gid_];
    if (s == gate.seg_end()) {
      // No key of the gate from next_ to its high fence: on to the next
      // gate (the last gate's high fence, the sentinel, exceeds max_).
      resume_gate_ = nullptr;
      if (high >= max_) {
        done_ = true;
      } else {
        next_ = high + 1;
        ++gid_;
      }
      continue;
    }
    const Key last = out->back().key;
    if (last >= max_) {
      done_ = true;
      out->resize(static_cast<size_t>(
          std::upper_bound(out->begin(), out->end(), max_,
                           [](Key k, const Item& it) { return k < it.key; }) -
          out->begin()));
      return !out->empty();
    }
    next_ = last + 1;
    resume_gate_ = &gate;
    seg_ = s + 1;
    ver_ = ver;
    return true;
  }
  return false;
}

void ConcurrentPMA::Scan(Key min, Key max, const ScanCallback& cb) const {
  // Runs land in one buffer per thread, reused across calls, so a scan
  // allocates nothing in steady state. A Scan nested in `cb` finds the
  // buffer moved out and works on a fresh one.
  thread_local std::vector<Item> tls_run;
  std::vector<Item> run = std::move(tls_run);
  {
    ScanCursor cursor(*this, min, max);
    bool more = true;
    while (more && cursor.NextChunk(&run)) {
      for (const Item& it : run) {
        if (!cb(it.key, it.value)) {
          more = false;
          break;
        }
      }
    }
  }
  tls_run = std::move(run);
}

// ------------------------------------------------------------ statistics

void ConcurrentPMA::AddOptimisticGateReads(uint64_t n) const {
  // Each thread keeps one stripe for its lifetime, shared by every PMA.
  static std::atomic<size_t> next_stripe{0};
  thread_local const size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kTallyStripes;
  stat_optimistic_gate_reads_[stripe].n.fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t ConcurrentPMA::num_optimistic_gate_reads() const {
  uint64_t sum = 0;
  for (const TallyStripe& s : stat_optimistic_gate_reads_) {
    sum += s.n.load(std::memory_order_relaxed);
  }
  return sum;
}

// ------------------------------------------------- storage observability

size_t ConcurrentPMA::storage_page_bytes() const {
  return static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// --------------------------------------------- fault tolerance (ISSUE 7)

uint64_t ConcurrentPMA::num_watchdog_trips() const {
  // Out of line: Rebalancer is incomplete in the header.
  return rebalancer_->watchdog_trips();
}

void ConcurrentPMA::ReportError(const Status& status) {
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    last_error_ = status;
  }
  if (error_cb_) error_cb_(status);
}

// ------------------------------------------------------------- lifecycle

void ConcurrentPMA::Flush() {
  for (;;) {
    rebalancer_->Drain();
    if (pending_async_.load(std::memory_order_acquire) == 0 &&
        rebalancer_->Idle()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool ConcurrentPMA::CheckInvariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  Structure* snap = structure_.load(std::memory_order_acquire);
  const Storage& st = *snap->storage;
  const size_t B = st.segment_capacity();
  size_t total = 0;
  Key prev = 0;
  bool have_prev = false;
  for (size_t g = 0; g < snap->num_gates(); ++g) {
    const Gate& gate = snap->gates[g];
    if (g == 0 && gate.low_fence() != kKeyMin) {
      return fail("gate 0 low fence must be kKeyMin");
    }
    if (g + 1 < snap->num_gates()) {
      if (gate.high_fence() != snap->gates[g + 1].low_fence() - 1) {
        return fail("fences not contiguous at gate " + std::to_string(g));
      }
    } else if (gate.high_fence() != kKeySentinel) {
      return fail("last gate high fence must be the sentinel");
    }
    if (snap->index->separator(g) != gate.low_fence()) {
      return fail("index separator mismatch at gate " + std::to_string(g));
    }
    if (gate.writer_active_unsafe() || gate.queue_size_unsafe() != 0) {
      return fail("combining queue not drained at gate " +
                  std::to_string(g));
    }
    for (size_t s = gate.seg_begin(); s < gate.seg_end(); ++s) {
      const uint32_t card = st.card(s);
      if (card > B) return fail("segment cardinality exceeds capacity");
      const Item* seg = st.segment(s);
      for (uint32_t i = 0; i < card; ++i) {
        if (have_prev && seg[i].key <= prev) {
          return fail("keys not strictly increasing at segment " +
                      std::to_string(s));
        }
        if (seg[i].key < gate.low_fence() ||
            seg[i].key > gate.high_fence()) {
          return fail("key outside gate fences at gate " +
                      std::to_string(g));
        }
        prev = seg[i].key;
        have_prev = true;
      }
      if (card > 0 && s != 0 && st.route(s) != seg[0].key) {
        return fail("routing key mismatch at segment " + std::to_string(s));
      }
      total += card;
    }
  }
  if (total != count_.load(std::memory_order_relaxed)) {
    return fail("element count mismatch: stored " + std::to_string(total) +
                " vs counter " + std::to_string(count_.load()));
  }
  return true;
}

}  // namespace cpma
