#include "concurrent/snapshot.h"

#include <algorithm>
#include <cstring>

#include "common/hotpath/search.h"
#include "common/hotpath/tagged.h"
#include "concurrent/concurrent_pma.h"

namespace cpma {

using snapshot_internal::GateSnap;

// ------------------------------------------------------------- capture

std::unique_ptr<PMASnapshot> ConcurrentPMA::Snapshot() const {
  std::unique_ptr<PMASnapshot> s(new PMASnapshot());
  s->pma_ = this;
  // Dedicated epoch slot: the capturing thread's own LocalSlot keeps
  // being entered/exited by its later operations, so the snapshot needs
  // its own pin to hold the Structure across those.
  s->slot_ = gc_.RegisterThread();
  gc_.Enter(s->slot_);
  Structure* snap = structure_.load(std::memory_order_acquire);
  s->snap_ = snap;
  s->struct_version_ = snap->version;
  s->num_gates_ = snap->num_gates();
  s->entries_.reset(new std::atomic<GateSnap*>[s->num_gates_]);
  for (size_t g = 0; g < s->num_gates_; ++g) {
    s->entries_[g].store(nullptr, std::memory_order_relaxed);
  }
  // View creation can fail (anonymous fallback backend, mmap denial,
  // injected fault): the snapshot then runs in all-heap-copy mode —
  // every preservation copies the whole chunk. Degraded, not broken.
  Status view_status;
  s->view_ = snap->storage->CreateSnapshotView(&view_status);
  {
    // The stamp bump is the snapshot's linearization point: a mutator
    // that loaded the old stamp (and so skipped preservation) ordered
    // its mutation before this gate's capture point.
    std::lock_guard<std::mutex> lk(snaps_mu_);
    s->stamp_ = snap_stamp_.load(std::memory_order_relaxed) + 1;
    snap_stamp_.store(s->stamp_, std::memory_order_relaxed);
    open_snaps_.push_back(s.get());
  }
  stat_snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  snapshots_open_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

uint64_t ConcurrentPMA::cow_pages_retained_bytes() const {
  EpochGuard guard(gc_);
  return structure_.load(std::memory_order_acquire)
      ->storage->cow_retained_page_bytes();
}

void ConcurrentPMA::PreserveGateSlow(Structure* snap, Gate* gate) const {
  std::lock_guard<std::mutex> lk(snaps_mu_);
  const uint64_t sv = snap_stamp_.load(std::memory_order_relaxed);
  Storage* st = snap->storage.get();
  const size_t B = st->segment_capacity();
  const size_t sb = gate->seg_begin();
  const size_t se = gate->seg_end();
  const char* base = reinterpret_cast<const char*>(st->segment(0));
  const size_t chunk_off = sb * B * sizeof(Item);
  const size_t chunk_len = (se - sb) * B * sizeof(Item);
  for (PMASnapshot* s : open_snaps_) {
    if (s->snap_ != snap) continue;  // snapshot of a retired structure
    std::atomic<GateSnap*>& slot = s->entries_[gate->id()];
    if (slot.load(std::memory_order_relaxed) != nullptr) continue;
    auto* e = new GateSnap();
    e->low_fence = gate->low_fence();
    e->high_fence = gate->high_fence();
    e->cards.resize(se - sb);
    for (size_t i = 0; i < se - sb; ++i) e->cards[i] = st->card(sb + i);
    // Try the zero-copy freeze first. kStale (the region was re-backed
    // by a rewire since the view was captured) and kUnavailable (alloc
    // or mmap failure mid-freeze) both degrade to one heap copy of the
    // chunk; pages already frozen stay valid for other entries.
    bool frozen = false;
    if (s->view_ != nullptr) {
      frozen = st->CowPreserveItems(*s->view_, sb * B, se * B) ==
               RewiredRegion::CowResult::kFrozen;
    }
    if (frozen) {
      e->from_view = true;
      const size_t ps = st->page_bytes();
      const size_t chunk_end = chunk_off + chunk_len;
      // Partial-page edges are never frozen (they may share pages with
      // neighbouring chunks another gate owns): copy them under this
      // gate's hold. head = [chunk_off, first page boundary), tail =
      // [last page boundary, chunk_end); for a sub-page chunk the head
      // swallows everything and the tail is empty.
      const size_t head_end =
          std::min((chunk_off + ps - 1) / ps * ps, chunk_end);
      const size_t tail_beg = std::max(chunk_end / ps * ps, head_end);
      e->head.assign(base + chunk_off, base + head_end);
      e->tail.assign(base + tail_beg, base + chunk_end);
    } else {
      e->full.assign(base + chunk_off, base + chunk_off + chunk_len);
    }
    s->retained_bytes_.fetch_add(e->bytes(), std::memory_order_relaxed);
    slot.store(e, std::memory_order_release);
  }
  // All open snapshots of this structure now hold this gate; mutators
  // skip the slow path until the next Snapshot() bumps the stamp.
  // (Snapshots of retired structures need no entry: a retired storage
  // never mutates again, so their live reads stay frozen.)
  gate->set_cow_stamp(sv);
}

// -------------------------------------------------------------- readers

PMASnapshot::~PMASnapshot() {
  {
    std::lock_guard<std::mutex> lk(pma_->snaps_mu_);
    auto& v = pma_->open_snaps_;
    v.erase(std::find(v.begin(), v.end(), this));
  }
  // Close the view while the epoch pin still holds the region alive;
  // superseded pages it pinned are hole-punched and recycled here.
  view_.reset();
  // The heap entries go through the byte-accounted limbo lists like any
  // other retired structure — a parked reader pinning a large snapshot
  // trips the bytes watermark, not the count one.
  GateSnap** entries = new GateSnap*[num_gates_];
  for (size_t g = 0; g < num_gates_; ++g) {
    entries[g] = entries_[g].load(std::memory_order_relaxed);
  }
  const size_t n = num_gates_;
  pma_->gc_.Retire(
      [entries, n] {
        for (size_t g = 0; g < n; ++g) delete entries[g];
        delete[] entries;
      },
      retained_bytes_.load(std::memory_order_relaxed));
  entries_.reset();
  pma_->gc_.Exit(slot_);
  pma_->gc_.UnregisterThread(slot_);
  pma_->snapshots_open_.fetch_sub(1, std::memory_order_relaxed);
}

void PMASnapshot::MaterializeFromEntry(const GateSnap& e, size_t g,
                                       std::vector<char>* scratch,
                                       std::vector<uint32_t>* cards,
                                       Key* low, Key* high) const {
  const Gate& gate = snap_->gates[g];
  const Storage& st = *snap_->storage;
  const size_t B = st.segment_capacity();
  const size_t chunk_off = gate.seg_begin() * B * sizeof(Item);
  const size_t chunk_len =
      (gate.seg_end() - gate.seg_begin()) * B * sizeof(Item);
  scratch->resize(chunk_len);
  if (e.from_view) {
    // Frozen interior straight from the COW view; edge fragments from
    // the heap. Only the interior bytes are read from the view — the
    // edge pages are shared with the live region and still mutate.
    const size_t mid = chunk_len - e.head.size() - e.tail.size();
    std::memcpy(scratch->data() + e.head.size(),
                view_->data() + chunk_off + e.head.size(), mid);
    // Page-aligned gates have empty fragments; vector::data() may be
    // null then, which memcpy's nonnull contract forbids even for n=0.
    if (!e.head.empty()) {
      std::memcpy(scratch->data(), e.head.data(), e.head.size());
    }
    if (!e.tail.empty()) {
      std::memcpy(scratch->data() + chunk_len - e.tail.size(), e.tail.data(),
                  e.tail.size());
    }
  } else {
    std::memcpy(scratch->data(), e.full.data(), chunk_len);
  }
  *cards = e.cards;
  *low = e.low_fence;
  *high = e.high_fence;
}

void PMASnapshot::MaterializeGate(size_t g, std::vector<char>* scratch,
                                  std::vector<uint32_t>* cards, Key* low,
                                  Key* high) const {
  const GateSnap* e = entries_[g].load(std::memory_order_acquire);
  if (e == nullptr) {
    // Entry absent => no post-snapshot mutation has committed on this
    // gate, so the live chunk IS the frozen image. Copy it in a
    // validated seqlock window, at most the PMA's optimistic retry
    // budget times, else under the blocking READ latch; a retired
    // Structure (a resize merged *out* of it) never mutates again, so
    // there a plain copy is the frozen image — no restart, ever. This is
    // not ConcurrentPMA::ReadGateOf: it reads gate g by index with no
    // fence walk. Whichever way it copied, the entry slot is re-checked
    // afterwards: a writer that preserved + mutated entirely inside our
    // window wins with its pre-image.
    Gate& gate = snap_->gates[g];
    const Storage& st = *snap_->storage;
    const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
    const size_t sb = gate.seg_begin();
    const size_t se = gate.seg_end();
    scratch->resize((se - sb) * B * sizeof(Item));
    cards->resize(se - sb);
    Item* items = reinterpret_cast<Item*>(scratch->data());
    const auto copy_live = [&] {
      *low = gate.low_fence();
      *high = gate.high_fence();
      for (size_t s = sb; s < se; ++s) {
        const uint32_t card = std::min(st.card(s), B);
        (*cards)[s - sb] = card;
        hotpath::TaggedReadItems(items + (s - sb) * B, st.segment(s), card);
      }
    };
    bool copied = false;
    for (int attempt = 0; attempt < pma_->optimistic_retries() && !copied;
         ++attempt) {
      const uint64_t v = gate.version().ReadBegin();
      if (!SeqVersion::Stable(v)) continue;
      copy_live();
      copied = gate.version().Validate(v);
    }
    if (!copied) {
      const bool latched = gate.ReaderAccess(nullptr) == GateAccess::kOwner;
      copy_live();
      if (latched) {
        gate.ReaderRelease();
        latched_gate_reads_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    e = entries_[g].load(std::memory_order_acquire);
    if (e == nullptr) return;
  }
  MaterializeFromEntry(*e, g, scratch, cards, low, high);
}

uint64_t PMASnapshot::SumAll() const {
  uint64_t sum = 0;
  std::vector<char> scratch;
  std::vector<uint32_t> cards;
  Key low, high;
  const size_t B = snap_->storage->segment_capacity();
  for (size_t g = 0; g < num_gates_; ++g) {
    MaterializeGate(g, &scratch, &cards, &low, &high);
    const Item* items = reinterpret_cast<const Item*>(scratch.data());
    for (size_t s = 0; s < cards.size(); ++s) {
      for (uint32_t i = 0; i < cards[s]; ++i) {
        sum += items[s * B + i].value;
      }
    }
  }
  return sum;
}

uint64_t PMASnapshot::CountItems() const {
  uint64_t n = 0;
  std::vector<char> scratch;
  std::vector<uint32_t> cards;
  Key low, high;
  for (size_t g = 0; g < num_gates_; ++g) {
    MaterializeGate(g, &scratch, &cards, &low, &high);
    for (uint32_t c : cards) n += c;
  }
  return n;
}

void PMASnapshot::Scan(Key min, Key max,
                       const ScanCallback& cb) const {
  if (min > max) return;
  std::vector<char> scratch;
  std::vector<uint32_t> cards;
  Key low, high;
  const size_t B = snap_->storage->segment_capacity();
  // Seek to min's gate as Find does: the live index is only a hint, the
  // frozen fences of the cut decide.
  size_t g = std::min(snap_->index->Lookup(min), num_gates_ - 1);
  MaterializeGate(g, &scratch, &cards, &low, &high);
  for (size_t steps = 0; steps < num_gates_; ++steps) {
    if (min < low && g > 0) {
      --g;
    } else if (min > high && g + 1 < num_gates_) {
      ++g;
    } else {
      break;
    }
    MaterializeGate(g, &scratch, &cards, &low, &high);
  }
  for (;;) {
    const Item* items = reinterpret_cast<const Item*>(scratch.data());
    const bool cut = min > low;  // only min's own gate holds keys < min
    for (size_t s = 0; s < cards.size(); ++s) {
      const Item* seg = items + s * B;
      const uint32_t card = cards[s];
      uint32_t i = cut ? static_cast<uint32_t>(
                             hotpath::SegmentLowerBound(seg, card, min))
                       : 0;
      for (; i < card; ++i) {
        if (seg[i].key > max) return;
        if (!cb(seg[i].key, seg[i].value)) return;
      }
    }
    if (high >= max || ++g >= num_gates_) return;
    MaterializeGate(g, &scratch, &cards, &low, &high);
  }
}

bool PMASnapshot::Find(Key key, Value* value) const {
  // The live index is only a hint (its separators keep moving with
  // rebalances); the frozen fences of the cut form a proper partition,
  // so walking by them converges on the owning gate.
  std::vector<char> scratch;
  std::vector<uint32_t> cards;
  Key low, high;
  const size_t B = snap_->storage->segment_capacity();
  size_t g = std::min(snap_->index->Lookup(key), num_gates_ - 1);
  for (size_t steps = 0; steps <= num_gates_; ++steps) {
    MaterializeGate(g, &scratch, &cards, &low, &high);
    if (key < low) {
      if (g == 0) return false;
      --g;
      continue;
    }
    if (key > high) {
      if (g + 1 >= num_gates_) return false;
      ++g;
      continue;
    }
    const Item* items = reinterpret_cast<const Item*>(scratch.data());
    for (size_t s = 0; s < cards.size(); ++s) {
      const Item* seg = items + s * B;
      const uint32_t card = cards[s];
      if (card == 0 || seg[0].key > key || seg[card - 1].key < key) {
        continue;
      }
      const size_t pos = hotpath::SegmentLowerBound(seg, card, key);
      if (pos < card && seg[pos].key == key) {
        if (value != nullptr) *value = seg[pos].value;
        return true;
      }
      return false;
    }
    return false;
  }
  CPMA_CHECK_MSG(false, "snapshot fence walk did not converge");
  return false;
}

}  // namespace cpma
