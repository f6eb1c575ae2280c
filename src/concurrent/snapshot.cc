#include "concurrent/snapshot.h"

#include <algorithm>

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
  std::lock_guard<std::mutex> lk(snaps_mu_);
  uint64_t bytes = 0;
  for (const PMASnapshot* s : open_snaps_) bytes += s->retained_bytes();
  return bytes;
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
    e->full.assign(base + chunk_off, base + chunk_off + chunk_len);
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
  // Deregistered: PreserveGateSlow no longer reaches the pre-images, and
  // no reader of this snapshot runs any more, so they go now.
  for (size_t g = 0; g < num_gates_; ++g) {
    delete entries_[g].load(std::memory_order_relaxed);
  }
  pma_->gc_.Exit(slot_);
  pma_->gc_.UnregisterThread(slot_);
  pma_->snapshots_open_.fetch_sub(1, std::memory_order_relaxed);
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
  *scratch = e->full;
  *cards = e->cards;
  *low = e->low_fence;
  *high = e->high_fence;
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
