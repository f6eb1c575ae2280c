#include "baselines/bwtree/bwtree.h"

#include <algorithm>

#include "common/status.h"

namespace cpma {

// Chain layout: mapping_[id] points at either a Base or a Delta; each
// Delta points at the next element. The first byte discriminates.
struct BwTree::NodeHeader {
  enum class Kind : uint8_t { kBase, kInsertDelta, kDeleteDelta };
  Kind kind;
};

struct BwTree::Base : BwTree::NodeHeader {
  Base() { kind = Kind::kBase; }
  std::vector<Item> items;  // sorted
  Key low = kKeyMin;
  Key high = kKeySentinel;          // exclusive (sentinel = +inf)
  uint64_t right_id = UINT64_MAX;   // sibling for scans
};

struct BwTree::Delta : BwTree::NodeHeader {
  Item item;
  const void* next = nullptr;
  uint32_t depth = 0;  // chain length below (incl. this)
};

namespace {
constexpr size_t kMappingSlots = 1 << 20;
}  // namespace

void BwTree::FreeChain(void* head) {
  const void* c = head;
  while (static_cast<const NodeHeader*>(c)->kind != NodeHeader::Kind::kBase) {
    const auto* d = static_cast<const Delta*>(c);
    c = d->next;
    delete d;
  }
  delete static_cast<const Base*>(c);
}

size_t BwTree::ChainBytes(const void* head) {
  size_t bytes = 0;
  const void* c = head;
  while (static_cast<const NodeHeader*>(c)->kind != NodeHeader::Kind::kBase) {
    bytes += sizeof(Delta);
    c = static_cast<const Delta*>(c)->next;
  }
  const auto* base = static_cast<const Base*>(c);
  return bytes + sizeof(Base) + base->items.capacity() * sizeof(Item);
}

BwTree::BwTree() : mapping_(kMappingSlots) {
  auto* base = new Base();
  const uint64_t id = next_node_id_.fetch_add(1);
  mapping_[id].store(base, std::memory_order_release);
  routing_[kKeyMin] = id;
}

BwTree::~BwTree() {
  // Free all live chains; retired ones are freed by the GC destructor.
  const uint64_t n = next_node_id_.load();
  for (uint64_t id = 0; id < n; ++id) {
    const void* head = mapping_[id].load(std::memory_order_acquire);
    while (head != nullptr) {
      const auto* h = static_cast<const NodeHeader*>(head);
      if (h->kind == NodeHeader::Kind::kBase) {
        delete static_cast<const Base*>(head);
        break;
      }
      const auto* d = static_cast<const Delta*>(head);
      head = d->next;
      delete d;
    }
  }
}

uint64_t BwTree::RouteTo(Key key) const {
  std::shared_lock<FairSharedMutex> lk(routing_mu_);
  auto it = routing_.upper_bound(key);
  CPMA_CHECK(it != routing_.begin());
  --it;
  return it->second;
}

bool BwTree::TryPrepend(uint64_t node_id, const void* validated_head,
                        Delta* delta) {
  // CAS against the SAME head the caller fence-validated. Re-loading
  // here used to open a lost-update window: a split could replace the
  // node between the caller's fence check and the prepend, landing the
  // delta on a node whose fences no longer cover its key — a stray
  // delete delta on the stale lower node then merges away silently at
  // the next consolidation (its key now lives in the upper node), which
  // was the intermittent wrong-value/lost-delete in
  // OrderedMapConformance.ConcurrentDisjointWritersWithScans.
  delta->next = validated_head;
  const auto* h = static_cast<const NodeHeader*>(validated_head);
  delta->depth = h->kind == NodeHeader::Kind::kBase
                     ? 1
                     : static_cast<const Delta*>(validated_head)->depth + 1;
  void* expected = const_cast<void*>(validated_head);
  return mapping_[node_id].compare_exchange_strong(
      expected, delta, std::memory_order_acq_rel);
}

void BwTree::Materialize(const void* head, std::vector<Item>* out) {
  // Collect deltas newest-first; the first op per key wins, then the
  // base fills in the rest.
  std::vector<std::pair<Item, bool>> ops;  // (item, is_delete)
  const void* cur = head;
  while (static_cast<const NodeHeader*>(cur)->kind !=
         NodeHeader::Kind::kBase) {
    const auto* d = static_cast<const Delta*>(cur);
    ops.emplace_back(d->item,
                     d->kind == NodeHeader::Kind::kDeleteDelta);
    cur = d->next;
  }
  const auto* base = static_cast<const Base*>(cur);
  // Newest-first: keep only the first occurrence of each key.
  std::stable_sort(ops.begin(), ops.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.key < b.first.key;
                   });
  std::vector<std::pair<Item, bool>> dedup;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == 0 || ops[i].first.key != ops[i - 1].first.key) {
      dedup.push_back(ops[i]);
    }
  }
  // Merge with the base.
  out->clear();
  out->reserve(base->items.size() + dedup.size());
  size_t bi = 0, oi = 0;
  while (bi < base->items.size() || oi < dedup.size()) {
    if (oi >= dedup.size() || (bi < base->items.size() &&
                               base->items[bi].key < dedup[oi].first.key)) {
      out->push_back(base->items[bi++]);
      continue;
    }
    const bool same = bi < base->items.size() &&
                      base->items[bi].key == dedup[oi].first.key;
    if (same) ++bi;
    if (!dedup[oi].second) out->push_back(dedup[oi].first);  // upsert
    ++oi;
  }
}

bool BwTree::ChainLookup(const void* head, Key key, Value* value,
                         bool* found) {
  const void* cur = head;
  while (static_cast<const NodeHeader*>(cur)->kind !=
         NodeHeader::Kind::kBase) {
    const auto* d = static_cast<const Delta*>(cur);
    if (d->item.key == key) {
      // Newest delta for this key decides.
      *found = d->kind == NodeHeader::Kind::kInsertDelta;
      if (*found && value != nullptr) *value = d->item.value;
      return true;
    }
    cur = d->next;
  }
  const auto* base = static_cast<const Base*>(cur);
  auto it = std::lower_bound(
      base->items.begin(), base->items.end(), key,
      [](const Item& a, Key k) { return a.key < k; });
  *found = it != base->items.end() && it->key == key;
  if (*found && value != nullptr) *value = it->value;
  return true;
}

void BwTree::Insert(Key key, Value value) {
  EpochGuard guard(gc_);
  for (;;) {
    const uint64_t id = RouteTo(key);
    const void* head = mapping_[id].load(std::memory_order_acquire);
    // Validate fences: walk to the base for [low, high).
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    const auto* base = static_cast<const Base*>(cur);
    if (key < base->low ||
        (base->high != kKeySentinel && key >= base->high)) {
      continue;  // raced with a split; re-route
    }
    auto* delta = new Delta();
    delta->kind = NodeHeader::Kind::kInsertDelta;
    delta->item = {key, value};
    if (!TryPrepend(id, head, delta)) {
      delete delta;
      continue;
    }
    // The CAS is the linearization point: presence at that instant is
    // decided by the chain below our delta.
    bool existed = false;
    ChainLookup(delta->next, key, nullptr, &existed);
    if (!existed) count_.fetch_add(1, std::memory_order_relaxed);
    MaybeConsolidate(id);
    return;
  }
}

void BwTree::Remove(Key key) {
  EpochGuard guard(gc_);
  for (;;) {
    const uint64_t id = RouteTo(key);
    const void* head = mapping_[id].load(std::memory_order_acquire);
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    const auto* base = static_cast<const Base*>(cur);
    if (key < base->low ||
        (base->high != kKeySentinel && key >= base->high)) {
      continue;
    }
    auto* delta = new Delta();
    delta->kind = NodeHeader::Kind::kDeleteDelta;
    delta->item = {key, 0};
    if (!TryPrepend(id, head, delta)) {
      delete delta;
      continue;
    }
    bool existed = false;
    ChainLookup(delta->next, key, nullptr, &existed);
    if (existed) count_.fetch_sub(1, std::memory_order_relaxed);
    MaybeConsolidate(id);
    return;
  }
}

bool BwTree::Find(Key key, Value* value) const {
  EpochGuard guard(gc_);
  for (;;) {
    const uint64_t id = RouteTo(key);
    const void* head = mapping_[id].load(std::memory_order_acquire);
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    const auto* base = static_cast<const Base*>(cur);
    if (key < base->low ||
        (base->high != kKeySentinel && key >= base->high)) {
      continue;
    }
    bool found = false;
    ChainLookup(head, key, value, &found);
    return found;
  }
}

void BwTree::MaybeConsolidate(uint64_t node_id) {
  // Retry a few times: under contention the CAS below races with
  // concurrent delta prepends; without retries a hot node's chain can
  // grow without bound (every consolidation loses).
  for (int attempt = 0; attempt < 4; ++attempt) {
    void* head = mapping_[node_id].load(std::memory_order_acquire);
    const auto* h = static_cast<const NodeHeader*>(head);
    if (h->kind == NodeHeader::Kind::kBase) return;
    if (static_cast<const Delta*>(head)->depth < kMaxChain) return;
    if (ConsolidateOnce(node_id, head)) return;
  }
}

bool BwTree::ConsolidateOnce(uint64_t node_id, void* head) {
  std::vector<Item> merged;
  Materialize(head, &merged);
  const void* cur = head;
  while (static_cast<const NodeHeader*>(cur)->kind !=
         NodeHeader::Kind::kBase) {
    cur = static_cast<const Delta*>(cur)->next;
  }
  const auto* old_base = static_cast<const Base*>(cur);

  if (merged.size() > kMaxEntries) {
    Split(node_id);
    return true;
  }
  auto* fresh = new Base();
  fresh->items = std::move(merged);
  fresh->low = old_base->low;
  fresh->high = old_base->high;
  fresh->right_id = old_base->right_id;
  if (mapping_[node_id].compare_exchange_strong(
          head, fresh, std::memory_order_acq_rel)) {
    stat_consolidations_.fetch_add(1, std::memory_order_relaxed);
    gc_.Retire(&BwTree::FreeChain, head, ChainBytes(head));
    return true;
  }
  delete fresh;  // someone else prepended or consolidated first
  return false;
}

void BwTree::Split(uint64_t node_id) {
  std::lock_guard<std::mutex> smo(smo_mu_);
  // Re-materialize under the SMO lock (the chain may have grown), and
  // take the fences and the sibling from this head's base, never from a
  // read made before the lock: another split of the same node may have
  // run in between, and splitting on its stale `high` / `right_id` would
  // link the new upper node past that split's upper node, dropping it
  // from the leaf chain while it stays routed.
  void* head = mapping_[node_id].load(std::memory_order_acquire);
  std::vector<Item> merged;
  Materialize(head, &merged);
  if (merged.size() <= kMaxEntries) return;  // already handled
  const void* cur = head;
  while (static_cast<const NodeHeader*>(cur)->kind !=
         NodeHeader::Kind::kBase) {
    cur = static_cast<const Delta*>(cur)->next;
  }
  const auto* old_base = static_cast<const Base*>(cur);

  const size_t half = merged.size() / 2;
  auto* upper = new Base();
  upper->items.assign(merged.begin() + static_cast<long>(half),
                      merged.end());
  upper->low = upper->items[0].key;
  upper->high = old_base->high;
  upper->right_id = old_base->right_id;
  const uint64_t upper_id = next_node_id_.fetch_add(1);
  CPMA_CHECK_MSG(upper_id < kMappingSlots, "mapping table exhausted");
  mapping_[upper_id].store(upper, std::memory_order_release);

  auto* lower = new Base();
  lower->items.assign(merged.begin(), merged.begin() + static_cast<long>(half));
  lower->low = old_base->low;
  lower->high = upper->low;
  lower->right_id = upper_id;

  if (!mapping_[node_id].compare_exchange_strong(
          head, lower, std::memory_order_acq_rel)) {
    // A delta slipped in after materialization: give up this round; the
    // next consolidation retries the split.
    delete lower;
    mapping_[upper_id].store(nullptr, std::memory_order_release);
    delete upper;
    return;
  }
  {
    std::unique_lock<FairSharedMutex> lk(routing_mu_);
    routing_[upper->low] = upper_id;
  }
  stat_consolidations_.fetch_add(1, std::memory_order_relaxed);
  gc_.Retire(&BwTree::FreeChain, head, ChainBytes(head));
}

uint64_t BwTree::SumAll() const {
  EpochGuard guard(gc_);
  uint64_t sum = 0;
  // Start at the leftmost node and follow right siblings, replaying each
  // chain (the Bw-tree scan penalty).
  uint64_t id;
  {
    std::shared_lock<FairSharedMutex> lk(routing_mu_);
    id = routing_.begin()->second;
  }
  std::vector<Item> merged;
  while (id != UINT64_MAX) {
    const void* head = mapping_[id].load(std::memory_order_acquire);
    if (head == nullptr) break;  // aborted split leftover
    Materialize(head, &merged);
    for (const Item& it : merged) sum += it.value;
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    id = static_cast<const Base*>(cur)->right_id;
  }
  return sum;
}

void BwTree::Scan(Key min, Key max, const ScanCallback& cb) const {
  if (min > max) return;
  EpochGuard guard(gc_);
  uint64_t id = RouteTo(min);
  std::vector<Item> merged;
  while (id != UINT64_MAX) {
    const void* head = mapping_[id].load(std::memory_order_acquire);
    if (head == nullptr) break;
    Materialize(head, &merged);
    for (const Item& it : merged) {
      if (it.key < min) continue;
      if (it.key > max || !cb(it.key, it.value)) return;
    }
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    id = static_cast<const Base*>(cur)->right_id;
  }
}

bool BwTree::CheckInvariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  EpochGuard guard(gc_);
  uint64_t id;
  {
    std::shared_lock<FairSharedMutex> lk(routing_mu_);
    id = routing_.begin()->second;
  }
  size_t total = 0;
  Key prev = 0;
  bool have_prev = false;
  std::vector<Item> merged;
  while (id != UINT64_MAX) {
    const void* head = mapping_[id].load(std::memory_order_acquire);
    if (head == nullptr) break;
    Materialize(head, &merged);
    const void* cur = head;
    while (static_cast<const NodeHeader*>(cur)->kind !=
           NodeHeader::Kind::kBase) {
      cur = static_cast<const Delta*>(cur)->next;
    }
    const auto* base = static_cast<const Base*>(cur);
    for (const Item& it : merged) {
      if (it.key < base->low) return fail("item below node low fence");
      if (base->high != kKeySentinel && it.key >= base->high) {
        return fail("item above node high fence");
      }
      if (have_prev && it.key <= prev) {
        return fail("keys not strictly increasing across nodes");
      }
      prev = it.key;
      have_prev = true;
      ++total;
    }
    id = base->right_id;
  }
  if (total != count_.load()) return fail("element count mismatch");
  return true;
}

}  // namespace cpma
