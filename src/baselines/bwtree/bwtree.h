// Bw-tree-style baseline (Levandoski et al., ICDE'13; OpenBw-Tree,
// SIGMOD'18), §4 competitor. The performance-defining traits are kept:
//
//   * a mapping table of node ids -> node pointers; updates never modify
//     a node in place but CAS-prepend *delta records* (insert / delete)
//     onto the chain — writers are latch-free;
//   * readers replay the delta chain before consulting the consolidated
//     base node — which is exactly what makes scans expensive;
//   * chains are consolidated into fresh base nodes once they exceed a
//     threshold; replaced chains are reclaimed through epoch-based GC,
//     collected inline by the writer whose retirement crosses a
//     watermark (no collector thread; the rest is freed at destruction).
//
// Simplification (documented in DESIGN.md): routing from keys to node
// ids uses a read-mostly std::map under a shared mutex, and structure
// modifications (splits) are serialized — the OpenBw-tree's help-along
// split protocol is notoriously intricate and does not affect the
// read/update trade-off the paper measures; record updates stay CAS-only.

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/epoch_gc.h"
#include "common/latches.h"
#include "common/ordered_map.h"
#include "pma/item.h"

namespace cpma {

class BwTree : public OrderedMap {
 public:
  BwTree();
  ~BwTree() override;

  void Insert(Key key, Value value) override;
  void Remove(Key key) override;
  bool Find(Key key, Value* value) const override;
  uint64_t SumAll() const override;
  void Scan(Key min, Key max, const ScanCallback& cb) const override;
  size_t Size() const override {
    return count_.load(std::memory_order_relaxed);
  }
  std::string Name() const override { return "BwTree"; }

  bool CheckInvariants(std::string* error) const;

  uint64_t num_consolidations() const {
    return stat_consolidations_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeHeader;
  struct Base;
  struct Delta;

  static constexpr size_t kMaxEntries = 256;  // split threshold
  static constexpr size_t kMaxChain = 8;      // consolidation threshold

  /// Free a retired delta chain (deltas, then the base). Matches
  /// EpochGC's raw free-function overload so chain retirement allocates
  /// one intrusive garbage node and no std::function.
  static void FreeChain(void* head);
  /// Approximate heap footprint of a chain for the bytes watermark.
  static size_t ChainBytes(const void* head);

  /// Node id owning `key` (via the routing map).
  uint64_t RouteTo(Key key) const;

  /// CAS `delta` onto the chain, against the head the caller already
  /// fence-validated (never a fresh re-load: see the comment in the
  /// implementation for the split race that allows).
  bool TryPrepend(uint64_t node_id, const void* validated_head,
                  Delta* delta);

  /// Merge base + deltas into a sorted vector (replay).
  static void Materialize(const void* head, std::vector<Item>* out);

  /// Whether `key` is present in the chain starting at `head`.
  static bool ChainLookup(const void* head, Key key, Value* value,
                          bool* found);

  void MaybeConsolidate(uint64_t node_id);
  /// One consolidation attempt from `head`; true when the chain was
  /// replaced (or a split handled it).
  bool ConsolidateOnce(uint64_t node_id, void* head);
  /// Split the node in two under `smo_mu_`, from its current head.
  void Split(uint64_t node_id);

  mutable EpochGC gc_;
  mutable FairSharedMutex routing_mu_;
  std::map<Key, uint64_t> routing_;  // low fence -> node id
  std::mutex smo_mu_;                // serializes splits

  std::vector<std::atomic<void*>> mapping_;
  std::atomic<uint64_t> next_node_id_{0};
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> stat_consolidations_{0};
};

}  // namespace cpma
