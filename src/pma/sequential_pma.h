// Sequential Packed Memory Array — the Rewired Memory Array variant
// (De Leo & Boncz, ICDE'19 [9]) the paper's concurrent design extends:
// fixed-capacity segments, implicit calibrator tree with interpolated
// density thresholds, traditional + adaptive rebalancing, spreads
// published by copy (or by memory rewiring, PmaConfig::use_rewiring),
// and doubling/halving resizes.
//
// Not thread-safe; ConcurrentPMA (src/concurrent) adds the paper's
// gates / static index / rebalancer layers on top of the same storage,
// spread and density code.

#pragma once

#include <memory>
#include <string>

#include "common/ordered_map.h"
#include "pma/config.h"
#include "pma/density.h"
#include "pma/storage.h"

namespace cpma {

class SequentialPMA : public OrderedMap {
 public:
  explicit SequentialPMA(const PmaConfig& config = PmaConfig());
  ~SequentialPMA() override = default;

  void Insert(Key key, Value value) override;
  void Remove(Key key) override;
  bool Find(Key key, Value* value) const override;
  uint64_t SumAll() const override;
  void Scan(Key min, Key max, const ScanCallback& cb) const override;
  size_t Size() const override { return count_; }
  std::string Name() const override { return "SequentialPMA"; }

  // --- Introspection (tests, examples, benchmarks) ---

  size_t num_segments() const { return storage_->num_segments(); }
  size_t capacity() const { return storage_->capacity(); }
  const Storage& storage() const { return *storage_; }
  const PmaConfig& config() const { return config_; }

  uint64_t num_rebalances() const { return num_rebalances_; }
  uint64_t num_resizes() const { return num_resizes_; }

  /// Verify all structural invariants (sortedness, routing, cardinality
  /// accounting, suffix-empties). Returns false and fills *error on
  /// violation. O(N); test-only.
  bool CheckInvariants(std::string* error) const;

  /// Render the calibrator tree with per-window densities and thresholds
  /// (Figure 1 of the paper).
  std::string DebugDumpCalibratorTree() const;

 private:
  /// Rebalance so that segment `seg` gains at least one free slot; may
  /// resize. Postcondition: the segment routing `key` has room.
  void RebalanceForInsert(size_t seg);

  /// Rebalance after a deletion left `seg` empty (or, with strict lower
  /// thresholds, under-full); may shrink the array.
  void RebalanceForDelete(size_t seg);

  void Resize(size_t new_num_segments);

  /// Smallest power-of-two segment count (>= 2) with density <= 0.6.
  size_t SegmentsForCount(size_t count) const;

  PmaConfig config_;
  std::unique_ptr<Storage> storage_;
  size_t count_ = 0;
  uint64_t num_rebalances_ = 0;
  uint64_t num_resizes_ = 0;
};

}  // namespace cpma
