// Element redistribution ("spread") for rebalances — the sequential
// algorithm of the paper, factored so that the concurrent rebalancer can
// run it partitioned across worker threads:
//
//   1. One target planner decides how many elements every segment of
//      the window receives (traditional: even split; adaptive: gaps
//      follow the insertion predictor, paper §2 "Adaptive rebalancing").
//      Plain spreads, merged spreads and resizes all use it.
//   2. CopyPartitionToBuffer streams the window's live elements, in
//      order, into the *buffer* pages of an output sub-range. Input is
//      only read, output goes to the buffer, so any number of partitions
//      can run concurrently over the same window.
//   3. Storage::SwapWindow publishes the buffer (one copy by default,
//      or page rewiring when opted in), after which the caller installs
//      the new cardinalities and routing keys (FinishSpread).

#pragma once

#include <cstdint>
#include <vector>

#include "pma/storage.h"

namespace cpma {

struct WindowPlan {
  size_t seg_begin = 0;
  size_t seg_end = 0;                // exclusive
  size_t total = 0;                  // live elements in the window
  std::vector<uint32_t> input_card;  // snapshot of card per window segment
  std::vector<uint32_t> target_card; // decided by the target planner
};

/// Build the plan for spreading [seg_begin, seg_end).
/// `adaptive` selects predictor-weighted gap allocation; `trigger_seg`
/// (absolute index, or SIZE_MAX for none) is guaranteed at least one free
/// slot after the spread so a pending insertion always succeeds.
WindowPlan PlanSpread(const Storage& st, size_t seg_begin, size_t seg_end,
                      bool adaptive, size_t trigger_seg);

/// Copy the elements destined for output segments [out_begin, out_end)
/// (absolute indices within the plan's window) into the storage buffer.
/// Thread-safe w.r.t. other partitions of the same plan.
void CopyPartitionToBuffer(Storage* st, const WindowPlan& plan,
                           size_t out_begin, size_t out_end);

/// Publish buffer + install cardinalities, routing keys and decayed
/// insert counters for the whole window. Single-threaded; call after all
/// partitions copied. `swap` false means the caller already swapped each
/// partition itself (parallel rebalancer path).
void FinishSpread(Storage* st, const WindowPlan& plan, bool swap = true);

// ------------------------------------------------------------------------
// Merged spreads: batch processing (paper §3.5) folds a sorted batch of
// updates into the window *during* the rebalance, skipping the per-update
// small rebalances entirely.

// BatchEntry (one canonical update: sorted by key, unique keys,
// deletions and upserts mixed) lives in pma/item.h so the hot-path merge
// kernels can consume batches too.

/// Element count of window [seg_begin, seg_end) after merging `ops`.
/// Also reports how many ops insert a new key / delete an existing one
/// (for the global element counter).
size_t CountMerged(const Storage& st, size_t seg_begin, size_t seg_end,
                   const std::vector<BatchEntry>& ops, size_t* inserted_new,
                   size_t* deleted_found);

/// Build a plan whose total is the merged count. `adaptive` selects the
/// same predictor-weighted targets as PlanSpread: the sync and
/// one-by-one modes hand a writer's op to the rebalancer inside its
/// gate's queue, so nearly every global window of theirs is a merged
/// spread, and an even split there re-triggers right-edge windows ever
/// more often. Batch mode keeps the even split (the default). No
/// trigger slot is reserved: the ops are already merged in.
WindowPlan PlanMergedSpread(const Storage& st, size_t seg_begin,
                            size_t seg_end, size_t merged_total,
                            bool adaptive = false);

/// Stream merge(window, ops) into the storage buffer following the
/// plan's targets. Single-threaded; publish with FinishSpread.
void MergedCopyToBuffer(Storage* st, const WindowPlan& plan,
                        const std::vector<BatchEntry>& ops);

/// Resize path: stream merge(whole old storage, ops) into a fresh
/// storage (even targets), installing its cardinalities and routes.
/// `merged_total` must come from CountMerged over the whole array (or
/// be the old element count when `ops` is empty).
void MergedStreamInto(const Storage& old_st,
                      const std::vector<BatchEntry>& ops, size_t merged_total,
                      Storage* fresh);

}  // namespace cpma
