// Element redistribution ("spread") for rebalances — the sequential
// algorithm of the paper, with the update batch of §3.5 folded in. Every
// spread that moves data within a live array is a merged spread, and a
// spread with no pending ops is one with an empty batch:
//
//   1. One target planner decides how many elements every segment of
//      the window receives (traditional: even split; adaptive: gaps
//      follow the insertion predictor, paper §2 "Adaptive rebalancing").
//      Window spreads, resizes and bulk loads all use it. Whenever the
//      window keeps one free slot per segment (m + n <= n*B, which every
//      caller requires), every target leaves a free slot, so one spread
//      always makes room for the insertion that triggered it.
//   2. MergedCopyToBuffer streams merge(window, batch), in key order,
//      into the window's *buffer* pages; the live array is only read.
//   3. FinishSpread publishes the buffer (Storage::SwapWindow, one
//      copy) and installs the new cardinalities and routing keys.

#pragma once

#include <cstdint>
#include <vector>

#include "pma/storage.h"

namespace cpma {

struct WindowPlan {
  size_t seg_begin = 0;
  size_t seg_end = 0;                // exclusive
  size_t total = 0;                  // elements in the window afterwards
  std::vector<uint32_t> input_card;  // snapshot of card per window segment
  std::vector<uint32_t> target_card; // decided by the target planner
};

// Batch processing (paper §3.5) folds a sorted batch of updates into the
// window *during* the rebalance, skipping the per-update small
// rebalances entirely.

// BatchEntry (one canonical update: sorted by key, unique keys,
// deletions and upserts mixed) lives in pma/item.h so the hot-path merge
// kernels can consume batches too.

/// Element count of window [seg_begin, seg_end) after merging `ops`.
/// Also reports how many ops insert a new key / delete an existing one
/// (for the global element counter).
size_t CountMerged(const Storage& st, size_t seg_begin, size_t seg_end,
                   const std::vector<BatchEntry>& ops, size_t* inserted_new,
                   size_t* deleted_found);

/// Build a plan whose total is the merged count. `adaptive` selects
/// predictor-weighted targets: the sync and one-by-one modes hand a
/// writer's op to the rebalancer inside its gate's queue, so every
/// global window of theirs is a merged spread, and an even split there
/// re-triggers right-edge windows ever more often. Batch mode keeps the
/// even split (the default).
WindowPlan PlanMergedSpread(const Storage& st, size_t seg_begin,
                            size_t seg_end, size_t merged_total,
                            bool adaptive = false);

/// Stream merge(window, ops) into the storage buffer following the
/// plan's targets. Publish with FinishSpread.
void MergedCopyToBuffer(Storage* st, const WindowPlan& plan,
                        const std::vector<BatchEntry>& ops);

/// Publish the buffer and install cardinalities, routing keys and
/// decayed insert counters for the whole window.
void FinishSpread(Storage* st, const WindowPlan& plan);

/// Resize path: stream merge(whole old storage, ops) into a fresh
/// storage (even targets), installing its cardinalities and routes.
/// `merged_total` must come from CountMerged over the whole array (or
/// be the old element count when `ops` is empty).
void MergedStreamInto(const Storage& old_st,
                      const std::vector<BatchEntry>& ops, size_t merged_total,
                      Storage* fresh);

/// Bulk-load path: spread `n` items with strictly ascending keys into an
/// empty fresh storage (even targets, run copies), installing its
/// cardinalities and routes. `n` must fit the storage.
void SpreadSortedInto(const Item* items, size_t n, Storage* fresh);

}  // namespace cpma
