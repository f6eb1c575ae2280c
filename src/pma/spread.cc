#include "pma/spread.h"

#include <algorithm>
#include <numeric>

#include "common/hotpath/copy.h"
#include "common/hotpath/cpu_dispatch.h"
#include "common/hotpath/merge.h"
#include "common/status.h"

namespace cpma {

namespace {

/// Largest-remainder allocation of `gaps` empty slots over n segments,
/// proportionally to weights. Returns per-segment gap counts summing to
/// exactly `gaps`.
std::vector<uint32_t> AllocateGaps(const std::vector<uint64_t>& weights,
                                   uint64_t gaps, uint32_t seg_capacity) {
  const size_t n = weights.size();
  const uint64_t total_w = std::accumulate(weights.begin(), weights.end(),
                                           uint64_t{0});
  std::vector<uint32_t> gap(n, 0);
  std::vector<std::pair<uint64_t, size_t>> frac(n);  // (remainder, index)
  uint64_t assigned = 0;
  for (size_t j = 0; j < n; ++j) {
    // floor(gaps * w / W) with 128-bit-safe math (values are small).
    const uint64_t num = gaps * weights[j];
    uint64_t g = num / total_w;
    if (g > seg_capacity) g = seg_capacity;
    gap[j] = static_cast<uint32_t>(g);
    assigned += g;
    frac[j] = {num % total_w, j};
  }
  // Distribute the remainder to the largest fractional parts, skipping
  // segments already at full-gap.
  std::sort(frac.begin(), frac.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  size_t fi = 0;
  while (assigned < gaps) {
    bool progressed = false;
    for (fi = 0; fi < n && assigned < gaps; ++fi) {
      size_t j = frac[fi].second;
      if (gap[j] < seg_capacity) {
        ++gap[j];
        ++assigned;
        progressed = true;
      }
    }
    CPMA_CHECK_MSG(progressed, "gap allocation cannot converge");
  }
  return gap;
}

/// The one target planner: how many of the window's `m` elements each
/// segment of [seg_begin, seg_end) receives. Adaptive plans weight the
/// gaps by the insertion predictor inside the feasible band; otherwise
/// the split is even (±1, the extra elements to the left).
std::vector<uint32_t> PlanTargets(const Storage& st, size_t seg_begin,
                                  size_t seg_end, size_t m, bool adaptive) {
  const size_t n = seg_end - seg_begin;
  const uint32_t B = static_cast<uint32_t>(st.segment_capacity());
  std::vector<uint32_t> target(n, 0);
  if (m < n) {
    // Fewer elements than segments (only possible at minimum capacity):
    // left-pack one element per segment; empty segments form a suffix,
    // which keeps the routing table well-defined.
    for (size_t j = 0; j < m; ++j) target[j] = 1;
    return target;
  }
  CPMA_CHECK_MSG(m <= n * size_t{B}, "window overflow");
  if (!adaptive) {
    for (size_t j = 0; j < n; ++j) {
      target[j] = static_cast<uint32_t>(m / n + (j < m % n ? 1 : 0));
    }
    return target;
  }
  // Gaps follow predicted insertions: weight = 1 + decayed counter.
  std::vector<uint64_t> weights(n);
  for (size_t j = 0; j < n; ++j) {
    weights[j] = 1 + st.insert_count(seg_begin + j);
  }
  // Allocate inside the feasible per-segment gap band in one pass. The
  // ceiling B-1 keeps >= 1 element everywhere (a fully-gapped segment
  // would break routing); the floor of 1 gap applies whenever the window
  // is sparse enough (m <= n*(B-1)) and guarantees every segment ends
  // with a free slot — after the spread the pending insertion may route
  // to *any* window segment, and the caller inserts it without a second
  // spread. The even split above stays inside the same band.
  const uint64_t gaps = n * uint64_t{B} - m;
  const uint32_t gap_floor = (m <= n * size_t{B - 1}) ? 1 : 0;
  std::vector<uint32_t> gap = AllocateGaps(
      weights, gaps - uint64_t{gap_floor} * n, B - 1 - gap_floor);
  for (size_t j = 0; j < n; ++j) target[j] = B - gap_floor - gap[j];
  return target;
}

std::vector<uint32_t> SnapshotCards(const Storage& st, size_t seg_begin,
                                    size_t seg_end) {
  std::vector<uint32_t> cards(seg_end - seg_begin);
  for (size_t s = seg_begin; s < seg_end; ++s) {
    cards[s - seg_begin] = st.card(s);
  }
  return cards;
}

}  // namespace

size_t CountMerged(const Storage& st, size_t seg_begin, size_t seg_end,
                   const std::vector<BatchEntry>& ops, size_t* inserted_new,
                   size_t* deleted_found) {
  size_t existing = 0;
  for (size_t s = seg_begin; s < seg_end; ++s) existing += st.card(s);
  // Classify each op by galloping: inside a segment the dispatched
  // lower bound jumps straight to the op's key instead of stepping the
  // cursor one element at a time (ops and elements are both sorted, so
  // the cursor only ever moves right).
  size_t ins = 0, del = 0;
  size_t op_idx = 0;
  const size_t num_ops = ops.size();
  for (size_t s = seg_begin; s < seg_end && op_idx < num_ops; ++s) {
    const Item* seg = st.segment(s);
    const uint32_t card = st.card(s);
    if (card == 0) continue;
    const Key seg_last = seg[card - 1].key;
    uint32_t pos = 0;
    while (op_idx < num_ops && ops[op_idx].key <= seg_last) {
      pos += static_cast<uint32_t>(
          hotpath::SegmentLowerBound(seg + pos, card - pos, ops[op_idx].key));
      const bool present = pos < card && seg[pos].key == ops[op_idx].key;
      if (ops[op_idx].is_delete) {
        if (present) ++del;
      } else if (!present) {
        ++ins;
      }
      ++op_idx;
    }
  }
  for (; op_idx < num_ops; ++op_idx) {  // keys above every stored key
    if (!ops[op_idx].is_delete) ++ins;
  }
  if (inserted_new != nullptr) *inserted_new = ins;
  if (deleted_found != nullptr) *deleted_found = del;
  return existing + ins - del;
}

WindowPlan PlanMergedSpread(const Storage& st, size_t seg_begin,
                            size_t seg_end, size_t merged_total,
                            bool adaptive) {
  WindowPlan plan;
  plan.seg_begin = seg_begin;
  plan.seg_end = seg_end;
  plan.total = merged_total;
  plan.input_card = SnapshotCards(st, seg_begin, seg_end);
  plan.target_card =
      PlanTargets(st, seg_begin, seg_end, merged_total, adaptive);
  return plan;
}

void MergedCopyToBuffer(Storage* st, const WindowPlan& plan,
                        const std::vector<BatchEntry>& ops) {
  const size_t n = plan.seg_end - plan.seg_begin;
  const bool stream =
      hotpath::StreamCopyPreferred(n * st->segment_bytes());
  hotpath::SegmentedRunWriter writer(st->buffer_segment(plan.seg_begin),
                                     st->segment_capacity(),
                                     plan.target_card.data(), n, stream);
  size_t op_idx = 0;
  for (size_t s = plan.seg_begin; s < plan.seg_end; ++s) {
    hotpath::MergeRunWithOps(st->segment(s),
                             plan.input_card[s - plan.seg_begin], ops.data(),
                             ops.size(), &op_idx, &writer);
  }
  hotpath::EmitRemainingOps(ops.data(), ops.size(), &op_idx, &writer);
  CPMA_CHECK_MSG(writer.written() == plan.total,
                 "merge stream does not match plan");
  hotpath::StreamCopyFlush(stream);  // drain before FinishSpread publishes
}

namespace {

/// Fill an empty fresh storage with `total` elements under the even
/// target plan: `emit` streams them, in key order, into the writer; the
/// cardinalities and routes are installed afterwards.
template <typename EmitAll>
void EvenStreamInto(Storage* fresh, size_t total, EmitAll&& emit) {
  const size_t n = fresh->num_segments();
  const std::vector<uint32_t> target =
      PlanTargets(*fresh, 0, n, total, /*adaptive=*/false);
  const bool stream = hotpath::StreamCopyPreferred(
      n * fresh->segment_capacity() * sizeof(Item));
  hotpath::SegmentedRunWriter writer(fresh->segment(0),
                                     fresh->segment_capacity(), target.data(),
                                     n, stream);
  emit(&writer);
  CPMA_CHECK_MSG(writer.written() == total,
                 "stream into fresh storage does not match its plan");
  // Drain before the caller's release-store publishes the new snapshot
  // (a release store does not order non-temporal stores).
  hotpath::StreamCopyFlush(stream);
  for (size_t s = 0; s < n; ++s) fresh->set_card(s, target[s]);
  fresh->RebuildRoutes(0, n);
}

}  // namespace

void MergedStreamInto(const Storage& old_st,
                      const std::vector<BatchEntry>& ops, size_t merged_total,
                      Storage* fresh) {
  EvenStreamInto(fresh, merged_total,
                 [&](hotpath::SegmentedRunWriter* writer) {
                   size_t op_idx = 0;
                   for (size_t s = 0; s < old_st.num_segments(); ++s) {
                     hotpath::MergeRunWithOps(old_st.segment(s),
                                              old_st.card(s), ops.data(),
                                              ops.size(), &op_idx, writer);
                   }
                   hotpath::EmitRemainingOps(ops.data(), ops.size(), &op_idx,
                                             writer);
                 });
}

void SpreadSortedInto(const Item* items, size_t n, Storage* fresh) {
  EvenStreamInto(fresh, n, [&](hotpath::SegmentedRunWriter* writer) {
    writer->Emit(items, n);
  });
}

void FinishSpread(Storage* st, const WindowPlan& plan) {
  st->SwapWindow(plan.seg_begin, plan.seg_end);
  const size_t n0 = plan.seg_begin;
  for (size_t s = plan.seg_begin; s < plan.seg_end; ++s) {
    st->set_card(s, plan.target_card[s - n0]);
    // Decay the insertion predictor so stale skew fades (Bender & Hu use
    // an exponentially decayed marker; halving per rebalance matches).
    st->set_insert_count(s, st->insert_count(s) / 2);
  }
  st->RebuildRoutes(plan.seg_begin, plan.seg_end);
}

}  // namespace cpma
