#include "pma/sequential_pma.h"

#include <cstring>
#include <sstream>

#include "common/hotpath/search.h"
#include "pma/spread.h"

namespace cpma {

// One tested lower bound for every segment search (hot-path subsystem,
// ISSUE 2) instead of a per-TU scalar copy.
using hotpath::SegmentLowerBound;

SequentialPMA::SequentialPMA(const PmaConfig& config) : config_(config) {
  CPMA_CHECK(IsPowerOfTwo(config_.segment_capacity));
  CPMA_CHECK(config_.segment_capacity >= 4);
  CPMA_CHECK(IsPowerOfTwo(config_.initial_num_segments));
  CPMA_CHECK(config_.initial_num_segments >= 2);
  storage_ = std::make_unique<Storage>(config_.initial_num_segments,
                                       config_.segment_capacity,
                                       config_.use_rewiring);
}

void SequentialPMA::Insert(Key key, Value value) {
  CPMA_CHECK_MSG(key <= kKeyMax, "key out of domain (UINT64_MAX reserved)");
  size_t s = storage_->RouteSegment(key);
  Item* seg = storage_->segment(s);
  uint32_t card = storage_->card(s);
  size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, key);
  if (pos < card && seg[pos].key == key) {
    seg[pos].value = value;  // upsert
    return;
  }
  int attempts = 0;
  while (card == storage_->segment_capacity()) {
    CPMA_CHECK_MSG(++attempts <= 4, "rebalance failed to free a slot");
    RebalanceForInsert(s);
    s = storage_->RouteSegment(key);
    seg = storage_->segment(s);
    card = storage_->card(s);
    pos = hotpath::SegmentLowerBoundForUpdate(seg, card, key);
  }
  std::memmove(seg + pos + 1, seg + pos, (card - pos) * sizeof(Item));
  seg[pos] = {key, value};
  storage_->set_card(s, card + 1);
  if (pos == 0 && s > 0) storage_->set_route(s, key);
  storage_->bump_insert_count(s);
  ++count_;
}

void SequentialPMA::Remove(Key key) {
  size_t s = storage_->RouteSegment(key);
  Item* seg = storage_->segment(s);
  uint32_t card = storage_->card(s);
  size_t pos = hotpath::SegmentLowerBoundForUpdate(seg, card, key);
  if (pos >= card || seg[pos].key != key) return;  // not present
  std::memmove(seg + pos, seg + pos + 1, (card - pos - 1) * sizeof(Item));
  storage_->set_card(s, card - 1);
  --count_;
  if (pos == 0 && s > 0) {
    storage_->set_route(s, card > 1 ? seg[0].key : kKeySentinel);
  }

  // Global shrink check (paper relaxes the lower thresholds and downsizes
  // on overall density; see PmaConfig::shrink_density).
  if (count_ < static_cast<size_t>(config_.shrink_density *
                                   static_cast<double>(capacity())) &&
      num_segments() > 2) {
    Resize(SegmentsForCount(count_));
    return;
  }

  const bool empty_violation = storage_->card(s) == 0;
  bool strict_violation = false;
  if (!config_.relax_lower) {
    DensityBounds bounds(config_, num_segments());
    strict_violation =
        static_cast<double>(storage_->card(s)) <
        bounds.Rho(0) * static_cast<double>(storage_->segment_capacity());
  }
  if ((empty_violation || strict_violation) && count_ > 0) {
    RebalanceForDelete(s);
  } else if (empty_violation && s > 0) {
    storage_->set_route(s, kKeySentinel);
  }
}

bool SequentialPMA::Find(Key key, Value* value) const {
  size_t s = storage_->RouteSegment(key);
  const Item* seg = storage_->segment(s);
  uint32_t card = storage_->card(s);
  size_t pos = SegmentLowerBound(seg, card, key);
  if (pos < card && seg[pos].key == key) {
    if (value != nullptr) *value = seg[pos].value;
    return true;
  }
  return false;
}

uint64_t SequentialPMA::SumAll() const {
  uint64_t sum = 0;
  const size_t n = num_segments();
  for (size_t s = 0; s < n; ++s) {
    if (s + 1 < n) {
      hotpath::PrefetchSegment(storage_->segment(s + 1),
                               storage_->card(s + 1));
    }
    const Item* seg = storage_->segment(s);
    const uint32_t card = storage_->card(s);
    for (uint32_t i = 0; i < card; ++i) sum += seg[i].value;
  }
  return sum;
}

void SequentialPMA::Scan(Key min, Key max, const ScanCallback& cb) const {
  if (min > max) return;
  const size_t first = storage_->RouteSegment(min);
  const size_t n = num_segments();
  for (size_t s = first; s < n; ++s) {
    if (s + 1 < n) {
      hotpath::PrefetchSegment(storage_->segment(s + 1),
                               storage_->card(s + 1));
    }
    const Item* seg = storage_->segment(s);
    const uint32_t card = storage_->card(s);
    uint32_t i = (s == first)
                     ? static_cast<uint32_t>(SegmentLowerBound(seg, card, min))
                     : 0;
    for (; i < card; ++i) {
      if (seg[i].key > max) return;
      if (!cb(seg[i].key, seg[i].value)) return;
    }
  }
}

void SequentialPMA::RebalanceForInsert(size_t seg) {
  DensityBounds bounds(config_, num_segments());
  const size_t B = storage_->segment_capacity();
  for (size_t level = 1; level <= bounds.root_level(); ++level) {
    size_t begin, end;
    WindowAt(seg, level, &begin, &end);
    size_t m = 0;
    for (size_t s = begin; s < end; ++s) m += storage_->card(s);
    const size_t cap = (end - begin) * B;
    const double delta = static_cast<double>(m) / static_cast<double>(cap);
    // Besides the density threshold, require one gap per segment so the
    // spread can leave room in whichever segment the key lands in.
    if (delta <= bounds.Tau(level) && m + (end - begin) <= cap) {
      ++num_rebalances_;
      WindowPlan plan = PlanSpread(*storage_, begin, end, config_.adaptive,
                                   /*trigger_seg=*/seg);
      CopyPartitionToBuffer(storage_.get(), plan, begin, end);
      FinishSpread(storage_.get(), plan);
      return;
    }
  }
  // Even the root is beyond threshold: grow.
  Resize(SegmentsForCount(count_ + 1));
}

void SequentialPMA::RebalanceForDelete(size_t seg) {
  DensityBounds bounds(config_, num_segments());
  const size_t B = storage_->segment_capacity();
  const size_t root = bounds.root_level();
  for (size_t level = 1; level <= root; ++level) {
    size_t begin, end;
    WindowAt(seg, level, &begin, &end);
    size_t m = 0;
    for (size_t s = begin; s < end; ++s) m += storage_->card(s);
    const size_t nsegs = end - begin;
    const double delta =
        static_cast<double>(m) / static_cast<double>(nsegs * B);
    const bool enough = m >= nsegs && delta >= bounds.Rho(level);
    // At the root there is no further level; spread unconditionally (the
    // global shrink check already ran, so this is the minimum-capacity
    // tail case where a suffix of empty segments is acceptable).
    if (enough || level == root) {
      ++num_rebalances_;
      WindowPlan plan = PlanSpread(*storage_, begin, end, config_.adaptive,
                                   SIZE_MAX);
      CopyPartitionToBuffer(storage_.get(), plan, begin, end);
      FinishSpread(storage_.get(), plan);
      return;
    }
  }
}

void SequentialPMA::Resize(size_t new_num_segments) {
  CPMA_CHECK(IsPowerOfTwo(new_num_segments) && new_num_segments >= 2);
  ++num_resizes_;
  auto fresh = std::make_unique<Storage>(new_num_segments,
                                         config_.segment_capacity,
                                         config_.use_rewiring);
  // Resizes always use the even split (the predictor is reset); with no
  // ops the merged stream is a run-at-a-time repack of the old array.
  MergedStreamInto(*storage_, /*ops=*/{}, count_, fresh.get());
  storage_ = std::move(fresh);
}

size_t SequentialPMA::SegmentsForCount(size_t count) const {
  const size_t B = storage_->segment_capacity();
  size_t segs = 2;
  while (static_cast<double>(count) >
         0.6 * static_cast<double>(segs) * static_cast<double>(B)) {
    segs *= 2;
  }
  return segs;
}

bool SequentialPMA::CheckInvariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const size_t n = num_segments();
  const size_t B = storage_->segment_capacity();
  size_t total = 0;
  Key prev = 0;
  bool have_prev = false;
  bool seen_empty = false;
  for (size_t s = 0; s < n; ++s) {
    const uint32_t card = storage_->card(s);
    if (card > B) return fail("cardinality exceeds segment capacity");
    if (card == 0) {
      seen_empty = true;
      if (storage_->route(s) != kKeySentinel && s != 0) {
        return fail("empty segment without sentinel route");
      }
      continue;
    }
    if (seen_empty) return fail("non-empty segment after an empty one");
    const Item* seg = storage_->segment(s);
    for (uint32_t i = 0; i < card; ++i) {
      if (have_prev && seg[i].key <= prev) {
        return fail("keys not strictly increasing");
      }
      prev = seg[i].key;
      have_prev = true;
    }
    if (s > 0 && storage_->route(s) != seg[0].key) {
      return fail("routing key mismatch");
    }
    total += card;
  }
  if (storage_->route(0) != kKeyMin) return fail("segment 0 route != min");
  if (total != count_) return fail("element count mismatch");
  if (seen_empty && total >= n) {
    return fail("empty segment although count >= #segments");
  }
  return true;
}

std::string SequentialPMA::DebugDumpCalibratorTree() const {
  std::ostringstream os;
  DensityBounds bounds(config_, num_segments());
  const size_t B = storage_->segment_capacity();
  os << "calibrator tree: " << num_segments() << " segments x " << B
     << " slots, height " << bounds.height() << ", " << count_
     << " elements\n";
  for (size_t level = bounds.root_level() + 1; level-- > 0;) {
    const size_t w = size_t{1} << level;
    os << "  level " << level << " (rho=" << bounds.Rho(level)
       << ", tau=" << bounds.Tau(level) << "): ";
    for (size_t begin = 0; begin < num_segments(); begin += w) {
      size_t m = 0;
      for (size_t s = begin; s < begin + w; ++s) m += storage_->card(s);
      os << "[" << static_cast<double>(m) / static_cast<double>(w * B) << "] ";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cpma
