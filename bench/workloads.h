// YCSB-style standard workload vocabulary (ISSUE 10), after Cooper et
// al., "Benchmarking Cloud Serving Systems with YCSB" (SoCC'10): the
// six core mixes A-F, plus two beyond the core set, as deterministic,
// seeded per-thread op-stream generators over the OrderedMap key/value
// model.
//
//   mix  ops                          chooser   nickname
//   A    50% read / 50% update        zipfian   update heavy
//   B    95% read /  5% update        zipfian   read mostly
//   C    100% read                    zipfian   read only
//   D    95% read /  5% insert        latest    read latest
//   E    95% scan /  5% insert        zipfian   short ranges
//   F    50% read / 50% read-mod-wr   zipfian   read-modify-write
//   I    100% insert                  -         insert only (load)
//   S    98.5% upd. / 1.5% full scan  zipfian   full scans under writers
//
// Zipfian uses the YCSB constant 0.99 over the preloaded keyspace
// [1, record_count]. "Latest" skews toward the most recently inserted
// key (frontier - zipf draw). Scan lengths are uniform in
// [1, max_scan_len] (YCSB default); a mix with max_scan_len 0 scans the
// whole key space instead (scan_len 0, start key kKeyMin). Inserts
// partition the key space above the preload by thread (key = base + 1 +
// thread + i * threads), so concurrent generators never collide and
// every generator is a pure function of (mix, record_count, thread,
// num_threads, seed) — the determinism the tests pin down.
//
// Mix S's writes overwrite preloaded keys, spread over the whole array
// by the scrambled zipfian chooser, so a pass meets them in every
// region, not only at an edge. Its 1.5% pass share gives passes about
// three quarters of each thread's time, as three scanner threads
// against one writer would; at 60,000 records and 4 threads a pass
// then meets about 2.6 concurrent writes per thousand items it visits
// (measured on a 4-vCPU x86 host).

#pragma once

#include <cstdint>
#include <string>

#include "common/ordered_map.h"
#include "common/random.h"
#include "common/zipf.h"

namespace cpma::bench {

enum class YcsbOp : uint8_t { kRead, kUpdate, kInsert, kScan, kRmw };
constexpr size_t kNumYcsbOps = 5;

inline const char* YcsbOpName(YcsbOp op) {
  switch (op) {
    case YcsbOp::kRead: return "read";
    case YcsbOp::kUpdate: return "update";
    case YcsbOp::kInsert: return "insert";
    case YcsbOp::kScan: return "scan";
    case YcsbOp::kRmw: return "rmw";
  }
  return "?";
}

enum class Chooser : uint8_t { kZipfian, kUniform, kLatest };

/// One generated operation: the op type, its key, and (for scans) how
/// many consecutive elements to visit — 0 for a full pass.
struct YcsbOpSpec {
  YcsbOp op = YcsbOp::kRead;
  Key key = 1;
  uint32_t scan_len = 0;
};

/// Proportions of one mix (sum to 1.0) plus its key chooser.
struct MixSpec {
  char name = '?';
  double read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
  Chooser chooser = Chooser::kZipfian;
  uint32_t max_scan_len = 0;  // 0: scans are full passes

  bool full_scans() const { return scan > 0 && max_scan_len == 0; }
};

/// YCSB zipfian constant (theta in the original harness).
constexpr double kYcsbZipfAlpha = 0.99;

/// The mixes of the table above. Returns nullptr for an unknown letter.
inline const MixSpec* FindMix(char m) {
  static const MixSpec kMixes[] = {
      {'A', 0.50, 0.50, 0.00, 0.00, 0.00, Chooser::kZipfian, 0},
      {'B', 0.95, 0.05, 0.00, 0.00, 0.00, Chooser::kZipfian, 0},
      {'C', 1.00, 0.00, 0.00, 0.00, 0.00, Chooser::kZipfian, 0},
      {'D', 0.95, 0.00, 0.05, 0.00, 0.00, Chooser::kLatest, 0},
      {'E', 0.00, 0.00, 0.05, 0.95, 0.00, Chooser::kZipfian, 100},
      {'F', 0.50, 0.00, 0.00, 0.00, 0.50, Chooser::kZipfian, 0},
      {'I', 0.00, 0.00, 1.00, 0.00, 0.00, Chooser::kZipfian, 0},
      {'S', 0.00, 0.985, 0.00, 0.015, 0.00, Chooser::kZipfian, 0},
  };
  for (const MixSpec& s : kMixes) {
    if (s.name == m) return &s;
  }
  return nullptr;
}

/// Deterministic per-thread op-stream generator for one mix. Two
/// generators constructed with identical arguments emit identical
/// sequences; generators with different thread indices draw disjoint
/// insert keys and independent random streams.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const MixSpec& mix, uint64_t record_count,
                    int thread_index, int num_threads, uint64_t seed)
      : mix_(mix),
        records_(record_count < 1 ? 1 : record_count),
        thread_(static_cast<uint64_t>(thread_index)),
        threads_(static_cast<uint64_t>(num_threads < 1 ? 1 : num_threads)),
        rng_(MixSeed(seed, thread_)),
        zipf_(records_, kYcsbZipfAlpha),
        // Latest chooser: the skew-toward-the-front draw reuses the
        // zipfian shape over the keyspace size (YCSB's
        // SkewedLatestGenerator composes exactly so).
        latest_zipf_(records_, kYcsbZipfAlpha) {}

  /// Next operation in this thread's stream.
  YcsbOpSpec Next() {
    YcsbOpSpec spec;
    const double u = rng_.NextDouble();
    double acc = mix_.read;
    if (u < acc) {
      spec.op = YcsbOp::kRead;
      spec.key = ChooseKey();
      return spec;
    }
    acc += mix_.update;
    if (u < acc) {
      spec.op = YcsbOp::kUpdate;
      spec.key = ChooseKey();
      return spec;
    }
    acc += mix_.insert;
    if (u < acc) {
      spec.op = YcsbOp::kInsert;
      spec.key = NextInsertKey();
      return spec;
    }
    acc += mix_.scan;
    if (u < acc) {
      spec.op = YcsbOp::kScan;
      if (mix_.max_scan_len == 0) {
        spec.key = kKeyMin;
        return spec;
      }
      spec.key = ChooseKey();
      spec.scan_len =
          1 + static_cast<uint32_t>(rng_.NextBounded(mix_.max_scan_len));
      return spec;
    }
    spec.op = YcsbOp::kRmw;
    spec.key = ChooseKey();
    return spec;
  }

  /// Keys this thread inserted so far (its insert stream position).
  uint64_t inserted() const { return inserted_; }

  /// This thread's estimate of the global insert frontier: the highest
  /// key guaranteed inserted if all threads progress evenly. Exact
  /// under single-threaded use; an approximation (never above the
  /// preload ceiling + own contribution) under concurrency — "latest"
  /// is a skew target, not a consistency contract.
  uint64_t frontier() const {
    return records_ + inserted_ * threads_;
  }

 private:
  static uint64_t MixSeed(uint64_t seed, uint64_t thread) {
    uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * (thread + 1));
    return SplitMix64(s);
  }

  Key ChooseKey() {
    switch (mix_.chooser) {
      case Chooser::kUniform:
        return 1 + rng_.NextBounded(records_);
      case Chooser::kZipfian: {
        // Scramble the zipf rank over the keyspace (YCSB hashes the
        // rank too): without this the hottest keys are all clustered at
        // the low end of the PMA, which measures one gate, not skew.
        uint64_t rank = zipf_.Sample(rng_) - 1;
        return 1 + SplitMix64(rank) % records_;
      }
      case Chooser::kLatest: {
        const uint64_t f = frontier();
        const uint64_t back = latest_zipf_.Sample(rng_) - 1;  // 0-based
        return back >= f ? 1 : f - back;
      }
    }
    return 1;
  }

  Key NextInsertKey() {
    // Round-robin partition of the space above the preload: thread t
    // takes base+1+t, base+1+t+threads, ... — disjoint across threads,
    // and the aggregate frontier stays dense (no holes), which keeps
    // the latest chooser's targets mostly-present.
    const Key k = records_ + 1 + thread_ + inserted_ * threads_;
    ++inserted_;
    return k;
  }

  MixSpec mix_;
  uint64_t records_;
  uint64_t thread_;
  uint64_t threads_;
  Random rng_;
  ZipfDistribution zipf_;
  ZipfDistribution latest_zipf_;
  uint64_t inserted_ = 0;
};

}  // namespace cpma::bench
