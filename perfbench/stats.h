// Measurement helpers for perfbench: a seeded random source and YCSB
// zipfian key chooser that belong to the benchmark (so a library change
// can never change the inputs), a latency histogram with <1% relative
// bucket width, and small order statistics.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  // Same clock as cpma::TailEventRing::NowNs(), so op windows and ring
  // spans compare directly.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// SplitMix64 stream: a pure function of its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix64(s_ += 0x9e3779b97f4a7c15ull); }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >>
                                 64);
  }

 private:
  uint64_t s_;
};

/// Seed of stream `stream` of the run seeded `seed`; streams never share
/// a sequence.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x100000001b3ull + stream + 1);
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
}

/// YCSB's ZipfianGenerator (Gray et al., SIGMOD'94) over ranks [0, n),
/// scrambled over [1, n] the way YCSB's ScrambledZipfianGenerator
/// hashes ranks, so the hot keys spread over the whole array.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta2 = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      const double t = 1.0 / std::pow(static_cast<double>(i), theta);
      zetan_ += t;
      if (i == 2) zeta2 = zetan_;
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->Uniform();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return 1 + Mix64(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Log-linear latency histogram: 1 ns buckets below 256 ns, then 128
/// buckets per power of two, so every bucket is under 0.8% wide.
class Histogram {
 public:
  static constexpr int kSubBits = 7;

  void Add(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++total_;
  }
  void Merge(const Histogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }

  /// Value at quantile q in (0, 1], interpolated linearly inside its
  /// bucket; 0 for an empty histogram.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    const uint64_t rank =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total_)));
    uint64_t seen = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (seen + counts_[b] >= rank) {
        const double frac = (rank - seen - 0.5) / static_cast<double>(counts_[b]);
        return Low(b) + frac * Width(b);
      }
      seen += counts_[b];
    }
    return Low(counts_.size() - 1);
  }

 private:
  static size_t Bucket(uint64_t ns) {
    if (ns < (2u << kSubBits)) return ns;
    const int shift = 63 - __builtin_clzll(ns) - kSubBits;
    return ((shift + 1) << kSubBits) + ((ns >> shift) & ((1u << kSubBits) - 1));
  }
  static int Shift(size_t b) {
    return b < (2u << kSubBits) ? 0 : static_cast<int>(b >> kSubBits) - 1;
  }
  static double Low(size_t b) {
    if (b < (2u << kSubBits)) return static_cast<double>(b);
    return static_cast<double>(((b & ((1u << kSubBits) - 1)) | (1u << kSubBits))
                               << Shift(b));
  }
  static double Width(size_t b) { return static_cast<double>(1ull << Shift(b)); }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(64u << kSubBits);
  uint64_t total_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace perfbench
