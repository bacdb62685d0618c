// Order statistics for the benchmark's reports.
//
// Game workloads only expose their response times as a log-bucketed
// metrics::Histogram, whose percentile() returns a bucket's upper bound:
// a value that moves in ~3% steps and would read the same on many seeds.
// HistogramCdf recovers the histogram's exact cumulative counts per bucket
// (through the public percentile() API) and interpolates linearly inside a
// bucket, as HdrHistogram-style tools do. Raw samples use the same linear
// interpolation between order statistics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "metrics/histogram.h"

namespace perfbench {

/// Linear-interpolated quantile of raw samples, q in [0, 1]. Sorts `v`.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Piecewise-linear CDF of a metrics::Histogram (values in microseconds).
class HistogramCdf {
 public:
  explicit HistogramCdf(const dynamoth::metrics::Histogram& h) : count_(h.count()) {
    if (count_ == 0) return;
    // percentile() returns the bucket bound holding the ceil(p * n)-th
    // sample; p = (t - 0.5) / n maps to rank t without rounding trouble.
    const auto at_rank = [&](std::uint64_t t) {
      return h.percentile(100.0 * (static_cast<double>(t) - 0.5) / static_cast<double>(count_));
    };
    double lower = static_cast<double>(h.min());
    std::uint64_t rank = 1;
    while (rank <= count_) {
      const std::int64_t value = at_rank(rank);
      // Largest rank that still lands in the same bucket.
      std::uint64_t lo = rank, hi = count_;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (at_rank(mid) == value) lo = mid; else hi = mid - 1;
      }
      steps_.push_back({lower, static_cast<double>(value), lo});
      lower = static_cast<double>(value);
      rank = lo + 1;
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Value below which a share q in [0, 1] of the samples lies.
  [[nodiscard]] double quantile(double q) const {
    if (steps_.empty()) return 0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    std::uint64_t before = 0;
    for (const Step& s : steps_) {
      if (static_cast<double>(s.cumulative) >= target) {
        const double n = static_cast<double>(s.cumulative - before);
        const double f = n > 0 ? (target - static_cast<double>(before)) / n : 1.0;
        return s.lower + (s.upper - s.lower) * std::clamp(f, 0.0, 1.0);
      }
      before = s.cumulative;
    }
    return steps_.back().upper;
  }

  /// Number of samples above `value` (interpolated inside its bucket).
  [[nodiscard]] double count_above(double value) const {
    std::uint64_t before = 0;
    for (const Step& s : steps_) {
      if (value < s.upper) {
        const double n = static_cast<double>(s.cumulative - before);
        const double f = s.upper > s.lower ? (value - s.lower) / (s.upper - s.lower) : 0.0;
        const double below = static_cast<double>(before) + n * std::clamp(f, 0.0, 1.0);
        return static_cast<double>(count_) - below;
      }
      before = s.cumulative;
    }
    return 0;
  }

 private:
  struct Step {
    double lower;               // previous bucket's bound (or the minimum)
    double upper;               // this bucket's bound, clamped to [min, max]
    std::uint64_t cumulative;   // samples at or below upper
  };
  std::uint64_t count_;
  std::vector<Step> steps_;
};

}  // namespace perfbench
