// The benchmark's own arithmetic: medians, means, the tail-percentile rule
// and token-level rationale overlap (compare.py computes the quartiles).
// Kept apart from the program's code (obs::PercentileSorted,
// eval::RationaleMetricsAccumulator) so the numbers the benchmark reports
// and checks are computed independently of the paths they measure.
// unit_tests.cc works each function by hand.
#ifndef DAR_PERFBENCH_STATS_H_
#define DAR_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of `values`; 0 when empty.
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The highest reportable tail percentile of a latency sample.
struct TailPercentile {
  bool valid = false;
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  int64_t samples = 0;
  /// Samples strictly greater than `value`.
  int64_t beyond = 0;
};

/// The highest of p99.9, p99, p95 and p90 that has at least `min_beyond`
/// samples beyond it: a percentile with fewer samples past it is no tail.
/// Works from only the largest samples: `top` holds the largest values (any
/// order) of a sample of `samples` values, and a percentile is reported only
/// when its nearest rank lies among them. Invalid when none qualifies (fewer
/// than ~40 samples, or too few kept): report the median alone then.
inline TailPercentile HighestTailOfTop(std::vector<double> top, int64_t samples,
                                       int64_t min_beyond = 10) {
  TailPercentile tail;
  tail.samples = samples;
  const int64_t kept = static_cast<int64_t>(top.size());
  if (kept == 0 || samples < kept) return tail;
  std::sort(top.begin(), top.end());
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    int64_t rank = static_cast<int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    rank = std::clamp<int64_t>(rank, 1, samples);
    // The rank-th smallest of all samples, counted from the top of `top`.
    const int64_t index = kept - 1 - (samples - rank);
    if (index < 0) break;  // lower percentiles lie deeper still
    const double value = top[static_cast<size_t>(index)];
    const int64_t beyond = static_cast<int64_t>(
        top.end() - std::upper_bound(top.begin(), top.end(), value));
    if (beyond >= min_beyond) {
      tail.valid = true;
      tail.percentile = p;
      tail.value = value;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

/// HighestTailOfTop over a whole sample.
inline TailPercentile HighestTail(std::vector<double> values,
                                  int64_t min_beyond = 10) {
  const int64_t samples = static_cast<int64_t>(values.size());
  return HighestTailOfTop(std::move(values), samples, min_beyond);
}

/// Token-level overlap between selected rationales and gold annotations,
/// pooled over every token added (micro-averaged, as the paper reports).
struct Overlap {
  int64_t selected = 0;
  int64_t gold = 0;
  int64_t both = 0;
  int64_t tokens = 0;

  /// Adds one sequence; `mask` and `gold_mask` are 0/1 per token and must
  /// have the same length.
  template <typename A, typename B>
  void Add(const A& mask, const B& gold_mask) {
    for (size_t i = 0; i < mask.size(); ++i) {
      const bool s = mask[i] != 0;
      const bool g = gold_mask[i] != 0;
      selected += s;
      gold += g;
      both += s && g;
    }
    tokens += static_cast<int64_t>(mask.size());
  }
  void Add(const Overlap& other) {
    selected += other.selected;
    gold += other.gold;
    both += other.both;
    tokens += other.tokens;
  }
  double Precision() const {
    return selected > 0 ? static_cast<double>(both) / selected : 0.0;
  }
  double Recall() const {
    return gold > 0 ? static_cast<double>(both) / gold : 0.0;
  }
  double F1() const {
    const double p = Precision(), r = Recall();
    return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
  }
  /// Share of all tokens that were selected.
  double SelectedShare() const {
    return tokens > 0 ? static_cast<double>(selected) / tokens : 0.0;
  }
};

}  // namespace perfbench

#endif  // DAR_PERFBENCH_STATS_H_
