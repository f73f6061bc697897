// Sample statistics for the benchmark's own reports.
//
// Quantiles use the nearest-rank rule, so every reported quantile is one of
// the samples and can never exceed the maximum. A quantile is reported only
// when at least `min_beyond` samples lie above it: with fewer, a "p99" is
// just the largest sample and says nothing about the tail.
#ifndef RDABENCH_STATS_H_
#define RDABENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace rdabench {

struct Quantile {
  double value = 0;
  size_t samples = 0;  // Size of the sample set.
  size_t beyond = 0;   // Samples strictly ranked above the reported one.
};

inline constexpr size_t kMinBeyond = 10;

// Nearest-rank quantile q in (0, 1] of `samples`, or nullopt when fewer than
// `min_beyond` samples rank above it.
inline std::optional<Quantile> TailQuantile(std::vector<double> samples,
                                            double q,
                                            size_t min_beyond = kMinBeyond) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0 || q > 1) {
    return std::nullopt;
  }
  // 1-based rank ceil(q * n); the epsilon keeps q * n = 990.0000001 at 990.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return Quantile{samples[rank - 1], n, n - rank};
}

// Median of a non-empty set (mean of the middle pair for even sizes).
inline double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

struct BlockQuantile {
  double value = 0;
  size_t samples = 0;  // All samples.
  size_t blocks = 0;   // Consecutive blocks they were split into.
};

// Splits `samples` (in the order they were taken) into as many consecutive
// blocks of at least `block` samples as they fill, takes each block's
// TailQuantile, and returns the median over blocks. A burst of interference
// from a shared host inflates the tail of the blocks it hits, not the median
// block; a slowdown that lasts the whole run still shows. nullopt when a
// block's quantile would be refused.
inline std::optional<BlockQuantile> MedianBlockQuantile(
    const std::vector<double>& samples, double q, size_t block,
    size_t min_beyond = kMinBeyond) {
  const size_t n = samples.size();
  const size_t k = block > 0 ? n / block : 0;
  if (k == 0) {
    return std::nullopt;
  }
  std::vector<double> values;
  for (size_t i = 0; i < k; ++i) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(n * i / k);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>(n * (i + 1) / k);
    const auto quantile = TailQuantile({first, last}, q, min_beyond);
    if (!quantile) {
      return std::nullopt;
    }
    values.push_back(quantile->value);
  }
  return BlockQuantile{Median(values), n, k};
}

}  // namespace rdabench

#endif  // RDABENCH_STATS_H_
