// Tests of stats.h. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  return v;
}

}  // namespace

int main() {
  using rdabench::Median;
  using rdabench::TailQuantile;

  // p99 needs ten samples above it: 1000 samples suffice, 999 do not.
  Expect(!TailQuantile(Iota(999), 0.99).has_value(), "p99 of 999 refused");
  const auto p99 = TailQuantile(Iota(1000), 0.99);
  Expect(p99.has_value(), "p99 of 1000 reported");
  Expect(p99 && p99->value == 990 && p99->beyond == 10 && p99->samples == 1000,
         "p99 of 1..1000 is 990 with 10 beyond");

  // The median is held to the same rule: 19 samples are too few.
  Expect(!TailQuantile(Iota(19), 0.5).has_value(), "p50 of 19 refused");
  const auto p50 = TailQuantile(Iota(20), 0.5);
  Expect(p50 && p50->value == 10 && p50->beyond == 10, "p50 of 1..20 is 10");

  Expect(!TailQuantile({}, 0.5).has_value(), "empty set refused");
  Expect(!TailQuantile(Iota(100), 0.0).has_value(), "q=0 refused");
  Expect(!TailQuantile(Iota(100), 1.5).has_value(), "q>1 refused");

  // A reported quantile is always one of the samples, never above the max,
  // and never decreasing in q.
  std::mt19937_64 gen(7);
  std::lognormal_distribution<double> latency(3.0, 1.2);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> samples(20 + gen() % 3000);
    double max = 0;
    for (double& s : samples) {
      s = latency(gen);
      max = std::max(max, s);
    }
    double last = 0;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const auto quantile = TailQuantile(samples, q, 0);
      Expect(quantile.has_value(), "min_beyond=0 always reports");
      Expect(quantile->value <= max, "quantile <= max");
      Expect(quantile->value >= last, "quantiles monotone in q");
      Expect(std::find(samples.begin(), samples.end(), quantile->value) !=
                 samples.end(),
             "quantile is a sample");
      last = quantile->value;
    }
  }

  // Blocks: 999 samples fill none; 2500 fill two blocks of 1250.
  using rdabench::MedianBlockQuantile;
  Expect(!MedianBlockQuantile(Iota(999), 0.99, 1000).has_value(),
         "no full block");
  const auto two = MedianBlockQuantile(Iota(2500), 0.99, 1000);
  Expect(two && two->blocks == 2 && two->samples == 2500, "two blocks");
  // Block 1 is 1..1250 (p99 1238), block 2 is 1251..2500 (p99 2488).
  Expect(two && two->value == (1238.0 + 2488.0) / 2, "median of two blocks");
  // One block hit by a burst leaves the median block alone.
  std::vector<double> bursty;
  for (int b = 0; b < 9; ++b) {
    for (int i = 1; i <= 1000; ++i) {
      bursty.push_back(b == 4 ? i * 100.0 : i);
    }
  }
  const auto robust = MedianBlockQuantile(bursty, 0.99, 1000);
  Expect(robust && robust->blocks == 9 && robust->value == 990,
         "a burst in one block does not move the median block");

  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Median({}) == 0, "empty median");

  if (failures == 0) {
    std::printf("stats_test: all checks passed\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
