#pragma once
/// \file bench_stats.hpp
/// Order statistics the benchmark reports: medians, quartiles (the same
/// definition as Python's `statistics.quantiles(values, n=4)`, which is how
/// run-to-run spread is judged), and latency percentiles restricted to the
/// ones the sample supports.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// \throws std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default "exclusive" method). \throws std::invalid_argument when fewer
/// than two values are given.
std::vector<double> quartiles(std::vector<double> values);

/// (q3 - q1) / median: the spread a run-to-run comparison is judged by.
double quartile_spread(const std::vector<double>& values);

/// Nearest-rank percentile `p` (0 < p <= 100) of `values` when at least
/// `min_beyond` samples lie above its rank; none otherwise (an empty sample
/// supports none). \throws std::invalid_argument when p is out of range.
std::optional<double> supported_percentile(std::vector<double> values, double p,
                                           std::size_t min_beyond = 10);

struct TailPercentile {
  double p = 0.0;      ///< the percentile chosen, e.g. 99
  double value = 0.0;  ///< its value
};

/// The highest of 99.9, 99, 95, 90, 75 and 50 that leaves at least
/// `min_beyond` samples above its rank; none when even the median does not.
std::optional<TailPercentile> highest_supported_percentile(std::vector<double> values,
                                                           std::size_t min_beyond = 10);

}  // namespace perfbench
