#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// 1-based nearest rank of percentile p among n values; the epsilon keeps
/// decimal percentiles such as 99.9 from rounding up a rank.
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"), n = 4.
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

double quartile_spread(const std::vector<double>& values) {
  const std::vector<double> q = quartiles(values);
  return (q[2] - q[0]) / median(values);
}

std::optional<double> supported_percentile(std::vector<double> values, double p,
                                           std::size_t min_beyond) {
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t rank = nearest_rank(p, values.size());
  if (values.size() - rank < min_beyond) return std::nullopt;
  return values[rank - 1];
}

std::optional<TailPercentile> highest_supported_percentile(std::vector<double> values,
                                                           std::size_t min_beyond) {
  std::sort(values.begin(), values.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (const auto v = supported_percentile(values, p, min_beyond)) return TailPercentile{p, *v};
  }
  return std::nullopt;
}

}  // namespace perfbench
