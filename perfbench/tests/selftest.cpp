// Self-tests of the benchmark's own code: order statistics, the percentile
// choice, span self time, and the seeded request log. Built as
// perfbench_selftest; `python3 perfbench/run.py --selftest` builds and runs
// it. Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "request_log.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_median_and_quartiles() {
  expect_near(median({3.5, 1.25, 9.0, 4.0}), 3.75, "median of an even sample");
  expect_near(median({7.0, 1.0, 4.0}), 4.0, "median of an odd sample");
  // Reference values from Python's statistics.quantiles(values, n=4).
  const std::vector<double> q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q10[0], 2.75, "q1 of 1..10");
  expect_near(q10[1], 5.5, "q2 of 1..10");
  expect_near(q10[2], 8.25, "q3 of 1..10");
  const std::vector<double> q5 = quartiles({3.5, 1.25, 9.0, 4.0, 2.0});
  expect_near(q5[0], 1.625, "q1 of five values");
  expect_near(q5[1], 3.5, "q2 of five values");
  expect_near(q5[2], 6.5, "q3 of five values");
  const std::vector<double> q2 = quartiles({5.0, 1.0});
  expect_near(q2[0], 0.0, "q1 of two values extrapolates like Python");
  expect_near(q2[2], 6.0, "q3 of two values extrapolates like Python");
  expect_near(quartile_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5,
              "quartile spread");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of an empty sample throws");
}

void test_percentile_choice() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect_near(supported_percentile(v, 50).value_or(0), 500, "p50 of 1..1000");
  expect_near(supported_percentile(v, 99).value_or(0), 990, "p99 of 1..1000");
  // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
  expect(!supported_percentile(v, 99.9), "1000 samples do not support p99.9");
  auto t = highest_supported_percentile(v);
  expect(t && t->p == 99.0 && t->value == 990, "1000 samples support p99, not p99.9");
  v.resize(200);  // p95 leaves 10 beyond it, p99 only 2
  t = highest_supported_percentile(v);
  expect(t && t->p == 95.0 && t->value == 190, "200 samples support p95");
  v.resize(20);  // p50 leaves 10 beyond it
  t = highest_supported_percentile(v);
  expect(t && t->p == 50.0, "20 samples support only the median");
  v.resize(19);
  expect(!highest_supported_percentile(v), "19 samples support no percentile");
  v.resize(100'000);
  for (int i = 0; i < 100'000; ++i) v[i] = i + 1;
  t = highest_supported_percentile(v);
  expect(t && t->p == 99.9 && t->value == 99'900, "100000 samples support p99.9");
}

void test_span_self_time() {
  // parent [0, 100] with children [10, 30], [20, 50] (overlapping) and
  // [90, 120] (running past the parent): covered = 40 + 10 = 50.
  std::vector<Span> spans = {
      {"parent", 1, 0, 1, 0, 100},    {"child", 2, 1, 1, 10, 30},
      {"child", 3, 1, 2, 20, 50},     {"child", 4, 1, 1, 90, 120},
      {"grandchild", 5, 2, 1, 12, 18}, {"other", 6, 0, 1, 200, 260},
  };
  const auto totals = summarize_spans(spans);
  expect_near(totals.at("parent").total_ns, 100, "parent duration");
  expect_near(totals.at("parent").self_ns, 50, "parent self time excludes child coverage");
  expect(totals.at("child").count == 3, "three child spans");
  expect_near(totals.at("child").total_ns, 20 + 30 + 30, "child durations");
  expect_near(totals.at("child").self_ns, 80 - 6, "child self time excludes the grandchild");
  expect_near(totals.at("other").self_ns, 60, "a span without children is all self time");

  // Recorded spans nest by thread: the inner span's parent is the outer.
  set_tracing(true);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  set_tracing(false);
  { ScopedSpan ignored("ignored"); }
  const std::vector<Span> recorded = drain_spans();
  expect(recorded.size() == 2, "two spans recorded while tracing, none after");
  if (recorded.size() == 2) {
    const Span& inner = recorded[0];
    const Span& outer = recorded[1];
    expect(std::string(inner.name) == "inner" && inner.parent == outer.id && outer.parent == 0,
           "inner span is the child of the outer span");
  }
  expect(drain_spans().empty(), "draining empties the buffers");
}

void test_request_log() {
  const auto a = RequestLog::take(42, 1000, 20'000);
  const auto b = RequestLog::take(42, 1000, 20'000);
  expect(a == b, "the same seed gives the same log");
  expect(a != RequestLog::take(43, 1000, 20'000), "another seed gives another log");
  int counts[kOpCount] = {};
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++counts[static_cast<int>(a[i].op)];
    if ((i + 1) % kSnapshotEvery == 0) expect(a[i].op == Op::kSnapshot, "periodic Snapshot");
    if (a[i].op == Op::kLookup) expect(a[i].arg < 1000, "Lookup bin in range");
    if (a[i].op == Op::kBatchPlace) expect(a[i].arg == kBatchCount, "BatchPlace count");
  }
  expect(counts[3] == 20, "one Snapshot per 1000 requests");
  const double n = 20'000 - 20;
  expect(std::fabs(counts[0] / n - 0.90) < 0.01, "about 90% Place");
  expect(std::fabs(counts[1] / n - 0.08) < 0.01, "about 8% BatchPlace");
  expect(std::fabs(counts[2] / n - 0.02) < 0.005, "about 2% Lookup");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentile_choice();
  test_span_self_time();
  test_request_log();
  if (g_failures != 0) {
    std::cerr << g_failures << " self-test expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
