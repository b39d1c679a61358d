#pragma once
/// \file spans.hpp
/// In-memory spans recorded by the benchmark around its calls into each
/// layer: name, start, end, the thread that ran it and the span that caused
/// it. Spans stay in per-thread buffers while a traced phase runs and are
/// drained once it ends, so recording takes no lock.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string: the layer boundary
  std::uint64_t id = 0;      ///< unique, never 0
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint32_t thread = 0;  ///< recording thread's index
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Steady-clock nanoseconds.
std::int64_t now_ns() noexcept;

/// Turn recording on or off for every thread (off by default: a ScopedSpan
/// then costs one relaxed load).
void set_tracing(bool on) noexcept;
bool tracing() noexcept;

/// Move every recorded span out of the per-thread buffers. Call only while
/// no thread is inside a ScopedSpan.
std::vector<Span> drain_spans();

/// Records one span from construction to destruction; spans opened inside
/// it on the same thread become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_ = false;
  const char* name_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed durations minus the time children cover
};

/// Per-name totals. A span's self time is its duration minus the part of
/// its interval that the union of its children's intervals covers.
std::map<std::string, SpanTotals> summarize_spans(const std::vector<Span>& spans);

}  // namespace perfbench
