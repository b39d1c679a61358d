#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::uint64_t next_local = 0;
  std::uint64_t current = 0;  ///< innermost open span on this thread
  std::vector<Span> spans;
};

std::atomic<bool> g_tracing{false};

// Buffers are owned here, not by the threads, so spans recorded on pool
// workers survive the workers' exit until they are drained.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->index = static_cast<std::uint32_t>(g_registry.size());
    buffer->spans.reserve(1u << 14);
  }
  return *buffer;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) noexcept { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> drain_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  for (const auto& buffer : g_registry) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) noexcept : on_(tracing()), name_(name) {
  if (!on_) return;
  ThreadBuffer& b = thread_buffer();
  id_ = (static_cast<std::uint64_t>(b.index) << 40) | ++b.next_local;
  parent_ = b.current;
  b.current = id_;
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& b = thread_buffer();
  b.current = parent_;
  b.spans.push_back(Span{name_, id_, parent_, b.index, start_, end});
}

std::map<std::string, SpanTotals> summarize_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = s.start_ns;
      for (const auto& [lo, hi] : intervals) {
        const std::int64_t from = std::max(lo, cursor);
        const std::int64_t to = std::min(hi, s.end_ns);
        if (to > from) {
          covered += static_cast<double>(to - from);
          cursor = to;
        }
      }
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += static_cast<double>(s.duration_ns());
    t.self_ns += static_cast<double>(s.duration_ns()) - covered;
  }
  return out;
}

}  // namespace perfbench
