#include "request_log.hpp"

#include <stdexcept>

namespace perfbench {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kPlace: return "place";
    case Op::kBatchPlace: return "batch_place";
    case Op::kLookup: return "lookup";
    case Op::kSnapshot: return "snapshot";
  }
  return "unknown";
}

RequestLog::RequestLog(std::uint64_t seed, std::uint64_t bins)
    : rng_(nubb::mix_seed(seed, 0x5E4E1060ULL)), bins_(bins) {
  if (bins == 0) throw std::invalid_argument("RequestLog: no bins");
}

LoggedRequest RequestLog::next() {
  ++index_;
  if (index_ % kSnapshotEvery == 0) return {Op::kSnapshot, 0};
  // Percent buckets: [0, 90) Place, [90, 98) BatchPlace, [98, 100) Lookup.
  const std::uint64_t bucket = rng_.bounded(100);
  if (bucket < 90) return {Op::kPlace, 0};
  if (bucket < 98) return {Op::kBatchPlace, kBatchCount};
  return {Op::kLookup, rng_.bounded(bins_)};
}

std::vector<LoggedRequest> RequestLog::take(std::uint64_t seed, std::uint64_t bins,
                                            std::size_t count) {
  RequestLog log(seed, bins);
  std::vector<LoggedRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(log.next());
  return out;
}

}  // namespace perfbench
