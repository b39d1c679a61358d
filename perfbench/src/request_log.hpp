#pragma once
/// \file request_log.hpp
/// The seeded request log of the served workload: what one client
/// connection sends, generated from a seed so the same seed gives the same
/// requests, and replayable without a daemon.
///
/// Mix: 90% Place (one ball), 8% BatchPlace of kBatchCount balls, 2%
/// Lookup of a uniformly random bin, and every kSnapshotEvery-th request is
/// a Snapshot instead. Request counts are dominated by single-ball Place,
/// which is bound by the round trip; balls are dominated by BatchPlace,
/// which is bound by the kernel; Snapshot takes every shard lock.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kPlace = 0, kBatchPlace = 1, kLookup = 2, kSnapshot = 3 };
inline constexpr int kOpCount = 4;

/// Stable metric spelling of an op ("place", "batch_place", "lookup",
/// "snapshot").
const char* op_name(Op op) noexcept;

struct LoggedRequest {
  Op op = Op::kPlace;
  std::uint64_t arg = 0;  ///< balls for BatchPlace, bin for Lookup, else 0
  bool operator==(const LoggedRequest&) const = default;
};

inline constexpr std::uint64_t kBatchCount = 1024;
inline constexpr std::uint64_t kSnapshotEvery = 1000;

/// Unbounded generator of one connection's requests.
class RequestLog {
 public:
  RequestLog(std::uint64_t seed, std::uint64_t bins);
  LoggedRequest next();

  /// The first `count` requests of the log for (seed, bins).
  static std::vector<LoggedRequest> take(std::uint64_t seed, std::uint64_t bins,
                                         std::size_t count);

 private:
  nubb::Xoshiro256StarStar rng_;
  std::uint64_t bins_;
  std::uint64_t index_ = 0;
};

/// Balls a request places (0 for reads).
inline std::uint64_t balls_of(const LoggedRequest& r) noexcept {
  return r.op == Op::kPlace ? 1 : r.op == Op::kBatchPlace ? r.arg : 0;
}

}  // namespace perfbench
