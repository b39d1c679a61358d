#pragma once

/// \file protocol.hpp
/// The serving wire API: one request/response struct per operation with
/// to/from-wire round-trip functions shared by the daemon and every
/// client, so the two sides cannot drift apart byte by byte.
///
/// Operations (docs/serving.md has the full field tables):
///
///   Place      — place one ball, returns its destination bin
///   BatchPlace — place `count` balls in one request (lock and syscall
///                amortization; the response summarises, Lookup/Snapshot
///                answer state queries)
///   Lookup     — one bin's ball count and capacity
///   Snapshot   — full per-bin ball counts + state fingerprint
///   Stats      — op counters and place-latency histogram
///   Shutdown   — end the session and stop the daemon accepting
///
/// Deterministic replay: a request may carry a `ticket` (a global request
/// sequence number). The service commits ticketed requests in strictly
/// increasing ticket order regardless of which session they arrive on, so
/// N concurrent clients replaying disjoint ticket sets reproduce the
/// offline single-threaded game bit for bit. `kNoTicket` skips ordering
/// (the load-generator path).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/channel.hpp"
#include "net/wire.hpp"

namespace nubb {

/// Sentinel: this request does not participate in ticket ordering.
inline constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};

/// Server-side rejection of a well-formed request (unknown bin, exhausted
/// horizon, ...). Travels as an ErrorResponse; clients rethrow it.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

// --- requests --------------------------------------------------------------

struct PlaceRequest {
  static constexpr MessageType kType = MessageType::kPlaceRequest;
  std::uint64_t ticket = kNoTicket;
  std::uint64_t weight = 1;  ///< reserved: v1 servers accept only 1

  void encode(WireWriter& w) const;
  static PlaceRequest decode(WireReader& r);
  bool operator==(const PlaceRequest&) const = default;
};

struct BatchPlaceRequest {
  static constexpr MessageType kType = MessageType::kBatchPlaceRequest;
  std::uint64_t ticket = kNoTicket;
  std::uint64_t count = 1;   ///< unit balls to place in one critical section
  std::uint64_t weight = 1;  ///< reserved: v1 servers accept only 1

  void encode(WireWriter& w) const;
  static BatchPlaceRequest decode(WireReader& r);
  bool operator==(const BatchPlaceRequest&) const = default;
};

struct LookupRequest {
  static constexpr MessageType kType = MessageType::kLookupRequest;
  std::uint64_t bin = 0;

  void encode(WireWriter& w) const;
  static LookupRequest decode(WireReader& r);
  bool operator==(const LookupRequest&) const = default;
};

struct SnapshotRequest {
  static constexpr MessageType kType = MessageType::kSnapshotRequest;

  void encode(WireWriter& w) const;
  static SnapshotRequest decode(WireReader& r);
  bool operator==(const SnapshotRequest&) const = default;
};

struct StatsRequest {
  static constexpr MessageType kType = MessageType::kStatsRequest;

  void encode(WireWriter& w) const;
  static StatsRequest decode(WireReader& r);
  bool operator==(const StatsRequest&) const = default;
};

struct ShutdownRequest {
  static constexpr MessageType kType = MessageType::kShutdownRequest;

  void encode(WireWriter& w) const;
  static ShutdownRequest decode(WireReader& r);
  bool operator==(const ShutdownRequest&) const = default;
};

// --- responses -------------------------------------------------------------

struct PlaceResponse {
  static constexpr MessageType kType = MessageType::kPlaceResponse;
  std::uint64_t bin = 0;       ///< destination bin index
  std::uint64_t balls = 0;     ///< its ball count after the placement
  std::uint64_t capacity = 1;  ///< its capacity

  void encode(WireWriter& w) const;
  static PlaceResponse decode(WireReader& r);
  bool operator==(const PlaceResponse&) const = default;
};

struct BatchPlaceResponse {
  static constexpr MessageType kType = MessageType::kBatchPlaceResponse;
  std::uint64_t placed = 0;        ///< balls committed by this request
  std::uint64_t total_balls = 0;   ///< served total after the batch
  std::uint64_t max_load_num = 0;  ///< running maximum load, numerator
  std::uint64_t max_load_cap = 1;  ///< running maximum load, capacity
  std::uint64_t argmax_bin = 0;    ///< a bin attaining the maximum

  void encode(WireWriter& w) const;
  static BatchPlaceResponse decode(WireReader& r);
  bool operator==(const BatchPlaceResponse&) const = default;
};

struct LookupResponse {
  static constexpr MessageType kType = MessageType::kLookupResponse;
  std::uint64_t bin = 0;
  std::uint64_t balls = 0;
  std::uint64_t capacity = 1;

  void encode(WireWriter& w) const;
  static LookupResponse decode(WireReader& r);
  bool operator==(const LookupResponse&) const = default;
};

/// Per-shard provenance inside a SnapshotResponse (sharded daemons only).
struct ShardSnapshot {
  std::uint64_t first_bin = 0;    ///< first global bin index of the range
  std::uint64_t bins = 0;         ///< bins in the range
  std::uint64_t balls = 0;        ///< numerator total committed to the range
  std::uint64_t fingerprint = 0;  ///< FNV-1a of the range's slots alone

  bool operator==(const ShardSnapshot&) const = default;
};

struct SnapshotResponse {
  static constexpr MessageType kType = MessageType::kSnapshotResponse;
  std::uint64_t total_balls = 0;
  std::uint64_t total_capacity = 0;
  std::uint64_t max_load_num = 0;
  std::uint64_t max_load_cap = 1;
  std::uint64_t fingerprint = 0;       ///< BinArray::fingerprint() of the state
  std::vector<std::uint64_t> counts;   ///< per-bin ball counts, bin order

  /// Shard provenance, in bin-range order. Present only when the daemon
  /// runs 2+ placement shards — a single-shard daemon emits the exact PR-8
  /// byte layout, which is what keeps old clients parsing (versioning rule
  /// 3: additive evolution within a version via an optional trailing
  /// block). Each shard fingerprint is the standalone FNV-1a of its own
  /// slot range (verifiable against `counts`); byte-folding the ranges in
  /// order — BinArrayView::fingerprint_fold — reproduces the top-level
  /// `fingerprint`.
  std::vector<ShardSnapshot> shards;

  void encode(WireWriter& w) const;
  static SnapshotResponse decode(WireReader& r);
  bool operator==(const SnapshotResponse&) const = default;
};

/// Per-operation counters inside a StatsResponse.
struct OpStat {
  std::uint16_t op = 0;         ///< MessageType of the request
  std::uint64_t count = 0;      ///< requests served
  std::uint64_t total_ns = 0;   ///< summed wall time inside the service

  bool operator==(const OpStat&) const = default;
};

/// Wire form of a util/histogram.hpp Histogram (fixed-width cells plus
/// range-escape counters); enough to compute any percentile client-side.
struct WireHistogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::uint64_t> counts;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;

  /// Total samples including the escape counters.
  std::uint64_t total() const noexcept;

  /// Upper-bound quantile over the recorded samples: the cell upper edge
  /// (or `hi` for overflow) below which at least fraction `q` of the
  /// samples fall. Conservative for SLO reporting — never understates.
  double quantile_upper(double q) const;

  bool operator==(const WireHistogram&) const = default;
};

/// Per-shard provenance inside a StatsResponse (sharded daemons only).
struct ShardStat {
  std::uint64_t first_bin = 0;      ///< first global bin index of the range
  std::uint64_t bins = 0;           ///< bins in the range
  std::uint64_t balls_placed = 0;   ///< balls committed through this shard

  bool operator==(const ShardStat&) const = default;
};

struct StatsResponse {
  static constexpr MessageType kType = MessageType::kStatsResponse;
  std::uint64_t uptime_ns = 0;
  std::uint64_t sessions = 0;       ///< sessions served (incl. live ones)
  std::uint64_t balls_placed = 0;   ///< balls committed so far (all shards)
  std::vector<OpStat> ops;          ///< one entry per op type seen
  WireHistogram place_latency_us;   ///< Place/BatchPlace service time, µs
                                    ///< (fold of the per-shard histograms)

  /// Shard provenance, present only when the daemon runs 2+ placement
  /// shards (same optional-trailing-block rule as SnapshotResponse::shards;
  /// a single-shard daemon emits the exact PR-8 layout).
  /// `session_threads` is the daemon's session pool size — nubb_load uses
  /// it to default the per-core divisor honestly once the server shards.
  std::uint32_t service_shards = 1;
  std::uint32_t session_threads = 0;
  std::vector<ShardStat> shards;

  void encode(WireWriter& w) const;
  static StatsResponse decode(WireReader& r);
  bool operator==(const StatsResponse&) const = default;
};

struct ShutdownResponse {
  static constexpr MessageType kType = MessageType::kShutdownResponse;

  void encode(WireWriter& w) const;
  static ShutdownResponse decode(WireReader& r);
  bool operator==(const ShutdownResponse&) const = default;
};

struct ErrorResponse {
  static constexpr MessageType kType = MessageType::kErrorResponse;
  std::string message;

  void encode(WireWriter& w) const;
  static ErrorResponse decode(WireReader& r);
  bool operator==(const ErrorResponse&) const = default;
};

// --- framing helpers shared by daemon and client ---------------------------

/// Every request the service understands, in one decodable sum type.
using Request = std::variant<PlaceRequest, BatchPlaceRequest, LookupRequest, SnapshotRequest,
                             StatsRequest, ShutdownRequest>;

/// Decode a received frame into a Request. \throws WireError on a
/// non-request frame type or malformed payload.
Request decode_request(const Frame& frame);

/// Encode and send one message (request or response), encoding straight
/// into the channel's reused send buffer.
template <typename Msg>
void send_message(Channel& channel, const Msg& msg) {
  channel.send_encoded(Msg::kType, [&msg](WireWriter& w) { msg.encode(w); });
}

/// Decode a frame known to carry `Msg`. \throws WireError on type
/// mismatch or malformed/overlong payload.
template <typename Msg>
Msg decode_message(const Frame& frame) {
  if (frame.type != Msg::kType) {
    throw WireError("protocol: unexpected frame type " +
                    std::to_string(static_cast<int>(frame.type)));
  }
  WireReader r(frame.payload);
  Msg msg = Msg::decode(r);
  r.expect_end();
  return msg;
}

/// Client side of one round trip: send the request, receive one frame,
/// decode the matching response. An ErrorResponse from the server is
/// rethrown as ServeError; a closed stream or a type mismatch is a
/// WireError.
template <typename Resp, typename Req>
Resp round_trip(Channel& channel, const Req& request) {
  send_message(channel, request);
  Frame frame;
  if (!channel.receive_frame(frame)) {
    throw WireError("protocol: server closed the stream before responding");
  }
  if (frame.type == MessageType::kErrorResponse) {
    throw ServeError(decode_message<ErrorResponse>(frame).message);
  }
  return decode_message<Resp>(frame);
}

}  // namespace nubb
