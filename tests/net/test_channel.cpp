#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/wire.hpp"

namespace nubb {
namespace {

// --- WireWriter / WireReader -----------------------------------------------

TEST(WireTest, ScalarsRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.25);
  w.str("hello");
  w.u64_vec({1, 2, 3});

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(WireTest, LittleEndianOnTheWire) {
  WireWriter w;
  w.u32(0x11223344u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x44);
  EXPECT_EQ(b[1], 0x33);
  EXPECT_EQ(b[2], 0x22);
  EXPECT_EQ(b[3], 0x11);
}

TEST(WireTest, TruncatedReadThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireTest, TrailingBytesAreAnError) {
  WireWriter w;
  w.u32(7);
  w.u8(1);
  WireReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW(r.expect_end(), WireError);
}

TEST(WireTest, VecCountBeyondPayloadThrows) {
  // A u64_vec claiming more elements than the payload could possibly hold
  // must be rejected before any allocation is attempted.
  WireWriter w;
  w.u64(1u << 30);  // count
  w.u64(42);        // one actual element
  WireReader r(w.bytes());
  EXPECT_THROW(r.u64_vec(), WireError);
}

TEST(WireTest, WriterReusesItsCapacity) {
  // A fresh writer holds any fixed-size message without growing...
  WireWriter fresh;
  const std::uint8_t* initial = fresh.bytes().data();
  BatchPlaceResponse{1, 2, 3, 4, 5}.encode(fresh);
  EXPECT_EQ(fresh.bytes().data(), initial);

  // ...and clear() keeps whatever capacity a large message left behind.
  WireWriter w;
  SnapshotResponse snap;
  snap.counts.assign(1000, 7);
  snap.encode(w);
  const std::uint8_t* grown = w.bytes().data();
  w.clear();
  EXPECT_TRUE(w.bytes().empty());
  snap.encode(w);
  EXPECT_EQ(w.bytes().data(), grown);
}

// --- frame round trips for every protocol message ---------------------------

/// Send and re-decode one message through an in-process StreamChannel.
template <typename Msg>
Msg frame_round_trip(const Msg& msg) {
  std::stringstream wire;
  StreamChannel out_channel(wire, wire);
  send_message(out_channel, msg);
  Frame frame;
  EXPECT_TRUE(out_channel.receive_frame(frame));
  EXPECT_EQ(frame.type, Msg::kType);
  return decode_message<Msg>(frame);
}

TEST(ChannelRoundTrip, EveryProtocolMessage) {
  PlaceRequest place;
  place.ticket = 17;
  EXPECT_EQ(frame_round_trip(place), place);

  BatchPlaceRequest batch;
  batch.ticket = 3;
  batch.count = 1000;
  EXPECT_EQ(frame_round_trip(batch), batch);

  LookupRequest lookup{42};
  EXPECT_EQ(frame_round_trip(lookup), lookup);

  EXPECT_EQ(frame_round_trip(SnapshotRequest{}), SnapshotRequest{});
  EXPECT_EQ(frame_round_trip(StatsRequest{}), StatsRequest{});
  EXPECT_EQ(frame_round_trip(ShutdownRequest{}), ShutdownRequest{});

  PlaceResponse presp{7, 3, 10};
  EXPECT_EQ(frame_round_trip(presp), presp);

  BatchPlaceResponse bresp{1000, 5000, 7, 2, 13};
  EXPECT_EQ(frame_round_trip(bresp), bresp);

  LookupResponse lresp{42, 9, 10};
  EXPECT_EQ(frame_round_trip(lresp), lresp);

  SnapshotResponse sresp;
  sresp.total_balls = 100;
  sresp.total_capacity = 220;
  sresp.max_load_num = 5;
  sresp.max_load_cap = 10;
  sresp.fingerprint = 0xFEEDFACEull;
  sresp.counts = {1, 2, 3, 94};
  EXPECT_EQ(frame_round_trip(sresp), sresp);

  StatsResponse stats;
  stats.uptime_ns = 123456789;
  stats.sessions = 4;
  stats.balls_placed = 100;
  stats.ops = {{1, 100, 5000}, {2, 3, 900}};
  stats.place_latency_us.lo = 0.0;
  stats.place_latency_us.hi = 1000.0;
  stats.place_latency_us.counts = {0, 10, 90};
  stats.place_latency_us.overflow = 3;
  EXPECT_EQ(frame_round_trip(stats), stats);

  EXPECT_EQ(frame_round_trip(ShutdownResponse{}), ShutdownResponse{});

  ErrorResponse err{"bin 42 out of range"};
  EXPECT_EQ(frame_round_trip(err), err);
}

TEST(ChannelRoundTrip, ShardProvenanceBlocksSurviveTheWire) {
  // The sharded daemon's optional trailing blocks (versioning rule 3):
  // present only with 2+ shards, and every field must round-trip.
  SnapshotResponse sresp;
  sresp.total_balls = 100;
  sresp.total_capacity = 220;
  sresp.max_load_num = 5;
  sresp.max_load_cap = 10;
  sresp.fingerprint = 0xFEEDFACEull;
  sresp.counts = {1, 2, 3, 94};
  sresp.shards = {{0, 2, 3, 0xAAAAull}, {2, 2, 97, 0xBBBBull}};
  EXPECT_EQ(frame_round_trip(sresp), sresp);

  StatsResponse stats;
  stats.uptime_ns = 99;
  stats.sessions = 2;
  stats.balls_placed = 100;
  stats.ops = {{1, 100, 5000}};
  stats.place_latency_us.counts = {100};
  stats.service_shards = 2;  // the decoder recomputes this from the block
  stats.session_threads = 8;
  stats.shards = {{0, 2, 60}, {2, 2, 40}};
  EXPECT_EQ(frame_round_trip(stats), stats);
}

TEST(ChannelRoundTrip, DecodeRequestDispatchesEveryRequestType) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, PlaceRequest{});
  send_message(channel, BatchPlaceRequest{});
  send_message(channel, LookupRequest{5});
  send_message(channel, SnapshotRequest{});
  send_message(channel, StatsRequest{});
  send_message(channel, ShutdownRequest{});

  Frame frame;
  std::size_t seen = 0;
  while (channel.receive_frame(frame)) {
    EXPECT_NO_THROW((void)decode_request(frame));
    ++seen;
  }
  EXPECT_EQ(seen, 6u);
}

TEST(ChannelRoundTrip, ResponseFrameIsNotARequest) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, PlaceResponse{});
  Frame frame;
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_THROW((void)decode_request(frame), WireError);
}

// --- malformed frame rejection ----------------------------------------------

/// A valid one-frame byte string to corrupt.
std::string valid_frame_bytes() {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, LookupRequest{7});
  return wire.str();
}

TEST(ChannelMalformed, BadMagicThrows) {
  std::string bytes = valid_frame_bytes();
  bytes[0] = 'X';
  std::istringstream in(bytes);
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_THROW(channel.receive_frame(frame), WireError);
}

TEST(ChannelMalformed, WrongVersionThrows) {
  std::string bytes = valid_frame_bytes();
  bytes[4] = static_cast<char>(kWireVersion + 1);
  std::istringstream in(bytes);
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_THROW(channel.receive_frame(frame), WireError);
}

TEST(ChannelMalformed, OversizeLengthThrows) {
  std::string bytes = valid_frame_bytes();
  // Length field lives at header bytes 8..11 (LE); claim 256 MiB.
  bytes[8] = 0;
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 0x10;
  std::istringstream in(bytes);
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_THROW(channel.receive_frame(frame), WireError);
}

TEST(ChannelMalformed, TruncatedPayloadThrows) {
  const std::string bytes = valid_frame_bytes();
  std::istringstream in(bytes.substr(0, bytes.size() - 3));
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_THROW(channel.receive_frame(frame), WireError);
}

TEST(ChannelMalformed, TruncatedHeaderThrows) {
  std::istringstream in(valid_frame_bytes().substr(0, 5));
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_THROW(channel.receive_frame(frame), WireError);
}

TEST(ChannelMalformed, SendBeyondFrameLimitThrows) {
  std::stringstream wire;
  StreamChannel channel(wire, wire, /*max_frame_bytes=*/16);
  ErrorResponse big{std::string(64, 'x')};
  EXPECT_THROW(send_message(channel, big), WireError);
}

TEST(ChannelMalformed, PayloadShorterThanMessageThrows) {
  // Frame arrives intact but its payload is too short for the declared
  // type — the decoder, not the framing layer, must reject it.
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  channel.send_frame(MessageType::kLookupRequest, {0x01, 0x02});
  Frame frame;
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_THROW((void)decode_message<LookupRequest>(frame), WireError);
}

TEST(ChannelMalformed, OverlongPayloadForMessageThrows) {
  WireWriter w;
  LookupRequest{3}.encode(w);
  w.u32(0xBADu);  // trailing junk after a complete message
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  channel.send_frame(MessageType::kLookupRequest, w.bytes());
  Frame frame;
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_THROW((void)decode_message<LookupRequest>(frame), WireError);
}

/// Deliver raw payload bytes as a frame of the given type and decode them.
template <typename Msg>
Msg decode_payload(const std::vector<std::uint8_t>& payload) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  channel.send_frame(Msg::kType, payload);
  Frame frame;
  EXPECT_TRUE(channel.receive_frame(frame));
  return decode_message<Msg>(frame);
}

TEST(ChannelMalformed, ShardBlockWithFewerThanTwoShardsThrows) {
  // A trailing block is only legal when it describes a sharded daemon;
  // counts 0 and 1 are the encodings a correct peer can never produce.
  SnapshotResponse snap;
  snap.counts = {1, 2};
  for (const std::uint32_t bogus_count : {0u, 1u}) {
    WireWriter w;
    snap.encode(w);
    w.u32(bogus_count);
    for (std::uint32_t i = 0; i < bogus_count; ++i) {
      w.u64(0);
      w.u64(2);
      w.u64(3);
      w.u64(0xAA);
    }
    EXPECT_THROW((void)decode_payload<SnapshotResponse>(w.bytes()), WireError);
  }

  StatsResponse stats;
  stats.place_latency_us.counts = {1};
  WireWriter w;
  stats.encode(w);
  w.u32(1);  // shard count
  w.u32(4);  // session threads
  w.u64(0);
  w.u64(2);
  w.u64(3);
  EXPECT_THROW((void)decode_payload<StatsResponse>(w.bytes()), WireError);
}

TEST(ChannelMalformed, TruncatedShardBlockThrows) {
  // The count must be validated against the bytes actually present before
  // any allocation (same discipline as u64_vec).
  SnapshotResponse snap;
  snap.counts = {1, 2, 3, 4};
  snap.shards = {{0, 2, 3, 0xAAull}, {2, 2, 7, 0xBBull}};
  WireWriter w;
  snap.encode(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 8);  // drop the last shard field
  EXPECT_THROW((void)decode_payload<SnapshotResponse>(bytes), WireError);

  StatsResponse stats;
  stats.place_latency_us.counts = {1};
  stats.service_shards = 2;
  stats.session_threads = 4;
  stats.shards = {{0, 2, 3}, {2, 2, 7}};
  WireWriter ws;
  stats.encode(ws);
  std::vector<std::uint8_t> stat_bytes = ws.bytes();
  stat_bytes.resize(stat_bytes.size() - 8);
  EXPECT_THROW((void)decode_payload<StatsResponse>(stat_bytes), WireError);
}

// --- channel bookkeeping -----------------------------------------------------

TEST(ChannelTest, CleanEofAtFrameBoundaryReturnsFalse) {
  std::istringstream in;
  std::ostringstream out;
  StreamChannel channel(in, out);
  Frame frame;
  EXPECT_FALSE(channel.receive_frame(frame));
}

TEST(ChannelTest, ByteCountersTrackTraffic) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, SnapshotRequest{});
  EXPECT_EQ(channel.bytes_sent(), 12u);  // header-only frame
  Frame frame;
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_EQ(channel.bytes_received(), channel.bytes_sent());
}

TEST(ChannelTest, FrameIsHeaderThenPayloadInOneWrite) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  send_message(channel, LookupRequest{0x0102030405060708ull});
  // Magic "NUBB", version, type, payload length, then the bin; all LE.
  std::vector<std::uint8_t> expected = {'N', 'U', 'B', 'B', kWireVersion, 0, 3, 0, 8, 0, 0, 0};
  const std::vector<std::uint8_t> bin = {8, 7, 6, 5, 4, 3, 2, 1};
  expected.insert(expected.end(), bin.begin(), bin.end());
  const std::string bytes = wire.str();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), expected);
  EXPECT_EQ(channel.write_calls(), 1u);
  channel.send_frame(MessageType::kStatsRequest, {});
  EXPECT_EQ(channel.write_calls(), 2u);

  // A StreamChannel reads unbuffered: header and payload are one read each.
  Frame frame;
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_EQ(channel.read_calls(), 2u);
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_EQ(channel.read_calls(), 3u);
  EXPECT_EQ(frame.type, MessageType::kStatsRequest);
}

}  // namespace
}  // namespace nubb
