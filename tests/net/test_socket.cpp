/// Loopback TCP transport tests: SocketListener + SocketChannel carrying
/// the frame protocol, and the PlacementServer accept loop end to end.
/// Everything binds 127.0.0.1 on an ephemeral port — no fixed ports, no
/// external network.

#include "net/socket.hpp"

#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

// Allocation counting for the steady-state test below: every operator new
// on a thread that has switched counting on bumps its counter. The array,
// nothrow and sized forms all route through these. Kept out of line so the
// compiler pairs new with delete, not with the malloc/free inside them.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::uint64_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nubb {
namespace {

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.capacities = {1, 1, 4, 4};
  cfg.seed = 7;
  return cfg;
}

/// Accept one connection, with enough poll ticks to not flake on a slow
/// machine. Returns the connected descriptor.
int accept_one(SocketListener& listener) {
  for (int tick = 0; tick < 100; ++tick) {
    const int fd = listener.accept_for(100);
    if (fd >= 0) return fd;
  }
  return -1;
}

TEST(SocketTest, AcceptTimesOutWhenNobodyConnects) {
  SocketListener listener("127.0.0.1", 0);
  EXPECT_GT(listener.port(), 0u);
  EXPECT_EQ(listener.accept_for(10), -1);
}

TEST(SocketTest, FramesRoundTripOverLoopback) {
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  // Server side: accept one session, echo every frame back verbatim.
  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    Frame frame;
    while (channel.receive_frame(frame)) {
      channel.send_frame(frame.type, frame.payload);
    }
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  SnapshotResponse snap;
  snap.total_balls = 99;
  snap.counts = {1, 2, 96};
  send_message(client, snap);
  Frame frame;
  ASSERT_TRUE(client.receive_frame(frame));
  EXPECT_EQ(decode_message<SnapshotResponse>(frame), snap);

  // Half-close: the server sees clean EOF and its loop ends.
  client.shutdown_write();
  ASSERT_FALSE(client.receive_frame(frame));
  server.join();
}

TEST(SocketTest, ServiceSessionOverTcpMatchesDirectCalls) {
  PlacementService served(small_config());
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    served.serve(channel);
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  const auto batch =
      round_trip<BatchPlaceResponse>(client, BatchPlaceRequest{kNoTicket, 10, 1});
  EXPECT_EQ(batch.placed, 10u);
  const auto snap = round_trip<SnapshotResponse>(client, SnapshotRequest{});
  client.shutdown_write();
  server.join();

  // The same config driven directly (no sockets) must land identically.
  PlacementService direct(small_config());
  direct.batch_place(BatchPlaceRequest{kNoTicket, 10, 1});
  EXPECT_EQ(snap, direct.snapshot());
}

TEST(SocketTest, ServerErrorsTravelAsServeError) {
  PlacementService served(small_config());
  SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  std::thread server([&] {
    const int fd = accept_one(listener);
    ASSERT_GE(fd, 0);
    SocketChannel channel(fd);
    served.serve(channel);
  });

  SocketChannel client = SocketChannel::connect("127.0.0.1", port);
  EXPECT_THROW((void)round_trip<LookupResponse>(client, LookupRequest{999}), ServeError);
  // The semantic error must not have killed the session.
  const auto ok = round_trip<LookupResponse>(client, LookupRequest{0});
  EXPECT_EQ(ok.bin, 0u);
  client.shutdown_write();
  server.join();
}

TEST(SocketTest, ConnectToUnboundPortFails) {
  // Bind and immediately release a port so nothing is listening on it.
  std::uint16_t dead_port = 0;
  { dead_port = SocketListener("127.0.0.1", 0).port(); }
  EXPECT_THROW((void)SocketChannel::connect("127.0.0.1", dead_port), WireError);
}

TEST(PlacementServerTest, ServesConcurrentClientsUntilShutdown) {
  PlacementService service(small_config());
  ServerConfig cfg;
  cfg.session_threads = 4;
  cfg.accept_poll_ms = 20;
  PlacementServer server(service, cfg);
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0u);

  std::uint64_t sessions_served = 0;
  std::thread daemon([&] { sessions_served = server.run(); });

  constexpr int kClients = 3;
  constexpr std::uint64_t kBallsEach = 2;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      SocketChannel channel = SocketChannel::connect("127.0.0.1", port);
      const auto resp =
          round_trip<BatchPlaceResponse>(channel, BatchPlaceRequest{kNoTicket, kBallsEach, 1});
      EXPECT_EQ(resp.placed, kBallsEach);
      channel.shutdown_write();
    });
  }
  for (std::thread& t : clients) t.join();

  // A served Shutdown request ends the accept loop; run() drains and returns.
  {
    SocketChannel channel = SocketChannel::connect("127.0.0.1", port);
    (void)round_trip<ShutdownResponse>(channel, ShutdownRequest{});
  }
  daemon.join();

  EXPECT_EQ(sessions_served, static_cast<std::uint64_t>(kClients) + 1);
  EXPECT_EQ(service.balls_placed(), kClients * kBallsEach);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(PlacementServerTest, StopEndsRunWithoutAServedShutdown) {
  PlacementService service(small_config());
  ServerConfig cfg;
  cfg.accept_poll_ms = 10;
  PlacementServer server(service, cfg);
  std::thread daemon([&] { server.run(); });
  server.stop();
  daemon.join();
  EXPECT_FALSE(service.shutdown_requested());
}

// --- the buffered transport over a socketpair ------------------------------

/// A connected pair of stream sockets, each end adopted by a SocketChannel
/// or driven raw by a test acting as the peer.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
};

/// A thread joined when it leaves scope, so a failed assertion that returns
/// early cannot leave it running.
class JoiningThread {
 public:
  template <typename F>
  explicit JoiningThread(F&& body) : thread_(std::forward<F>(body)) {}
  JoiningThread(const JoiningThread&) = delete;
  JoiningThread& operator=(const JoiningThread&) = delete;
  ~JoiningThread() { thread_.join(); }

 private:
  std::thread thread_;
};

/// Write `size` bytes from `data` to `fd` (the raw peer side).
void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Block until the reader at `fd` has taken every byte queued for it, so
/// the next write arrives as a separate segment (bounded, never hangs).
void wait_drained(int fd) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int queued = 0;
  while (::ioctl(fd, FIONREAD, &queued) == 0 && queued > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// The byte stream of `frames`, encoded by the channel code itself.
std::string stream_bytes(const std::vector<Frame>& frames) {
  std::stringstream wire;
  StreamChannel channel(wire, wire);
  for (const Frame& f : frames) channel.send_frame(f.type, f.payload);
  return wire.str();
}

/// A mixed frame sequence: fixed-size messages, an empty payload, and one
/// Snapshot larger than the receive buffer.
std::vector<Frame> mixed_frames() {
  SnapshotResponse snap;
  snap.total_balls = 12345;
  for (std::uint64_t i = 0; i < 700; ++i) snap.counts.push_back(i * 31 % 17);
  std::vector<Frame> frames;
  const auto add = [&frames](MessageType type, const auto& msg) {
    WireWriter w;
    msg.encode(w);
    frames.push_back(Frame{type, w.bytes()});
  };
  add(MessageType::kPlaceRequest, PlaceRequest{5, 1});
  add(MessageType::kStatsRequest, StatsRequest{});
  add(MessageType::kSnapshotResponse, snap);
  add(MessageType::kBatchPlaceRequest, BatchPlaceRequest{6, 1024, 1});
  add(MessageType::kErrorResponse, ErrorResponse{"no such bin"});
  add(MessageType::kPlaceResponse, PlaceResponse{3, 9, 10});
  return frames;
}

void expect_same_frame(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(SocketTransportTest, OneWriteCallPerFrame) {
  const SocketPair fds;
  SocketChannel sender(fds.a);
  const std::vector<Frame> frames = mixed_frames();
  for (const Frame& f : frames) sender.send_frame(f.type, f.payload);
  EXPECT_EQ(sender.write_calls(), frames.size());
  EXPECT_EQ(sender.read_calls(), 0u);

  // The peer sees exactly the header-then-payload bytes of each frame.
  const std::string expected = stream_bytes(frames);
  EXPECT_EQ(sender.bytes_sent(), expected.size());
  std::string got(expected.size(), '\0');
  std::size_t have = 0;
  while (have < got.size()) {
    const ssize_t n = ::recv(fds.b, got.data() + have, got.size() - have, 0);
    ASSERT_GT(n, 0);
    have += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got, expected);
  ::close(fds.b);
}

TEST(SocketTransportTest, BackToBackSmallFramesShareReadCalls) {
  const SocketPair fds;
  SocketChannel sender(fds.a);
  SocketChannel receiver(fds.b);
  constexpr std::uint64_t kFrames = 32;
  for (std::uint64_t i = 0; i < kFrames; ++i) send_message(sender, PlaceRequest{i, 1});
  Frame frame;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(receiver.receive_frame(frame));
    EXPECT_EQ(decode_message<PlaceRequest>(frame).ticket, i);
  }
  EXPECT_LT(receiver.read_calls(), kFrames);
  EXPECT_EQ(receiver.bytes_received(), sender.bytes_sent());
}

TEST(SocketTransportTest, MoveCarriesCountersAndBufferedBytes) {
  const SocketPair fds;
  SocketChannel sender(fds.a);
  SocketChannel first(fds.b);
  send_message(sender, PlaceRequest{1, 1});
  send_message(sender, LookupRequest{42});
  sender.shutdown_write();  // a lost buffered frame reads as EOF, not a hang

  Frame frame;
  ASSERT_TRUE(first.receive_frame(frame));
  EXPECT_EQ(decode_message<PlaceRequest>(frame).ticket, 1u);
  // Both frames arrived in that one recv: the second is buffered.
  ASSERT_EQ(first.read_calls(), 1u);

  std::vector<SocketChannel> moved;
  moved.push_back(std::move(first));
  moved.reserve(8);  // and once more, through the vector's reallocation
  SocketChannel& channel = moved.front();
  EXPECT_EQ(channel.fd(), fds.b);
  EXPECT_EQ(channel.bytes_received(), kFrameHeaderBytes + 16);
  EXPECT_EQ(channel.read_calls(), 1u);
  ASSERT_TRUE(channel.receive_frame(frame));
  EXPECT_EQ(decode_message<LookupRequest>(frame).bin, 42u);
  EXPECT_EQ(channel.read_calls(), 1u);
  EXPECT_EQ(channel.bytes_received(), sender.bytes_sent());

  send_message(channel, PlaceResponse{0, 1, 1});
  SocketChannel sender_moved(std::move(sender));
  EXPECT_EQ(sender_moved.write_calls(), 2u);
  ASSERT_TRUE(sender_moved.receive_frame(frame));
  EXPECT_EQ(decode_message<PlaceResponse>(frame).balls, 1u);
}

TEST(SocketTransportTest, AnySegmentationDecodesToTheSameFrames) {
  const std::vector<Frame> frames = mixed_frames();
  const std::string bytes = stream_bytes(frames);
  ASSERT_GT(frames[2].payload.size(), SocketChannel::kReceiveBufferBytes);

  // Seeded chunk plans: all 1-byte chunks, the whole stream at once, and
  // random sizes from 1 byte up to the rest of the stream.
  std::vector<std::vector<std::size_t>> plans;
  plans.emplace_back(bytes.size(), 1);
  plans.push_back({bytes.size()});
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> plan;
    for (std::size_t left = bytes.size(); left > 0;) {
      // Log-uniform sizes: splits inside headers are as likely as
      // chunks spanning several frames.
      const double e = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      const auto size = static_cast<std::size_t>(std::pow(static_cast<double>(left), e));
      plan.push_back(std::clamp<std::size_t>(size, 1, left));
      left -= plan.back();
    }
    plans.push_back(std::move(plan));
  }

  for (std::size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE("chunk plan " + std::to_string(p));
    const SocketPair fds;
    // Each chunk is written only once the reader took the previous one,
    // so the reader's recv calls see exactly this segmentation.
    JoiningThread writer([&] {
      const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
      for (const std::size_t chunk : plans[p]) {
        write_all(fds.a, data, chunk);
        data += chunk;
        wait_drained(fds.b);
      }
      ::close(fds.a);
    });
    SocketChannel reader(fds.b);
    Frame frame;
    for (const Frame& want : frames) {
      ASSERT_TRUE(reader.receive_frame(frame));
      expect_same_frame(frame, want);
    }
    EXPECT_FALSE(reader.receive_frame(frame));  // clean EOF at a boundary
    EXPECT_EQ(reader.bytes_received(), bytes.size());
  }
}

TEST(SocketTransportTest, LegacyPeerWritingHeaderAndPayloadSeparatelyWorks) {
  const std::vector<Frame> frames = mixed_frames();
  const SocketPair fds;
  JoiningThread writer([&] {
    for (const Frame& f : frames) {
      const std::string one = stream_bytes({f});
      const auto* data = reinterpret_cast<const std::uint8_t*>(one.data());
      write_all(fds.a, data, kFrameHeaderBytes);
      wait_drained(fds.b);
      write_all(fds.a, data + kFrameHeaderBytes, one.size() - kFrameHeaderBytes);
      wait_drained(fds.b);
    }
    ::close(fds.a);
  });
  SocketChannel reader(fds.b);
  Frame frame;
  for (const Frame& want : frames) {
    ASSERT_TRUE(reader.receive_frame(frame));
    expect_same_frame(frame, want);
  }
  EXPECT_FALSE(reader.receive_frame(frame));
}

TEST(SocketTransportTest, TruncatedPayloadThenEofThrows) {
  const SocketPair fds;
  const std::string one =
      stream_bytes({Frame{MessageType::kPlaceRequest, std::vector<std::uint8_t>(16, 7)}});
  write_all(fds.a, reinterpret_cast<const std::uint8_t*>(one.data()), one.size() - 5);
  ::close(fds.a);
  SocketChannel reader(fds.b);
  Frame frame;
  EXPECT_THROW(reader.receive_frame(frame), WireError);
}

TEST(SocketTransportTest, FrameAfterAValidOneInTheSameReadIsStillChecked) {
  // A valid frame and a bad-magic frame arrive in one recv: the first
  // decodes, the second is rejected — the buffer hands out no stray bytes.
  const SocketPair fds;
  std::string bytes = stream_bytes(mixed_frames());
  const std::size_t first = stream_bytes({mixed_frames()[0]}).size();
  bytes[first] = 'X';
  write_all(fds.a, reinterpret_cast<const std::uint8_t*>(bytes.data()), first + kFrameHeaderBytes);
  SocketChannel reader(fds.b);
  Frame frame;
  ASSERT_TRUE(reader.receive_frame(frame));
  expect_same_frame(frame, mixed_frames()[0]);
  EXPECT_THROW(reader.receive_frame(frame), WireError);
  EXPECT_EQ(reader.read_calls(), 1u);
  ::close(fds.a);
}

TEST(SocketTransportTest, OversizeLengthIsRejectedBeforeAnyPayloadAllocation) {
  // A header claiming 1 MiB + 1 against a 1 MiB limit, with no payload
  // behind it: the channel must refuse without reserving (or awaiting) it.
  const SocketPair fds;
  std::string header = stream_bytes({Frame{MessageType::kPlaceRequest, {}}});
  header[8] = 0x01;  // length field, little-endian: 0x00100001
  header[9] = 0x00;
  header[10] = 0x10;
  header[11] = 0x00;
  write_all(fds.a, reinterpret_cast<const std::uint8_t*>(header.data()), header.size());
  SocketChannel reader(fds.b, /*max_frame_bytes=*/1u << 20);
  Frame frame;
  EXPECT_THROW(reader.receive_frame(frame), WireError);
  EXPECT_EQ(frame.payload.capacity(), 0u);
  ::close(fds.a);
}

TEST(SocketTransportTest, SnapshotLargerThanTheReceiveBufferRoundTrips) {
  const SocketPair fds;
  SocketChannel sender(fds.a);
  SocketChannel receiver(fds.b);
  SnapshotResponse snap;
  snap.total_balls = 1;
  snap.shards = {{0, 5000, 7, 0xAA}, {5000, 5000, 9, 0xBB}};
  for (std::uint64_t i = 0; i < 10000; ++i) snap.counts.push_back(i ^ 0x5A5A);
  Frame frame;
  {
    JoiningThread writer([&] { send_message(sender, snap); });
    ASSERT_TRUE(receiver.receive_frame(frame));
  }
  EXPECT_EQ(decode_message<SnapshotResponse>(frame), snap);
  // The payload beyond the first buffer-full was received in place, not
  // through buffer-sized reads.
  EXPECT_LT(receiver.read_calls(), frame.payload.size() / SocketChannel::kReceiveBufferBytes);
  EXPECT_EQ(sender.write_calls(), 1u);
}

TEST(SocketTransportTest, SteadyStatePlaceRoundTripsDoNotAllocate) {
  const SocketPair fds;
  SocketChannel client(fds.a);
  SocketChannel server(fds.b);
  Frame at_server;
  Frame at_client;
  const auto one_round = [&](std::uint64_t i) {
    send_message(client, PlaceRequest{i, 1});
    ASSERT_TRUE(server.receive_frame(at_server));
    const Request req = decode_request(at_server);
    ASSERT_EQ(std::get<PlaceRequest>(req).ticket, i);
    send_message(server, PlaceResponse{i, i + 1, 10});
    ASSERT_TRUE(client.receive_frame(at_client));
    ASSERT_EQ(decode_message<PlaceResponse>(at_client).bin, i);
  };
  for (std::uint64_t i = 0; i < 4; ++i) one_round(i);  // warm the buffers

  t_allocations = 0;
  t_count_allocations = true;
  for (std::uint64_t i = 4; i < 104; ++i) one_round(i);
  t_count_allocations = false;
  EXPECT_EQ(t_allocations, 0u);
  EXPECT_EQ(client.write_calls(), 104u);
  EXPECT_EQ(server.read_calls(), 104u);
}

}  // namespace
}  // namespace nubb
