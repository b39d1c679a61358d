#pragma once

/// \file channel.hpp
/// Transport abstraction of the serving subsystem: framed, versioned
/// binary messages over an arbitrary byte pipe.
///
/// A frame is a fixed 12-byte header followed by the payload:
///
///   magic   u32  0x4242554E ("NUBB" little-endian) — stream sync check
///   version u16  kWireVersion — both sides must speak the same major
///   type    u16  MessageType of the payload (net/protocol.hpp)
///   length  u32  payload byte count, checked against max_frame_bytes
///
/// `Channel` is the interface the daemon, the client, and every test
/// speak; `StreamChannel` runs it over caller-supplied iostreams (the
/// deterministic in-process transport), `SocketChannel`
/// (net/socket.hpp) over blocking TCP. Patterned on APSI's network
/// layer (channel / stream_channel / zmq_channel): the protocol layer
/// never knows which transport carries its frames.
///
/// Thread discipline: one channel belongs to one session thread. Two
/// threads may own the two ends of a connected pair, but a single end is
/// never shared without external locking.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/wire.hpp"

namespace nubb {

/// Frame magic: "NUBB" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x4242554E;

/// Wire-format version. Bump on any incompatible header or message-layout
/// change; both sides refuse mismatched versions (docs/serving.md has the
/// compatibility rules).
inline constexpr std::uint16_t kWireVersion = 1;

/// Default receive-side payload ceiling. Large enough for a Snapshot of
/// ~8M bins; small enough that a corrupt length field cannot drive an
/// absurd allocation. Channels accept a custom limit for bigger arrays.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Message discriminator carried in every frame header. Requests occupy
/// the low range, responses the high range; kError can answer anything.
enum class MessageType : std::uint16_t {
  kPlaceRequest = 1,
  kBatchPlaceRequest = 2,
  kLookupRequest = 3,
  kSnapshotRequest = 4,
  kStatsRequest = 5,
  kShutdownRequest = 6,

  kPlaceResponse = 129,
  kBatchPlaceResponse = 130,
  kLookupResponse = 131,
  kSnapshotResponse = 132,
  kStatsResponse = 133,
  kShutdownResponse = 134,
  kErrorResponse = 255,
};

/// One received frame: the header's type plus the raw payload. The
/// protocol layer decodes the payload into a typed message.
struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::vector<std::uint8_t> payload;
};

/// Frame header size on the wire (magic, version, type, length).
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Framed bidirectional message transport.
///
/// Send path: every frame — header and payload — is assembled in one
/// reused per-channel buffer and handed to the transport in a single
/// write_bytes call, so a socket sends it as one segment and the buffer
/// stops allocating once it has held the largest frame sent.
///
/// Receive path: a transport may give the channel a fixed-size receive
/// buffer (SocketChannel does). Reads shorter than the buffer then fill
/// it with one read_bytes call, which usually returns a whole small frame
/// — or several — at once; reads of at least the buffer's size (the rest
/// of a large payload) go straight into the caller's memory. Without a
/// buffer every read goes straight through. Either way the channel
/// consumes exactly the bytes of one frame per receive_frame, so no byte
/// of one frame is ever handed out as part of another.
class Channel {
 public:
  explicit Channel(std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes,
                   std::size_t receive_buffer_bytes = 0)
      : max_frame_bytes_(max_frame_bytes), receive_buffer_(receive_buffer_bytes) {}
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Send one frame (header + payload), atomically from the peer's view.
  /// \throws WireError when the payload exceeds max_frame_bytes,
  ///         std::runtime_error on transport failure.
  void send_frame(MessageType type, const std::vector<std::uint8_t>& payload);

  /// Send one frame whose payload `encode(WireWriter&)` writes directly
  /// behind the header in the channel's send buffer (no payload copy).
  /// Same guarantees and errors as send_frame.
  template <typename Encode>
  void send_encoded(MessageType type, Encode&& encode) {
    begin_frame(type);
    encode(send_buffer_);
    end_frame();
  }

  /// Receive one frame. Returns false on clean end-of-stream at a frame
  /// boundary (the peer closed after a complete message). \throws WireError
  /// on a malformed header (bad magic, version mismatch, over-limit
  /// length) or a stream that ends mid-frame.
  bool receive_frame(Frame& frame);

  std::uint32_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

  /// Bytes moved through this channel (telemetry).
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

  /// Transport calls made (telemetry): write_bytes calls, one per frame
  /// sent, and read_bytes calls — recv(2) calls for a SocketChannel, where
  /// back-to-back small frames share one.
  std::uint64_t write_calls() const noexcept { return write_calls_; }
  std::uint64_t read_calls() const noexcept { return read_calls_; }

 protected:
  /// Moves carry the counters, the send buffer and any received bytes not
  /// yet consumed, so a moved channel continues the stream exactly.
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&&) = delete;

  /// Transport hooks. write_bytes sends exactly `size` bytes or throws;
  /// read_bytes returns the count actually read (0 = end of stream) and
  /// throws only on transport errors.
  virtual void write_bytes(const std::uint8_t* data, std::size_t size) = 0;
  virtual std::size_t read_bytes(std::uint8_t* data, std::size_t size) = 0;

  /// Flush hook for buffered transports; called after every send_frame so
  /// a request is on the wire before the sender blocks on the response.
  virtual void flush() {}

 private:
  void begin_frame(MessageType type);
  void end_frame();

  /// Read exactly `size` bytes. Returns false when the stream ended before
  /// the first byte (clean EOF); throws WireError when it ends after it.
  bool read_exact(std::uint8_t* data, std::size_t size);

  std::uint32_t max_frame_bytes_;
  WireWriter send_buffer_;
  std::vector<std::uint8_t> receive_buffer_;  ///< fixed size; never grows
  std::size_t rx_begin_ = 0;                  ///< unread bytes are
  std::size_t rx_end_ = 0;                    ///< receive_buffer_[begin, end)
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t write_calls_ = 0;
  std::uint64_t read_calls_ = 0;
};

/// Channel over caller-supplied iostreams — the in-process transport for
/// deterministic tests and request-log replay. The caller owns the
/// streams and their lifetime; badbit/failbit on either stream surfaces
/// as WireError / clean EOF exactly like a closed socket would.
class StreamChannel : public Channel {
 public:
  StreamChannel(std::istream& in, std::ostream& out,
                std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

 protected:
  void write_bytes(const std::uint8_t* data, std::size_t size) override;
  std::size_t read_bytes(std::uint8_t* data, std::size_t size) override;
  void flush() override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace nubb
