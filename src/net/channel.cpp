#include "net/channel.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

namespace nubb {

namespace {

/// Send buffers above this capacity are released at the next frame, so one
/// large Snapshot does not pin its buffer for the rest of the session.
constexpr std::size_t kMaxRetainedSendBytes = std::size_t{1} << 20;

}  // namespace

Channel::Channel(Channel&& other) noexcept
    : max_frame_bytes_(other.max_frame_bytes_),
      send_buffer_(std::move(other.send_buffer_)),
      receive_buffer_(std::move(other.receive_buffer_)),
      rx_begin_(std::exchange(other.rx_begin_, 0)),
      rx_end_(std::exchange(other.rx_end_, 0)),
      bytes_sent_(other.bytes_sent_),
      bytes_received_(other.bytes_received_),
      write_calls_(other.write_calls_),
      read_calls_(other.read_calls_) {}

void Channel::send_frame(MessageType type, const std::vector<std::uint8_t>& payload) {
  send_encoded(type, [&](WireWriter& w) { w.raw(payload.data(), payload.size()); });
}

void Channel::begin_frame(MessageType type) {
  if (send_buffer_.bytes().capacity() > kMaxRetainedSendBytes) send_buffer_ = WireWriter();
  send_buffer_.clear();
  send_buffer_.u32(kFrameMagic);
  send_buffer_.u16(kWireVersion);
  send_buffer_.u16(static_cast<std::uint16_t>(type));
  send_buffer_.u32(0);  // length, patched once the payload is encoded
}

void Channel::end_frame() {
  const std::vector<std::uint8_t>& frame = send_buffer_.bytes();
  const std::size_t length = frame.size() - kFrameHeaderBytes;
  if (length > max_frame_bytes_) {
    throw WireError("channel: frame payload of " + std::to_string(length) +
                    " bytes exceeds the " + std::to_string(max_frame_bytes_) + "-byte limit");
  }
  send_buffer_.patch_u32(8, static_cast<std::uint32_t>(length));  // header bytes 8..11
  write_bytes(frame.data(), frame.size());
  ++write_calls_;
  flush();
  bytes_sent_ += frame.size();
}

bool Channel::receive_frame(Frame& frame) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!read_exact(header, kFrameHeaderBytes)) return false;

  WireReader h(header, kFrameHeaderBytes);
  if (h.u32() != kFrameMagic) {
    throw WireError("channel: bad frame magic (stream out of sync or not a nubb peer)");
  }
  const std::uint16_t version = h.u16();
  if (version != kWireVersion) {
    throw WireError("channel: wire version " + std::to_string(version) +
                    " from peer, this build speaks " + std::to_string(kWireVersion));
  }
  const std::uint16_t type = h.u16();
  const std::uint32_t length = h.u32();
  if (length > max_frame_bytes_) {
    throw WireError("channel: frame length " + std::to_string(length) + " exceeds the " +
                    std::to_string(max_frame_bytes_) + "-byte limit");
  }

  frame.type = static_cast<MessageType>(type);
  frame.payload.resize(length);
  if (length != 0 && !read_exact(frame.payload.data(), length)) {
    throw WireError("channel: stream ended inside a frame payload");
  }
  bytes_received_ += kFrameHeaderBytes + length;
  return true;
}

bool Channel::read_exact(std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    if (rx_begin_ == rx_end_) {
      // Nothing buffered. A read of at least a whole buffer (or any read
      // without one) goes straight to the caller; a shorter one refills.
      const std::size_t want = size - got;
      const bool direct = want >= receive_buffer_.size();
      const std::size_t n = direct ? read_bytes(data + got, want)
                                   : read_bytes(receive_buffer_.data(), receive_buffer_.size());
      ++read_calls_;
      if (n == 0) {
        if (got == 0) return false;  // clean EOF at a frame boundary
        throw WireError("channel: stream ended mid-frame (" + std::to_string(got) + " of " +
                        std::to_string(size) + " bytes)");
      }
      if (direct) {
        got += n;
        continue;
      }
      rx_begin_ = 0;
      rx_end_ = n;
    }
    const std::size_t n = std::min(size - got, rx_end_ - rx_begin_);
    std::memcpy(data + got, receive_buffer_.data() + rx_begin_, n);
    rx_begin_ += n;
    got += n;
  }
  return true;
}

StreamChannel::StreamChannel(std::istream& in, std::ostream& out,
                             std::uint32_t max_frame_bytes)
    : Channel(max_frame_bytes), in_(in), out_(out) {}

void StreamChannel::write_bytes(const std::uint8_t* data, std::size_t size) {
  out_.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out_) throw WireError("stream channel: write failed");
}

std::size_t StreamChannel::read_bytes(std::uint8_t* data, std::size_t size) {
  in_.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
  const std::streamsize got = in_.gcount();
  if (got < 0) throw WireError("stream channel: read failed");
  return static_cast<std::size_t>(got);
}

void StreamChannel::flush() { out_.flush(); }

}  // namespace nubb
