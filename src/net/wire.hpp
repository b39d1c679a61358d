#pragma once

/// \file wire.hpp
/// Byte-level primitives of the serving wire format: a little-endian
/// append-only writer and a bounds-checked reader over one frame payload.
///
/// Every multi-byte integer on the wire is little-endian and fixed-width,
/// written byte by byte so the encoding is identical on every host
/// (doubles travel as their IEEE-754 bit pattern in a u64). The reader
/// throws `WireError` on any attempt to read past the payload end — frame
/// payloads are external input, so a short buffer is a protocol violation,
/// never UB. docs/serving.md documents the format.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace nubb {

/// Malformed wire data (truncated payload, over-limit length, bad tag).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian encoder for one frame payload.
///
/// The buffer keeps its capacity across clear(), so a writer reused for
/// many messages (every Channel owns one for its send path) stops
/// allocating once it has held the largest of them. A fresh writer starts
/// with room for any fixed-size message plus a frame header.
class WireWriter {
 public:
  static constexpr std::size_t kInitialCapacity = 64;

  WireWriter() { bytes_.reserve(kInitialCapacity); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  /// IEEE-754 bit pattern in a u64 (bit-exact round trip).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u32) byte string.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Length-prefixed (u64 count) vector of u64.
  void u64_vec(const std::vector<std::uint64_t>& v) {
    bytes_.reserve(bytes_.size() + 8 * (v.size() + 1));
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }

  /// Raw bytes, no length prefix (an already-encoded payload).
  void raw(const std::uint8_t* data, std::size_t size) {
    if (size != 0) std::memcpy(grow(size), data, size);
  }

  /// Overwrite four already-written bytes at `offset` with `v` (a length
  /// field that is known only once the rest is encoded).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.at(offset + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }

  /// Drop the contents, keep the capacity.
  void clear() noexcept { bytes_.clear(); }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  /// Extend by `n` bytes and return where they start: one capacity check
  /// per field instead of one per byte.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  template <typename T>
  void put(T v) {
    std::uint8_t* p = grow(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over one frame payload.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    require(2);
    std::uint16_t v = 0;
    for (int shift = 0; shift < 16; shift += 8) {
      v = static_cast<std::uint16_t>(v | static_cast<std::uint16_t>(data_[pos_++]) << shift);
    }
    return v;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
    }
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
    }
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t len = u32();
    require(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<std::uint64_t> u64_vec() {
    const std::uint64_t count = u64();
    // A count that cannot fit in the remaining payload is corrupt; check
    // before reserving so a hostile length cannot drive a huge allocation.
    if (count > remaining() / 8) {
      throw WireError("wire: u64 vector length exceeds payload");
    }
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) v.push_back(u64());
    return v;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }

  /// Every decoder calls this last: trailing bytes mean the two sides
  /// disagree about the message layout, which must fail loudly.
  void expect_end() const {
    if (pos_ != size_) throw WireError("wire: trailing bytes after message");
  }

 private:
  void require(std::size_t n) const {
    if (size_ - pos_ < n) throw WireError("wire: truncated payload");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace nubb
