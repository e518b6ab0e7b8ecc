// Binary wire format helpers.
//
// Protocol messages are serialized to real byte buffers so that the paper's
// "message size" metric is *measured* rather than asserted. Encoding is
// little-endian with LEB128 varints for counters and length prefixes; the
// Decoder is bounds-checked and sticky-error so malformed input is reported
// instead of read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ccpr::net {

class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// LEB128 unsigned varint: 1 byte for values < 128, natural for the mostly
  /// small clock values the protocols carry.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed byte string.
  void bytes(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw append without a length prefix (caller frames it).
  void raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  bool ok() const noexcept { return ok_; }
  bool exhausted() const noexcept { return pos_ == len_; }
  std::size_t remaining() const noexcept { return len_ - pos_; }

  std::uint8_t u8() noexcept {
    if (!need(1)) return 0;
    return data_[pos_++];
  }

  std::uint32_t u32() noexcept {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() noexcept {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t varint() noexcept {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!need(1) || shift >= 64) {
        ok_ = false;
        return 0;
      }
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  /// Read `n` raw bytes (no length prefix; caller frames it). Empty
  /// vector and sticky error on underrun.
  std::vector<std::uint8_t> raw(std::size_t n) noexcept {
    if (!need(n)) return {};
    std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return v;
  }

  std::string bytes() noexcept {
    const std::uint64_t n = varint();
    if (!ok_ || !need(n)) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

 private:
  bool need(std::uint64_t n) noexcept {
    if (!ok_ || n > len_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ccpr::net
