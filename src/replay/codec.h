// Little-endian binary codec for .repro files.
//
// A deliberately tiny, dependency-free format layer: explicit-width
// little-endian integers, IEEE-754 doubles carried as their bit pattern,
// length-prefixed strings and vectors. The reader is fully bounds-checked
// and latches an error flag instead of throwing, so a truncated or corrupted
// file degrades into `ok() == false` rather than undefined behaviour —
// replay::read_file turns that into a rejection (tests/test_replay.cpp pins
// this for bit flips and truncation at every offset).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace congos::replay {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Raw bytes, no length prefix.
  void bytes(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (auto x : v) u64(x);
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (auto x : v) i64(x);
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (auto x : v) u32(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Drops everything past the first `len` bytes.
  void truncate(std::size_t len) { buf_.resize(len); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * b);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * b);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  /// View of the next `n` raw bytes; empty (and the stream failed) when
  /// fewer than `n` remain.
  std::span<const std::uint8_t> bytes(std::uint64_t n) {
    if (!take(n)) return {};
    const std::span<const std::uint8_t> v(data_ + pos_, n);
    pos_ += n;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t n = u64();
    if (!check_count(n, 8)) return {};
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<std::int64_t> vec_i64() {
    const std::uint64_t n = u64();
    if (!check_count(n, 8)) return {};
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = i64();
    return v;
  }
  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t n = u64();
    if (!check_count(n, 4)) return {};
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = u32();
    return v;
  }

  /// Mark the stream as bad (a semantic validation failed downstream of the
  /// raw bounds checks).
  void fail() { ok_ = false; }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || n > len_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// Guards vector pre-allocation: an adversarially large length prefix must
  /// not drive a multi-gigabyte allocation before the bounds check trips.
  bool check_count(std::uint64_t n, std::uint64_t elem_size) {
    if (!ok_ || n > (len_ - pos_) / elem_size) {
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

}  // namespace congos::replay
