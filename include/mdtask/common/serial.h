// Byte-level serialization used by the engine substrates.
//
// The mini-frameworks measure communication volume (broadcast payloads,
// shuffle traffic, gathered edge lists) by actually serializing the data
// they move, so Table-2-style shuffle accounting comes from real bytes,
// not estimates.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "mdtask/common/error.h"

namespace mdtask {

/// Append-only binary writer (little-endian host layout; this library is
/// single-host so no byte-swapping is performed).
class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> xs) {
    put<std::uint64_t>(xs.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(xs.data());
    buf_.insert(buf_.end(), p, p + xs.size_bytes());
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary reader over a byte span. Reads past the end surface
/// as kFormatError results.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Result<T> get() {
    if (pos_ + sizeof(T) > data_.size()) {
      return Error(ErrorCode::kFormatError, "ByteReader: truncated input");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Result<std::vector<T>> get_vector() {
    auto n = get<std::uint64_t>();
    if (!n.ok()) return n.error();
    // Compared by division so a crafted count cannot wrap n * sizeof(T).
    if (n.value() > remaining() / sizeof(T)) {
      return Error(ErrorCode::kFormatError, "ByteReader: truncated vector");
    }
    const auto count = static_cast<std::size_t>(n.value());
    std::vector<T> out(count);
    // An empty vector's data() may be null, which memcpy must not get.
    if (count > 0) {
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return out;
  }

  Result<std::string> get_string() {
    auto n = get<std::uint64_t>();
    if (!n.ok()) return n.error();
    if (n.value() > remaining()) {
      return Error(ErrorCode::kFormatError, "ByteReader: truncated string");
    }
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    static_cast<std::size_t>(n.value()));
    pos_ += static_cast<std::size_t>(n.value());
    return out;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mdtask
