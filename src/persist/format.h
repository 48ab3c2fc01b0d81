// Binary codec shared by the WAL and the snapshot format: little-endian
// fixed-width integers and length-prefixed strings, with a bounds-checked
// decoder that returns util::Status instead of reading past the buffer —
// corrupt on-disk bytes must surface as kInternal, never as UB.
#ifndef GRAPHITTI_PERSIST_FORMAT_H_
#define GRAPHITTI_PERSIST_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace graphitti {
namespace persist {

/// Appends little-endian primitives to an owned byte buffer.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    char b[4];
    b[0] = static_cast<char>(v);
    b[1] = static_cast<char>(v >> 8);
    b[2] = static_cast<char>(v >> 16);
    b[3] = static_cast<char>(v >> 24);
    buf_.append(b, 4);
  }

  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v));
    PutU32(static_cast<uint32_t>(v >> 32));
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    static_assert(sizeof(double) == 8, "IEEE-754 binary64 expected");
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutU64(bits);
  }

  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Reads back what Encoder wrote; every getter fails with kInternal on a
/// truncated buffer. The decoder does not own the bytes.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  util::Result<uint8_t> GetU8() {
    GRAPHITTI_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }

  util::Result<uint32_t> GetU32() {
    GRAPHITTI_RETURN_NOT_OK(Need(4));
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
    pos_ += 4;
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  }

  util::Result<uint64_t> GetU64() {
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
    return static_cast<uint64_t>(hi) << 32 | lo;
  }

  util::Result<int64_t> GetI64() {
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return static_cast<int64_t>(v);
  }

  util::Result<double> GetDouble() {
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  /// View into the underlying buffer — valid only while the buffer lives.
  util::Result<std::string_view> GetStringView() {
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    GRAPHITTI_RETURN_NOT_OK(Need(len));
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  util::Result<std::string> GetString() {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string_view s, GetStringView());
    return std::string(s);
  }

  /// Reads an element count and checks that `count` elements of at least
  /// `min_element_bytes` encoded bytes each fit in what remains, so a
  /// corrupt count (even behind a valid CRC) can never drive an
  /// allocation: a count that cannot fit is a kInternal corruption error.
  util::Result<uint32_t> GetCount32(size_t min_element_bytes) {
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t count, GetU32());
    GRAPHITTI_RETURN_NOT_OK(CheckCount(count, min_element_bytes));
    return count;
  }
  util::Result<uint64_t> GetCount64(size_t min_element_bytes) {
    GRAPHITTI_ASSIGN_OR_RETURN(uint64_t count, GetU64());
    GRAPHITTI_RETURN_NOT_OK(CheckCount(count, min_element_bytes));
    return count;
  }

  bool Done() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  util::Status CheckCount(uint64_t count, size_t min_element_bytes) const {
    if (min_element_bytes != 0 && count > remaining() / min_element_bytes) {
      return util::Status::Internal("corrupt count " + std::to_string(count) + " at offset " +
                                    std::to_string(pos_) + ": " + std::to_string(remaining()) +
                                    " bytes left cannot hold that many elements");
    }
    return util::Status::OK();
  }

  util::Status Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      return util::Status::Internal("truncated record: need " + std::to_string(n) +
                                    " bytes at offset " + std::to_string(pos_) + " of " +
                                    std::to_string(data_.size()));
    }
    return util::Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace graphitti

#endif  // GRAPHITTI_PERSIST_FORMAT_H_
