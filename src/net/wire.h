// Binary wire format primitives.
//
// Every protocol message, value, condition and polyvalue that crosses a
// site boundary is encoded with these: LEB128 varints (zig-zag for signed
// integers), bit-cast doubles, and length-prefixed byte strings. Decoding
// is bounds-checked and never trusts the peer: a truncated or corrupt
// frame produces a Status error, not UB.
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/status.h"

namespace polyvalue {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  void PutSigned(int64_t v) {
    // Zig-zag.
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  void PutBool(bool b) { PutU8(b ? 1 : 0); }

  void PutDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed64(bits);
  }

  void PutFixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    buffer_.append(s);
  }

  void PutRaw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& data)
      : data_(data.data()), size_(data.size()) {}
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> GetU8() {
    if (pos_ >= size_) {
      return Truncated();
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) {
        return DataLossError("varint too long");
      }
      POLYV_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
      shift += 7;
    }
  }

  Result<int64_t> GetSigned() {
    POLYV_ASSIGN_OR_RETURN(uint64_t z, GetVarint());
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<bool> GetBool() {
    POLYV_ASSIGN_OR_RETURN(uint8_t b, GetU8());
    if (b > 1) {
      return DataLossError("bad bool");
    }
    return b == 1;
  }

  Result<uint64_t> GetFixed64() {
    if (pos_ + 8 > size_) {
      return Truncated();
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  Result<uint32_t> GetFixed32() {
    if (pos_ + 4 > size_) {
      return Truncated();
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  Result<double> GetDouble() {
    POLYV_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64());
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  Result<std::string> GetString() {
    POLYV_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
    if (len > size_ - pos_) {
      return Truncated();
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  static Status Truncated() { return DataLossError("truncated frame"); }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace polyvalue

#endif  // SRC_NET_WIRE_H_
