// LEB128 variable-length integer encoding/decoding (WebAssembly binary
// format, §5.2.2). Decoding enforces the spec's length and sign-bit rules so
// malformed encodings are rejected rather than silently accepted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sledge::wasm {

// Byte cursor over an immutable buffer; all decode helpers report failure
// through the ok flag instead of throwing.
struct ByteReader {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t pos = 0;
  bool failed = false;

  ByteReader(const uint8_t* d, size_t n) : data(d), size(n) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : data(v.data()), size(v.size()) {}

  bool ok() const { return !failed; }
  bool at_end() const { return pos >= size; }
  size_t remaining() const { return size - pos; }

  uint8_t read_u8() {
    if (pos >= size) {
      failed = true;
      return 0;
    }
    return data[pos++];
  }

  uint8_t peek_u8() {
    if (pos >= size) {
      failed = true;
      return 0;
    }
    return data[pos];
  }

  bool read_bytes(uint8_t* out, size_t n) {
    if (pos + n > size) {
      failed = true;
      return false;
    }
    for (size_t i = 0; i < n; ++i) out[i] = data[pos + i];
    pos += n;
    return true;
  }

  bool skip(size_t n) {
    if (pos + n > size) {
      failed = true;
      return false;
    }
    pos += n;
    return true;
  }

  uint32_t read_u32_leb() {
    uint32_t result = 0;
    uint32_t shift = 0;
    for (int i = 0; i < 5; ++i) {
      uint8_t b = read_u8();
      if (failed) return 0;
      if (i == 4 && (b & 0x70) != 0) {  // bits beyond 32 must be zero
        failed = true;
        return 0;
      }
      result |= static_cast<uint32_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return result;
      shift += 7;
    }
    failed = true;  // too long
    return 0;
  }

  int32_t read_i32_leb() {
    int64_t v = read_sleb(32);
    return static_cast<int32_t>(v);
  }

  int64_t read_i64_leb() { return read_sleb(64); }

  uint32_t read_f32_bits() {
    uint8_t b[4];
    if (!read_bytes(b, 4)) return 0;
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  }

  uint64_t read_f64_bits() {
    uint8_t b[8];
    if (!read_bytes(b, 8)) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

 private:
  int64_t read_sleb(int bits) {
    uint64_t bits_read = 0;  // unsigned: sign extension must not overflow
    uint32_t shift = 0;
    int max_bytes = (bits + 6) / 7;
    for (int i = 0; i < max_bytes; ++i) {
      uint8_t b = read_u8();
      if (failed) return 0;
      bits_read |= static_cast<uint64_t>(b & 0x7F) << shift;
      shift += 7;
      if ((b & 0x80) == 0) {
        // Sign-extend when the value doesn't fill the 64-bit accumulator.
        if (shift < 64 && (b & 0x40)) bits_read |= ~uint64_t{0} << shift;
        const int64_t result = static_cast<int64_t>(bits_read);
        // For i32, verify the unused high bits are a pure sign extension.
        if (bits == 32) {
          int32_t truncated = static_cast<int32_t>(result);
          if (static_cast<int64_t>(truncated) != result) {
            failed = true;
            return 0;
          }
        }
        return result;
      }
    }
    failed = true;  // too long
    return 0;
  }
};

// Append-only byte sink used by the module builder / encoder.
struct ByteWriter {
  std::vector<uint8_t> bytes;

  void u8(uint8_t b) { bytes.push_back(b); }

  void u32_leb(uint32_t v) {
    do {
      uint8_t b = v & 0x7F;
      v >>= 7;
      if (v) b |= 0x80;
      bytes.push_back(b);
    } while (v);
  }

  void i32_leb(int32_t value) { sleb(static_cast<int64_t>(value)); }
  void i64_leb(int64_t value) { sleb(value); }

  void f32_bits(uint32_t bits) {
    for (int i = 0; i < 4; ++i) bytes.push_back((bits >> (8 * i)) & 0xFF);
  }
  void f64_bits(uint64_t bits) {
    for (int i = 0; i < 8; ++i) bytes.push_back((bits >> (8 * i)) & 0xFF);
  }

  void raw(const std::vector<uint8_t>& v) {
    bytes.insert(bytes.end(), v.begin(), v.end());
  }
  void raw(const uint8_t* p, size_t n) { bytes.insert(bytes.end(), p, p + n); }

  void name(const std::string& s) {
    u32_leb(static_cast<uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }

 private:
  void sleb(int64_t v) {
    bool more = true;
    while (more) {
      uint8_t b = v & 0x7F;
      v >>= 7;  // arithmetic shift
      more = !((v == 0 && (b & 0x40) == 0) || (v == -1 && (b & 0x40) != 0));
      if (more) b |= 0x80;
      bytes.push_back(b);
    }
  }
};

}  // namespace sledge::wasm
