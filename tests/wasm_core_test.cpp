// Wasm layer tests: LEB128 encoding, binary decoding (including a
// truncation-sweep property test), and builder round-trips.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/leb128.hpp"
#include "wasm/validator.hpp"

namespace sledge::wasm {
namespace {

TEST(Leb128Test, U32RoundTrip) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 300u, 16384u, 0xFFFFFFu, 0xFFFFFFFFu}) {
    ByteWriter w;
    w.u32_leb(v);
    ByteReader r(w.bytes);
    EXPECT_EQ(r.read_u32_leb(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Leb128Test, I32RoundTrip) {
  for (int32_t v : {0, 1, -1, 63, 64, -64, -65, 127, 128, INT32_MAX,
                    INT32_MIN, -123456}) {
    ByteWriter w;
    w.i32_leb(v);
    ByteReader r(w.bytes);
    EXPECT_EQ(r.read_i32_leb(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128Test, I64RoundTrip) {
  // -(2^62) takes exactly 9 bytes, so its sign bit is the last byte's bit 6
  // at shift 63.
  for (int64_t v : {int64_t{0}, int64_t{-1}, INT64_MAX, INT64_MIN,
                    int64_t{1} << 40, -(int64_t{1} << 40),
                    -(int64_t{1} << 62)}) {
    ByteWriter w;
    w.i64_leb(v);
    ByteReader r(w.bytes);
    EXPECT_EQ(r.read_i64_leb(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128Test, RejectsOverlongU32) {
  // Six continuation bytes is over the u32 limit.
  std::vector<uint8_t> bytes = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  ByteReader r(bytes);
  r.read_u32_leb();
  EXPECT_FALSE(r.ok());
}

TEST(Leb128Test, RejectsNonzeroHighBits) {
  // 5th byte with bits beyond 32 set.
  std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  ByteReader r(bytes);
  r.read_u32_leb();
  EXPECT_FALSE(r.ok());
}

TEST(Leb128Test, PropertyRandomRoundTrip) {
  sledge::Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    uint32_t u = rng.next_u32();
    int64_t s = static_cast<int64_t>(rng.next_u64());
    ByteWriter w;
    w.u32_leb(u);
    w.i64_leb(s);
    ByteReader r(w.bytes);
    EXPECT_EQ(r.read_u32_leb(), u);
    EXPECT_EQ(r.read_i64_leb(), s);
    EXPECT_TRUE(r.ok());
  }
}

// A small, representative module used by several tests.
std::vector<uint8_t> sample_module() {
  ModuleBuilder b;
  using V = ValType;
  uint32_t t_bin = b.add_type({V::kI32, V::kI32}, {V::kI32});
  uint32_t t_nul = b.add_type({}, {V::kI32});
  uint32_t imp = b.add_import("env", "req_len", t_nul);
  b.set_memory(1, 2);
  b.set_table(2, 4);
  b.add_global(V::kI32, true, 7);
  b.add_global(V::kF64, false, 0x3FF0000000000000ull);  // 1.0
  uint32_t f_add = b.declare_function(t_bin);
  uint32_t f_go = b.declare_function(t_nul);
  {
    auto& f = b.function(f_add);
    f.local_get(0);
    f.local_get(1);
    f.emit(Op::kI32Add);
    f.end();
  }
  {
    auto& f = b.function(f_go);
    f.i32_const(20);
    f.i32_const(22);
    f.i32_const(0);
    f.call_indirect(t_bin);
    f.end();
  }
  b.add_element(0, {f_add, imp});
  b.add_data(16, {1, 2, 3, 4});
  b.export_function("add", f_add);
  b.export_function("go", f_go);
  b.add_export("mem", ExternalKind::kMemory, 0);
  return b.build();
}

TEST(DecoderTest, DecodesBuilderOutput) {
  auto mod = decode(sample_module());
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  EXPECT_EQ(mod->types.size(), 2u);
  EXPECT_EQ(mod->imports.size(), 1u);
  EXPECT_EQ(mod->functions.size(), 2u);
  ASSERT_TRUE(mod->memory.has_value());
  EXPECT_EQ(mod->memory->min, 1u);
  EXPECT_EQ(mod->memory->max, 2u);
  ASSERT_TRUE(mod->table.has_value());
  EXPECT_EQ(mod->table->min, 2u);
  EXPECT_EQ(mod->globals.size(), 2u);
  EXPECT_EQ(mod->globals[0].init_value, 7u);
  EXPECT_TRUE(mod->globals[0].mutable_);
  EXPECT_FALSE(mod->globals[1].mutable_);
  EXPECT_EQ(mod->exports.size(), 3u);
  ASSERT_EQ(mod->data.size(), 1u);
  EXPECT_EQ(mod->data[0].offset, 16u);
  EXPECT_EQ(mod->data[0].bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_NE(mod->find_export("add", ExternalKind::kFunction), nullptr);
  EXPECT_EQ(mod->find_export("nope", ExternalKind::kFunction), nullptr);
  EXPECT_TRUE(validate(*mod).is_ok());
}

TEST(DecoderTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = {0x00, 'b', 's', 'm', 1, 0, 0, 0};
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(DecoderTest, RejectsBadVersion) {
  std::vector<uint8_t> bytes = {0x00, 'a', 's', 'm', 2, 0, 0, 0};
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(DecoderTest, RejectsEmpty) {
  EXPECT_FALSE(decode(std::vector<uint8_t>{}).ok());
}

// Property: truncating a valid module mid-section must be rejected; a
// prefix is only allowed to decode when it ends exactly on a section
// boundary (in which case it is a legitimately smaller module). No prefix
// may crash the decoder.
TEST(DecoderTest, PropertyTruncationAlwaysRejected) {
  std::vector<uint8_t> bytes = sample_module();

  // Walk the section headers to find the legal cut points.
  std::set<size_t> boundaries = {8};  // after magic+version
  {
    size_t pos = 8;
    while (pos < bytes.size()) {
      ++pos;  // id byte
      uint32_t size = 0;
      int shift = 0;
      while (pos < bytes.size()) {
        uint8_t b = bytes[pos++];
        size |= static_cast<uint32_t>(b & 0x7F) << shift;
        shift += 7;
        if ((b & 0x80) == 0) break;
      }
      pos += size;
      boundaries.insert(pos);
    }
  }

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    auto result = decode(prefix);
    if (boundaries.count(len)) {
      continue;  // may legitimately decode as a smaller module
    }
    EXPECT_FALSE(result.ok()) << "truncated to " << len << " bytes";
  }
}

// Property: single-byte corruptions never crash the decoder (they may or
// may not decode; decoded modules must then survive validation without
// crashing too).
TEST(DecoderTest, PropertyByteFlipsNeverCrash) {
  std::vector<uint8_t> bytes = sample_module();
  sledge::Rng rng(41);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    size_t pos = 8 + rng.below(static_cast<uint32_t>(bytes.size() - 8));
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
    auto result = decode(mutated);
    if (result.ok()) {
      (void)validate(*result);  // must not crash
    }
  }
}

TEST(DecoderTest, RejectsOutOfOrderSections) {
  // memory section (5) followed by type section (1).
  ByteWriter w;
  w.u8(0); w.u8('a'); w.u8('s'); w.u8('m');
  w.u8(1); w.u8(0); w.u8(0); w.u8(0);
  w.u8(5); w.u32_leb(3); w.u32_leb(1); w.u8(0); w.u32_leb(1);
  w.u8(1); w.u32_leb(1); w.u32_leb(0);
  EXPECT_FALSE(decode(w.bytes).ok());
}

TEST(DecoderTest, RejectsNonFunctionImports) {
  ByteWriter w;
  w.u8(0); w.u8('a'); w.u8('s'); w.u8('m');
  w.u8(1); w.u8(0); w.u8(0); w.u8(0);
  // import section with a memory import
  ByteWriter payload;
  payload.u32_leb(1);
  payload.name("env");
  payload.name("memory");
  payload.u8(2);  // memory import
  payload.u8(0);
  payload.u32_leb(1);
  w.u8(2);
  w.u32_leb(static_cast<uint32_t>(payload.bytes.size()));
  w.raw(payload.bytes);
  EXPECT_FALSE(decode(w.bytes).ok());
}

TEST(DecoderTest, AcceptsCustomSections) {
  std::vector<uint8_t> bytes = sample_module();
  // Append a custom section (id 0).
  bytes.push_back(0);
  bytes.push_back(3);
  bytes.push_back(1);  // name length 1
  bytes.push_back('x');
  bytes.push_back(0xAB);  // payload
  EXPECT_TRUE(decode(bytes).ok());
}

TEST(BuilderTest, TypeDeduplication) {
  ModuleBuilder b;
  uint32_t t1 = b.add_type({ValType::kI32}, {ValType::kI32});
  uint32_t t2 = b.add_type({ValType::kI32}, {ValType::kI32});
  uint32_t t3 = b.add_type({ValType::kI64}, {ValType::kI32});
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
}

TEST(BuilderTest, MemoryWithoutMax) {
  ModuleBuilder b;
  b.set_memory(3);
  auto mod = decode(b.build());
  ASSERT_TRUE(mod.ok());
  ASSERT_TRUE(mod->memory.has_value());
  EXPECT_EQ(mod->memory->min, 3u);
  EXPECT_FALSE(mod->memory->has_max);
}

}  // namespace
}  // namespace sledge::wasm
