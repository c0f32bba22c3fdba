// Include-hygiene check: wasm/leb128.hpp is the first include of this
// translation unit, so the header must compile on its own (everything it
// names, std::string included, comes from its own includes).
#include "wasm/leb128.hpp"

#include <gtest/gtest.h>

namespace sledge::wasm {
namespace {

TEST(Leb128HeaderTest, NameIsLengthPrefixedAndSelfContained) {
  ByteWriter w;
  w.name(std::string("ping"));
  ASSERT_EQ(w.bytes.size(), 5u);
  ByteReader r(w.bytes);
  EXPECT_EQ(r.read_u32_leb(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(std::string(w.bytes.begin() + 1, w.bytes.end()), "ping");
}

}  // namespace
}  // namespace sledge::wasm
