// SandboxResourcePool: warm reuse of linear memories and execution stacks
// with the cross-tenant isolation guarantee (recycled regions read as
// zeros, on both the zero-in-place and the discard path), free-list caps,
// the reclaim watermark, and the engine-level recycled-instantiate path.
// Sanitizer-safe: interpreter tiers only, no ucontext dispatch, no faults
// taken (page protection is probed through the kernel, see readable()).
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/memory.hpp"
#include "minicc/minicc.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/sandbox.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

using engine::BoundsStrategy;
using engine::LinearMemory;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::kNone, BoundsStrategy::kSoftware, BoundsStrategy::kMpxSim,
    BoundsStrategy::kVmGuard};

const uint64_t kOsPage = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
constexpr uint64_t kWasmPage = wasm::kPageSize;

// Whether the byte at `p` is accessible, probed without taking a fault:
// the kernel's copy out of a PROT_NONE page fails with EFAULT — the same
// protection check a guest access under vm_guard trips.
bool readable(const uint8_t* p) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const bool ok = ::write(fds[1], p, 1) == 1;
  ::close(fds[0]);
  ::close(fds[1]);
  return ok;
}

// Resident OS pages in [p, p + len).
uint64_t resident_pages(const uint8_t* p, uint64_t len) {
  std::vector<unsigned char> vec(len / kOsPage);
  if (::mincore(const_cast<uint8_t*>(p), len, vec.data()) != 0) return 0;
  uint64_t n = 0;
  for (unsigned char v : vec) n += v & 1;
  return n;
}

bool all_zero(const LinearMemory& mem) {
  for (uint64_t i = 0; i < mem.size_bytes(); ++i) {
    if (mem.base()[i] != 0) return false;
  }
  return true;
}

// Each test owns the process-wide pool: known config in, empty pool out.
class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.configure(SandboxResourcePool::Config{});
    pool.purge();
    pool.reset_counters();
  }
  void TearDown() override {
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.purge();
    pool.configure(SandboxResourcePool::Config{});
  }
};

TEST_F(PoolTest, ReservationBytesBucketsByStrategy) {
  // vm_guard reserves the full 32-bit span + slack regardless of the
  // declared ceiling — one bucket serves every module.
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 1),
            LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 4096));
  EXPECT_GE(LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 1),
            (4ull << 30));
  // Non-guard strategies reserve exactly the growth ceiling.
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kSoftware, 8),
            8 * wasm::kPageSize);
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kMpxSim, 3),
            3 * wasm::kPageSize);
}

// The isolation property pooling depends on: a reused region must read as
// zeros no matter what the previous occupant wrote, under every bounds
// strategy.
TEST_F(PoolTest, RecycledMemoryReadsZeroAllStrategies) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    bool from_pool = true;
    LinearMemory mem = pool.acquire_memory(strategy, 2, 4, &from_pool);
    ASSERT_TRUE(mem.valid());
    EXPECT_FALSE(from_pool);  // pool was empty: cold path
    uint8_t* base = mem.base();
    std::memset(base, 0xAB, mem.size_bytes());  // dirty canary

    pool.release_memory(std::move(mem));
    LinearMemory reused = pool.acquire_memory(strategy, 2, 4, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);  // genuinely the same region
    EXPECT_EQ(reused.pages(), 2u);
    for (uint64_t i = 0; i < reused.size_bytes(); ++i) {
      ASSERT_EQ(reused.base()[i], 0) << "stale byte at offset " << i;
    }
    pool.release_memory(std::move(reused));
  }
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.memory_hits, 4u);
  EXPECT_EQ(c.memory_misses, 4u);
}

// A recycled region serves any ceiling that fits its reservation: grow to
// the old ceiling, recycle, reset to a different spec, grow to the new one.
TEST_F(PoolTest, ResetRearmsGrowthCeiling) {
  auto mem_or = LinearMemory::create(BoundsStrategy::kSoftware, 1, 4);
  ASSERT_TRUE(mem_or.ok());
  LinearMemory mem = mem_or.take();
  EXPECT_EQ(mem.grow(3), 1);   // 1 -> 4, at ceiling
  EXPECT_EQ(mem.grow(1), -1);  // past ceiling

  ASSERT_NE(mem.recycle(), LinearMemory::Recycled::kFailed);
  EXPECT_EQ(mem.size_bytes(), 0u);
  ASSERT_TRUE(mem.reset(2, 3));
  EXPECT_EQ(mem.pages(), 2u);
  EXPECT_EQ(mem.max_pages(), 3u);
  EXPECT_EQ(mem.grow(1), 2);   // 2 -> 3, new ceiling
  EXPECT_EQ(mem.grow(1), -1);  // new ceiling enforced

  // A ceiling that does not fit the reservation must be refused.
  ASSERT_NE(mem.recycle(), LinearMemory::Recycled::kFailed);
  EXPECT_FALSE(mem.reset(1, 5));  // reservation is 4 pages
}

// Zero in place: a tenant that dirtied scattered pages leaves them resident
// but zeroed — the next tenant reads all zeros, takes no refault on those
// pages, and the pool counts the in-place path.
TEST_F(PoolTest, ScatteredDirtyPagesZeroedInPlaceAllStrategies) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    pool.purge();
    pool.reset_counters();
    LinearMemory mem = pool.acquire_memory(strategy, 4, 8, nullptr);
    ASSERT_TRUE(mem.valid());
    uint8_t* base = mem.base();
    uint64_t dirty = 0;
    for (uint64_t off = 0; off < mem.size_bytes(); off += 5 * kOsPage) {
      base[off + 17] = 0xAB;
      ++dirty;
    }
    base[mem.size_bytes() - 1] = 0xCD;
    ++dirty;
    ASSERT_LE(dirty * kOsPage, LinearMemory::kZeroInPlaceLimit);

    pool.release_memory(std::move(mem));
    SandboxResourcePool::Counters c = pool.counters();
    EXPECT_EQ(c.memory_zeroed_in_place, 1u);
    EXPECT_EQ(c.memory_discarded, 0u);

    bool from_pool = false;
    LinearMemory reused = pool.acquire_memory(strategy, 4, 8, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);
    EXPECT_GE(resident_pages(base, reused.size_bytes()), dirty);
    EXPECT_TRUE(all_zero(reused)) << "stale tenant bytes survived";
    pool.release_memory(std::move(reused));
  }
}

// A smaller next tenant: the kept prefix past its min_pages is protected
// again (under vm_guard an access at the old size must trap) and
// memory.grow back into it reads fresh zeros.
TEST_F(PoolTest, SmallerTenantCannotReachOldSizeAndGrowsBackToZeros) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  LinearMemory mem = pool.acquire_memory(BoundsStrategy::kVmGuard, 3, 8,
                                         nullptr);
  ASSERT_TRUE(mem.valid());
  uint8_t* base = mem.base();
  uint8_t* old_tail = base + 2 * kWasmPage + 100;
  *old_tail = 0xAB;
  base[0] = 0xCD;
  pool.release_memory(std::move(mem));
  EXPECT_EQ(pool.counters().memory_zeroed_in_place, 1u);

  bool from_pool = false;
  LinearMemory reused =
      pool.acquire_memory(BoundsStrategy::kVmGuard, 1, 8, &from_pool);
  ASSERT_TRUE(reused.valid());
  EXPECT_TRUE(from_pool);
  ASSERT_EQ(reused.base(), base);
  EXPECT_EQ(reused.pages(), 1u);
  EXPECT_TRUE(readable(base));
  EXPECT_EQ(base[0], 0);
  EXPECT_FALSE(readable(base + kWasmPage)) << "page past min_pages is open";
  EXPECT_FALSE(readable(old_tail)) << "old size still accessible";

  EXPECT_EQ(reused.grow(2), 1);
  ASSERT_TRUE(readable(old_tail));
  EXPECT_TRUE(all_zero(reused));
  pool.release_memory(std::move(reused));
}

// A tenant that left more than kZeroInPlaceLimit resident takes the discard
// path: nothing stays resident in the pool, and the next tenant still reads
// zeros.
TEST_F(PoolTest, TenantOverResidencyLimitIsDiscarded) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    pool.purge();
    pool.reset_counters();
    LinearMemory mem = pool.acquire_memory(strategy, 8, 8, nullptr);
    ASSERT_TRUE(mem.valid());
    ASSERT_GT(mem.size_bytes(), LinearMemory::kZeroInPlaceLimit);
    std::memset(mem.base(), 0xAB, mem.size_bytes());
    uint8_t* base = mem.base();
    const uint64_t size = mem.size_bytes();

    pool.release_memory(std::move(mem));
    SandboxResourcePool::Counters c = pool.counters();
    EXPECT_EQ(c.memory_discarded, 1u);
    EXPECT_EQ(c.memory_zeroed_in_place, 0u);
    EXPECT_EQ(resident_pages(base, size), 0u);

    bool from_pool = false;
    LinearMemory reused = pool.acquire_memory(strategy, 8, 8, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);
    EXPECT_TRUE(all_zero(reused)) << "stale tenant bytes survived";
    pool.release_memory(std::move(reused));
  }
}

// Acquire only matches regions whose (strategy, reservation) bucket fits;
// anything else is a miss that falls back to create().
TEST_F(PoolTest, MismatchedSpecMisses) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, nullptr));

  bool from_pool = true;
  // Different strategy: miss.
  LinearMemory m1 =
      pool.acquire_memory(BoundsStrategy::kMpxSim, 1, 4, &from_pool);
  EXPECT_FALSE(from_pool);
  // Same strategy, bigger reservation needed: miss.
  LinearMemory m2 =
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 8, &from_pool);
  EXPECT_FALSE(from_pool);
  // Exact bucket: hit.
  LinearMemory m3 =
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, &from_pool);
  EXPECT_TRUE(from_pool);
}

TEST_F(PoolTest, ReclaimWatermarkReleasesToOs) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  SandboxResourcePool::Config cfg;
  cfg.per_thread_cap = 0;  // everything overflows to the global pool
  cfg.global_cap = 2;      // watermark
  pool.configure(cfg);

  for (int i = 0; i < 4; ++i) {
    pool.release_memory(
        pool.acquire_memory(BoundsStrategy::kSoftware, 1, 1, nullptr));
  }
  // First two releases pooled, the rest dropped at the watermark. (Each
  // acquire drains the pool again, so only the steady-state release after a
  // full pool counts: acquire(hit), release(pooled) repeats.)
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.released, 0u);  // cap 2 never exceeded by a lone region
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 2, nullptr));
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 3, nullptr));
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, nullptr));
  c = pool.counters();
  EXPECT_GE(c.released, 1u);  // third distinct bucket entry hit the cap
}

TEST_F(PoolTest, StacksAreReusedWithGuardIntact) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  constexpr size_t kStack = 256 * 1024;
  constexpr size_t kGuard = 16 * 1024;

  bool from_pool = true;
  ExecStack* s1 = pool.acquire_stack(kStack, kGuard, &from_pool);
  ASSERT_NE(s1, nullptr);
  EXPECT_FALSE(from_pool);
  EXPECT_EQ(s1->size, kStack + kGuard);  // mapping includes the guard
  EXPECT_EQ(s1->guard_size, kGuard);
  EXPECT_GE(s1->guard_id, 0);  // registered with the trap table
  uint8_t* base = s1->base;

  pool.release_stack(s1);
  ExecStack* s2 = pool.acquire_stack(kStack, kGuard, &from_pool);
  ASSERT_NE(s2, nullptr);
  EXPECT_TRUE(from_pool);
  EXPECT_EQ(s2->base, base);  // same mapping, registration kept alive

  // A different geometry is a miss, not a mismatched reuse.
  ExecStack* s3 = pool.acquire_stack(kStack * 2, kGuard, &from_pool);
  ASSERT_NE(s3, nullptr);
  EXPECT_FALSE(from_pool);
  pool.release_stack(s2);
  pool.release_stack(s3);

  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.stack_hits, 1u);
  EXPECT_EQ(c.stack_misses, 2u);
}

TEST_F(PoolTest, DisabledPoolAlwaysRunsCold) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  SandboxResourcePool::Config cfg;
  cfg.enabled = false;
  pool.configure(cfg);

  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, nullptr));
  bool from_pool = true;
  LinearMemory mem =
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, &from_pool);
  EXPECT_TRUE(mem.valid());
  EXPECT_FALSE(from_pool);

  ExecStack* stack = pool.acquire_stack(64 * 1024, 4096, nullptr);
  ASSERT_NE(stack, nullptr);
  pool.release_stack(stack);
  stack = pool.acquire_stack(64 * 1024, 4096, &from_pool);
  ASSERT_NE(stack, nullptr);
  EXPECT_FALSE(from_pool);
  pool.release_stack(stack);
}

// End-to-end isolation through the engine, the cross-tenant canary: a
// module that reads its own state must see zeros when instantiated over a
// recycled memory that a previous "tenant" dirtied, under every bounds
// strategy. Interpreter tiers (no cc, sanitizer-safe).
TEST_F(PoolTest, RecycledInstantiateSeesFreshState) {
  const char* src = R"(
int state[4];
int main() { int old = state[0]; state[0] = 1234; return old; }
)";
  auto wasm = minicc::compile_to_wasm(src);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();

  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (engine::Tier tier : {engine::Tier::kInterp, engine::Tier::kInterpFast}) {
    for (BoundsStrategy strategy : kAllStrategies) {
      SCOPED_TRACE(std::string(engine::to_string(tier)) + "/" +
                   engine::to_string(strategy));
      engine::WasmModule::Config cfg;
      cfg.tier = tier;
      cfg.strategy = strategy;
      auto mod = engine::WasmModule::load(*wasm, cfg);
      ASSERT_TRUE(mod.ok()) << mod.error_message();
      auto spec = mod->memory_spec();
      ASSERT_TRUE(spec.has_memory);

      pool.purge();
      // Tenant A: runs over a fresh memory, leaves 1234 behind.
      {
        LinearMemory mem = pool.acquire_memory(spec.strategy, spec.min_pages,
                                               spec.max_pages, nullptr);
        ASSERT_TRUE(mem.valid());
        auto sb = mod->instantiate(std::move(mem));
        ASSERT_TRUE(sb.ok()) << sb.error_message();
        auto out = sb->call("main", {});
        ASSERT_TRUE(out.ok()) << out.describe();
        EXPECT_EQ(out.value->as_i32(), 0);
        pool.release_memory(sb->reclaim_memory());
      }
      // Tenant B: adopts the recycled region; stale 1234 must be gone.
      {
        bool from_pool = false;
        LinearMemory mem = pool.acquire_memory(spec.strategy, spec.min_pages,
                                               spec.max_pages, &from_pool);
        ASSERT_TRUE(mem.valid());
        EXPECT_TRUE(from_pool);
        auto sb = mod->instantiate(std::move(mem));
        ASSERT_TRUE(sb.ok()) << sb.error_message();
        auto out = sb->call("main", {});
        ASSERT_TRUE(out.ok()) << out.describe();
        EXPECT_EQ(out.value->as_i32(), 0) << "stale tenant state leaked";
        pool.release_memory(sb->reclaim_memory());
      }
    }
  }
}

// The state every tenant starts from is the module's initial snapshot:
// zeroed linear memory plus the initializer values of its globals. Tenant B,
// instantiated over the memory tenant A dirtied, must start from that
// snapshot and never see A's writes, neither to memory nor to a mutable
// global, under every bounds strategy.
class SnapshotTest : public PoolTest {};

TEST_F(SnapshotTest, SecondTenantNeverSeesFirstTenantWrites) {
  const char* src = R"(
int state[4];
int seen = 7;
int main() {
  int old = state[0] * 100 + seen;
  state[0] = 1111;
  seen = 99;
  return old;
}
)";
  auto wasm = minicc::compile_to_wasm(src);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();

  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterpFast;
    cfg.strategy = strategy;
    auto mod = engine::WasmModule::load(*wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();
    auto spec = mod->memory_spec();
    ASSERT_TRUE(spec.has_memory);

    pool.purge();
    for (const char* tenant : {"A", "B"}) {
      SCOPED_TRACE(tenant);
      bool from_pool = false;
      LinearMemory mem = pool.acquire_memory(spec.strategy, spec.min_pages,
                                             spec.max_pages, &from_pool);
      ASSERT_TRUE(mem.valid());
      // A gets a fresh region; B adopts the one A dirtied.
      EXPECT_EQ(from_pool, tenant[0] == 'B');
      auto sb = mod->instantiate(std::move(mem));
      ASSERT_TRUE(sb.ok()) << sb.error_message();
      auto out = sb->call("main", {});
      ASSERT_TRUE(out.ok()) << out.describe();
      EXPECT_EQ(out.value->as_i32(), 7) << "tenant did not start from the "
                                           "module's initial snapshot";
      pool.release_memory(sb->reclaim_memory());
    }
  }
}

// Sandboxes created and destroyed on several threads at once, cycling
// their memories and stacks through the shared pool (the sanitizer labels
// race the per-thread free lists, the global overflow and the recycle path
// that runs on every destruction). Sandboxes are never dispatched, so no
// ucontext switch runs.
TEST_F(PoolTest, ConcurrentCreateDestroyThroughPool) {
  auto wasm = minicc::compile_to_wasm(R"(
int state[8];
int main() { state[0] = state[0] + 1; return state[0]; }
)");
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = BoundsStrategy::kVmGuard;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 80;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        // The destructor hands memory and stack back to the pool; the next
        // create on any thread may adopt the recycled region.
        if (!Sandbox::create(&mod.value(), {})) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every create took one memory and one stack; after the first round on
  // each thread, the rest came off a free list.
  const SandboxResourcePool::Counters c =
      SandboxResourcePool::instance().counters();
  constexpr uint64_t kCreates = kThreads * kItersPerThread;
  EXPECT_EQ(c.memory_hits + c.memory_misses, kCreates);
  EXPECT_EQ(c.stack_hits + c.stack_misses, kCreates);
  EXPECT_GE(c.memory_hits, kCreates - kThreads);
  EXPECT_GE(c.stack_hits, kCreates - kThreads);
}

}  // namespace
}  // namespace sledge::runtime
