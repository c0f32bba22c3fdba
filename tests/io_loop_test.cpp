// IoLoop unit tests (sanitizer-safe: no sandbox is ever dispatched, so no
// ucontext switches or SIGALRM preemption — wake conditions are fabricated
// via Sandbox::test_set_blocked). Covers the timer min-heap, fd wakes,
// cross-thread notify, deadline kills of blocked sandboxes, stale-entry
// validation, and EPOLLOUT write-fd parking. Also the MemView zero-length
// hostcall-pointer audit.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "engine/host.hpp"
#include "engine/trap.hpp"
#include "minicc/minicc.hpp"
#include "sledge/io_loop.hpp"
#include "sledge/sandbox.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

class IoLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto wasm = minicc::compile_to_wasm(R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)");
    ASSERT_TRUE(wasm.ok()) << wasm.error_message();
    auto mod = engine::WasmModule::load(wasm.value(), {});
    ASSERT_TRUE(mod.ok()) << mod.error_message();
    module_ = std::make_unique<engine::WasmModule>(mod.take());
    ASSERT_TRUE(loop_.init().is_ok());
  }

  // A sandbox that never runs; tests only use its wake-condition fields.
  std::unique_ptr<Sandbox> make_sandbox() {
    std::unique_ptr<Sandbox> sb = Sandbox::create(module_.get(), {});
    EXPECT_NE(sb, nullptr);
    return sb;
  }

  std::unique_ptr<engine::WasmModule> module_;
  IoLoop loop_;
};

TEST_F(IoLoopTest, TimerHeapWakesInDeadlineOrder) {
  uint64_t now = now_ns();
  auto a = make_sandbox();
  auto b = make_sandbox();
  auto c = make_sandbox();
  a->test_set_blocked(WakeKind::kTimer, -1, now + 50'000'000);
  b->test_set_blocked(WakeKind::kTimer, -1, now + 10'000'000);
  c->test_set_blocked(WakeKind::kTimer, -1, now + 2'000'000'000);
  loop_.add_blocked(a.get());
  loop_.add_blocked(b.get());
  loop_.add_blocked(c.get());
  EXPECT_EQ(loop_.blocked_count(), 3u);

  // The nearest timer (b, +10ms) bounds the sleep budget.
  uint64_t budget = loop_.sleep_budget_ns(now, 1'000'000'000);
  EXPECT_LE(budget, 10'000'000u);
  EXPECT_GT(budget, 0u);

  // Collect wakes until both near timers fire (a single poll may deliver
  // one or both depending on scheduling noise); order must be b then a.
  std::vector<Sandbox*> ready;
  uint64_t t0 = now_ns();
  while (ready.size() < 2 && now_ns() - t0 < 2'000'000'000) {
    loop_.poll(20'000'000, &ready);
  }
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], b.get());  // +10 ms fires before +50 ms
  EXPECT_EQ(ready[1], a.get());
  EXPECT_EQ(b->state(), SandboxState::kRunnable);
  EXPECT_FALSE(b->kill_requested());
  EXPECT_EQ(loop_.blocked_count(), 1u);

  std::vector<Sandbox*> rest;
  loop_.drain_all(&rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], c.get());
}

TEST_F(IoLoopTest, FdReadWakeFiresWhenDataArrives) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto sb = make_sandbox();
  sb->test_set_blocked(WakeKind::kFdRead, sv[0], 0);
  loop_.add_blocked(sb.get());

  std::vector<Sandbox*> ready;
  loop_.poll(0, &ready);
  EXPECT_TRUE(ready.empty());  // no data yet

  char byte = 'x';
  ASSERT_EQ(::write(sv[1], &byte, 1), 1);
  uint64_t t0 = now_ns();
  loop_.poll(1'000'000'000, &ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], sb.get());
  EXPECT_EQ(sb->state(), SandboxState::kRunnable);
  EXPECT_LT(now_ns() - t0, 500'000'000u);  // woke on the event, not timeout
  EXPECT_TRUE(loop_.empty());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(IoLoopTest, NotifyInterruptsSleepFromAnotherThread) {
  std::thread waker([this] {
    ::usleep(30'000);
    loop_.notify();
  });
  std::vector<Sandbox*> ready;
  uint64_t t0 = now_ns();
  bool rang = loop_.poll(2'000'000'000, &ready);
  EXPECT_LT(now_ns() - t0, 1'000'000'000u);
  EXPECT_TRUE(rang);  // the doorbell tells the worker to re-check everything
  waker.join();
}

TEST_F(IoLoopTest, WallDeadlineKillsSandboxBlockedOnQuietFd) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto sb = make_sandbox();
  sb->set_limits(0, now_ns() + 30'000'000);  // 30 ms wall deadline
  sb->test_set_blocked(WakeKind::kFdRead, sv[0], 0);
  loop_.add_blocked(sb.get());

  std::vector<Sandbox*> ready;
  uint64_t t0 = now_ns();
  while (ready.empty() && now_ns() - t0 < 1'000'000'000) {
    loop_.poll(loop_.sleep_budget_ns(now_ns(), 100'000'000), &ready);
  }
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], sb.get());
  EXPECT_TRUE(sb->kill_requested());  // woken to die, fd never turned ready
  EXPECT_LT(now_ns() - t0, 500'000'000u);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(IoLoopTest, StaleTimerEntriesAreDiscardedWithoutEffect) {
  uint64_t now = now_ns();
  auto sb = make_sandbox();
  sb->set_limits(0, now + 30'000'000);
  sb->test_set_blocked(WakeKind::kTimer, -1, now + 10'000'000);
  loop_.add_blocked(sb.get());

  std::vector<Sandbox*> ready;
  loop_.poll(20'000'000, &ready);
  ASSERT_EQ(ready.size(), 1u);  // the 10 ms sleep timer fired first
  EXPECT_FALSE(sb->kill_requested());

  // Re-block a new episode with no deadline: the first episode's 30 ms
  // deadline entry is still in the heap but must be ignored (stale seq).
  sb->set_limits(0, 0);
  sb->test_set_blocked(WakeKind::kTimer, -1, now + 2'000'000'000);
  loop_.add_blocked(sb.get());
  ready.clear();
  loop_.poll(40'000'000, &ready);  // past the stale deadline
  EXPECT_TRUE(ready.empty());
  EXPECT_FALSE(sb->kill_requested());
  EXPECT_EQ(loop_.blocked_count(), 1u);

  std::vector<Sandbox*> rest;
  loop_.drain_all(&rest);
  EXPECT_EQ(rest.size(), 1u);
}

TEST_F(IoLoopTest, WriteFdParkingSignalsWritableAndUnparks) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  loop_.watch_write_fd(sv[0]);
  std::vector<Sandbox*> ready;
  uint64_t t0 = now_ns();
  loop_.poll(1'000'000'000, &ready);
  EXPECT_LT(now_ns() - t0, 500'000'000u);  // a fresh socket is writable

  loop_.unwatch_write_fd(sv[0]);
  t0 = now_ns();
  EXPECT_FALSE(loop_.poll(30'000'000, &ready));
  EXPECT_GE(now_ns() - t0, 25'000'000u);  // nothing watched: full sleep
  ::close(sv[0]);
  ::close(sv[1]);
}

// Satellite audit: zero-length hostcall pointers. A len==0 range is legal
// anywhere in [0, size] (one-past-the-end included) and must not trap; any
// ptr beyond size must trap even with len==0, and ptr+len overflow must not
// wrap into acceptance.
TEST(MemViewTest, ZeroLengthAndOverflowEdges) {
  std::vector<uint8_t> backing(16);
  engine::MemView mem{backing.data(), backing.size()};

  auto traps = [&](uint32_t ptr, uint32_t len) {
    engine::TrapFrame frame;
    volatile bool trapped = true;
    if (sigsetjmp(frame.env, 1) == 0) {
      engine::TrapScope scope(&frame);
      mem.check_range(ptr, len);
      trapped = false;
    }
    return trapped;
  };

  EXPECT_FALSE(traps(0, 0));
  EXPECT_FALSE(traps(0, 16));
  EXPECT_FALSE(traps(16, 0));  // one-past-the-end, empty: legal
  EXPECT_EQ(mem.check_range(16, 0), backing.data() + 16);
  EXPECT_TRUE(traps(17, 0));   // beyond the end, even empty: trap
  EXPECT_TRUE(traps(16, 1));
  EXPECT_TRUE(traps(0, 17));
  // 32-bit wrap: ptr+len overflows uint32 but must still be rejected.
  EXPECT_TRUE(traps(0xFFFFFFFFu, 0xFFFFFFFFu));
  EXPECT_TRUE(traps(8, 0xFFFFFFF8u));
}

}  // namespace
}  // namespace sledge::runtime
