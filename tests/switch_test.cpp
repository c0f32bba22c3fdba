// The owned context switch (src/sledge/switch.*): a fresh context's first
// entry, what a round trip must preserve (callee-saved registers, the MXCSR
// and x87 control words), a switch out of a signal handler that later
// returns through sigreturn, and a preemption soak through the whole
// runtime under a 100 us quantum.
#include <gtest/gtest.h>

#include <signal.h>
#include <ucontext.h>

#include <cfenv>
#include <cstdint>
#include <thread>
#include <vector>

#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "sledge/switch.hpp"
#include "test_util.hpp"

// switch_probe(save, load, out): loads known values into rbx, rbp and
// r12-r15, calls switch_stack(save, load), and on return stores those six
// registers to out[0..5]. switch_clobber(save, load) fills the same
// registers with other values before switching, so only switch_stack's
// save and restore can bring the probe's values back.
asm(R"(
    .text
    .globl switch_probe
    .type switch_probe, @function
switch_probe:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    pushq %rdx
    movabsq $0x1111111111111111, %rbx
    movabsq $0x2222222222222222, %rbp
    movabsq $0x3333333333333333, %r12
    movabsq $0x4444444444444444, %r13
    movabsq $0x5555555555555555, %r14
    movabsq $0x6666666666666666, %r15
    call switch_stack
    popq %rdx
    movq %rbx, 0(%rdx)
    movq %rbp, 8(%rdx)
    movq %r12, 16(%rdx)
    movq %r13, 24(%rdx)
    movq %r14, 32(%rdx)
    movq %r15, 40(%rdx)
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size switch_probe, .-switch_probe

    .globl switch_clobber
    .type switch_clobber, @function
switch_clobber:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    movq $-1, %rbx
    movq $-2, %rbp
    movq $-3, %r12
    movq $-4, %r13
    movq $-5, %r14
    movq $-6, %r15
    call switch_stack
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size switch_clobber, .-switch_clobber
)");

extern "C" void switch_probe(void** save_sp, void* load_sp, uint64_t* out);
extern "C" void switch_clobber(void** save_sp, void* load_sp);

namespace sledge::runtime {
namespace {

uint16_t x87_cw() {
  uint16_t cw;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw;
}

void set_x87_cw(uint16_t cw) { asm volatile("fldcw %0" : : "m"(cw)); }

constexpr uint16_t kDefaultCw = 0x037F;
constexpr uint16_t kCwRoundUp = 0x0B7F;      // RC = 10
constexpr uint16_t kCwRoundToZero = 0x0F7F;  // RC = 11

struct TestFiber {
  std::vector<char> stack = std::vector<char>(64 * 1024);
  Fiber main, fiber;
};

TEST(SwitchTest, FreshContextReceivesItsArgumentOnItsOwnStack) {
  struct Trip : TestFiber {
    void* arg_seen = nullptr;
    bool on_stack = false;
    int round = -1;
    uint16_t cw = 0;
  } t;
  seed_fiber(
      &t.fiber, t.stack.data(), t.stack.size(),
      [](void* p) {
        auto* t = static_cast<Trip*>(p);
        char local;
        t->arg_seen = p;
        t->on_stack = &local >= t->stack.data() &&
                      &local < t->stack.data() + t->stack.size();
        t->round = std::fegetround();
        t->cw = x87_cw();
        switch_fiber(&t->fiber, &t->main);
        std::abort();  // never resumed
      },
      &t);
  // The creator's float environment does not leak into a fresh context.
  std::fesetround(FE_UPWARD);
  switch_fiber(&t.main, &t.fiber);
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(t.arg_seen, &t);
  EXPECT_TRUE(t.on_stack);
  EXPECT_EQ(t.round, FE_TONEAREST);
  EXPECT_EQ(t.cw, kDefaultCw);
}

TEST(SwitchTest, RoundTripPreservesCalleeSavedRegistersAndControlWords) {
#ifdef SLEDGE_FIBER_HOOKS
  GTEST_SKIP() << "the raw switch_stack probes bypass the sanitizer hooks";
#endif
  struct Trip : TestFiber {
    int round_after = -1;
    uint16_t cw_after = 0;
  } t;
  seed_fiber(
      &t.fiber, t.stack.data(), t.stack.size(),
      [](void* p) {
        auto* t = static_cast<Trip*>(p);
        std::fesetround(FE_UPWARD);
        set_x87_cw(kCwRoundUp);
        switch_clobber(&t->fiber.sp, t->main.sp);
        t->round_after = std::fegetround();
        t->cw_after = x87_cw();
        switch_fiber(&t->fiber, &t->main);
        std::abort();
      },
      &t);

  std::fesetround(FE_TOWARDZERO);
  set_x87_cw(kCwRoundToZero);
  uint64_t regs[6] = {};
  switch_probe(&t.main.sp, t.fiber.sp, regs);
  const int round = std::fegetround();
  const uint16_t cw = x87_cw();
  switch_fiber(&t.main, &t.fiber);  // let the fiber check its own side
  std::fesetround(FE_TONEAREST);
  set_x87_cw(kDefaultCw);

  const uint64_t want[6] = {0x1111111111111111, 0x2222222222222222,
                            0x3333333333333333, 0x4444444444444444,
                            0x5555555555555555, 0x6666666666666666};
  const char* names[6] = {"rbx", "rbp", "r12", "r13", "r14", "r15"};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(regs[i], want[i]) << names[i];
  EXPECT_EQ(round, FE_TOWARDZERO);
  EXPECT_EQ(cw, kCwRoundToZero);
  EXPECT_EQ(t.round_after, FE_UPWARD);
  EXPECT_EQ(t.cw_after, kCwRoundUp);
}

// The worker's preemption path in miniature: a SA_NODEFER handler running
// on the fiber's stack switches out, the scheduler side switches back in,
// and the handler returns through sigreturn into the interrupted code.
struct SigTrip : TestFiber {
  bool rsp_on_stack = false;
  int handler_resumed = 0;
  int after_sigreturn = 0;
};
SigTrip* g_trip = nullptr;

void switch_out_handler(int, siginfo_t*, void* uc) {
  auto rsp = static_cast<uintptr_t>(
      static_cast<ucontext_t*>(uc)->uc_mcontext.gregs[REG_RSP]);
  auto lo = reinterpret_cast<uintptr_t>(g_trip->stack.data());
  g_trip->rsp_on_stack = rsp >= lo && rsp < lo + g_trip->stack.size();
  switch_fiber(&g_trip->fiber, &g_trip->main);
  ++g_trip->handler_resumed;
}

TEST(SwitchTest, SwitchOutOfSignalHandlerResumesThroughSigreturn) {
  struct sigaction sa {}, old {};
  sa.sa_sigaction = switch_out_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  sigset_t mask_before, mask_after;
  pthread_sigmask(SIG_SETMASK, nullptr, &mask_before);

  SigTrip t;
  g_trip = &t;
  seed_fiber(
      &t.fiber, t.stack.data(), t.stack.size(),
      [](void* p) {
        auto* t = static_cast<SigTrip*>(p);
        volatile int live = 42;  // a value held across the signal
        ::raise(SIGUSR1);
        if (live == 42) ++t->after_sigreturn;
        switch_fiber(&t->fiber, &t->main);
        std::abort();
      },
      &t);
  switch_fiber(&t.main, &t.fiber);  // returns from inside the handler
  EXPECT_TRUE(t.rsp_on_stack);
  EXPECT_EQ(t.handler_resumed, 0);
  EXPECT_EQ(t.after_sigreturn, 0);
  switch_fiber(&t.main, &t.fiber);  // handler returns, fiber finishes
  EXPECT_EQ(t.handler_resumed, 1);
  EXPECT_EQ(t.after_sigreturn, 1);

  pthread_sigmask(SIG_SETMASK, nullptr, &mask_after);
  EXPECT_EQ(sigismember(&mask_after, SIGUSR1), 0);
  EXPECT_EQ(sigismember(&mask_before, SIGALRM),
            sigismember(&mask_after, SIGALRM));
  sigaction(SIGUSR1, &old, nullptr);
  g_trip = nullptr;
}

// Two workers under a 100 us quantum, CPU-bound spins beside pings over
// keep-alive connections: quantum signals land all over the worker loop,
// the switch, host calls and guest code. The ledger must be exact.
TEST(PreemptionSoakTest, SpinAndPingOverKeepAlive) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.quantum_us = 100;
  Runtime rt(cfg);
  auto spin = minicc::compile_to_wasm(testutil::spin_src(3'000'000));
  auto ping = minicc::compile_to_wasm(
      "char out[1]; int main() { out[0] = 112; resp_write(out, 1); "
      "return 0; }");
  ASSERT_TRUE(spin.ok() && ping.ok());
  ASSERT_TRUE(rt.register_module("spin", *spin).is_ok());
  ASSERT_TRUE(rt.register_module("ping", *ping).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  auto drive = [&](const char* path, int conns, uint64_t n, char body,
                   loadgen::Report* out) {
    loadgen::Options o;
    o.port = rt.bound_port();
    o.path = path;
    o.concurrency = conns;
    o.total_requests = n;
    o.expect_body = {static_cast<uint8_t>(body)};
    auto r = loadgen::run_load(o);
    ASSERT_TRUE(r.ok()) << r.error_message();
    *out = r.take();
  };
  loadgen::Report spins, pings;
  std::thread spinner([&] { drive("/spin", 2, 500, 's', &spins); });
  drive("/ping", 4, 10000, 'p', &pings);
  spinner.join();
  rt.stop();

  Runtime::Totals t = rt.totals();
  EXPECT_EQ(spins.count(200), 500u);
  EXPECT_EQ(pings.count(200), 10000u);
  EXPECT_EQ(spins.errors + pings.errors, 0u);
  EXPECT_EQ(t.completed, spins.count(200) + pings.count(200));
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.killed, 0u);
  EXPECT_GT(t.preemptions, 0u);
}

}  // namespace
}  // namespace sledge::runtime
