#include "sledge/switch.hpp"

#include <algorithm>
#include <cstdint>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

// Saved frame, from the saved rsp up: x87 control word (bytes 0-1) and
// MXCSR (bytes 4-7), r15, r14, r13, r12, rbx, rbp, return address. A seeded
// frame returns into sledge_fiber_thunk, which calls rbx(r12, r13).
asm(R"(
    .text
    .globl switch_stack
    .type switch_stack, @function
switch_stack:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    fnstcw (%rsp)
    stmxcsr 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw (%rsp)
    ldmxcsr 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size switch_stack, .-switch_stack

    .globl sledge_fiber_thunk
    .hidden sledge_fiber_thunk
sledge_fiber_thunk:
    movq %r12, %rdi
    movq %r13, %rsi
    callq *%rbx
    ud2
)");

extern "C" void sledge_fiber_thunk();

namespace sledge::runtime {

namespace {
#ifdef __SANITIZE_ADDRESS__
// The stack of whoever last switched into this thread's running fiber: a
// fiber without its own stack (a scheduler) is resumed on that one.
thread_local const void* t_from_lo = nullptr;
thread_local size_t t_from_size = 0;
#endif

void fiber_start(void* arg, void (*entry)(void*)) {
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, &t_from_lo, &t_from_size);
#endif
  entry(arg);
}
}  // namespace

void seed_fiber(Fiber* f, void* lo, size_t size, void (*entry)(void*),
                void* arg) {
  // After the thunk's return address is popped rsp is `top`, 16-aligned
  // for its call.
  auto top = (reinterpret_cast<uintptr_t>(lo) + size) & ~uintptr_t{15};
  uint64_t* frame = reinterpret_cast<uint64_t*>(top) - 8;
  std::fill_n(frame, 8, 0);  // rbp = 0 ends frame-pointer walks
  frame[0] = uint64_t{0x1F80} << 32 | 0x037F;  // ABI-default MXCSR, x87 CW
  frame[3] = reinterpret_cast<uintptr_t>(entry);                // r13
  frame[4] = reinterpret_cast<uintptr_t>(arg);                  // r12
  frame[5] = reinterpret_cast<uintptr_t>(&fiber_start);         // rbx
  frame[7] = reinterpret_cast<uintptr_t>(&sledge_fiber_thunk);  // return
  f->sp = frame;
#ifdef SLEDGE_FIBER_HOOKS
  f->lo = lo;
  f->size = size;
#endif
#ifdef __SANITIZE_THREAD__
  f->tsan = __tsan_create_fiber(0);
#endif
}

#ifdef SLEDGE_FIBER_HOOKS
Fiber::~Fiber() {
#ifdef __SANITIZE_THREAD__
  if (lo != nullptr) __tsan_destroy_fiber(tsan);
#endif
}

void switch_fiber(Fiber* from, Fiber* to) {
#ifdef __SANITIZE_THREAD__
  if (from->tsan == nullptr) from->tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to->tsan, 0);
#endif
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_start_switch_fiber(&from->fake_stack, to->lo ? to->lo : t_from_lo,
                                 to->lo ? to->size : t_from_size);
#endif
  switch_stack(&from->sp, to->sp);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(from->fake_stack, &t_from_lo, &t_from_size);
#endif
}
#endif

}  // namespace sledge::runtime
