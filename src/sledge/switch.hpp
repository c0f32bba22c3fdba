// The sandbox context switch (x86-64 System V). switch_stack pushes the
// callee-saved registers and the MXCSR / x87 control words, stores rsp
// through save_sp, loads load_sp and pops the target's frame. A saved
// context is one stack pointer, and the one `mov` into rsp commits the
// switch, so a signal landing anywhere finds both frames complete. The
// signal mask is never touched.
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#error "switch_stack is implemented for x86-64 only"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SLEDGE_FIBER_HOOKS 1
#endif

namespace sledge::runtime {

extern "C" void switch_stack(void** save_sp, void* load_sp);

// One end of a switch. Sanitizer builds also keep the fiber's own stack
// (null for a thread's stack) and its TSan fiber.
struct Fiber {
  void* sp = nullptr;
#ifdef SLEDGE_FIBER_HOOKS
  void* lo = nullptr;
  size_t size = 0;
  void* tsan = nullptr;
  void* fake_stack = nullptr;
  ~Fiber();
#endif
};

// Lays a first frame at the top of the stack [lo, lo + size): the first
// switch into `f` calls entry(arg) there. entry must never return.
void seed_fiber(Fiber* f, void* lo, size_t size, void (*entry)(void*),
                void* arg);

// Saves the running context into `from` and resumes `to`. The one caller
// of switch_stack, and so the one place sanitizers hear of the switch.
#ifdef SLEDGE_FIBER_HOOKS
void switch_fiber(Fiber* from, Fiber* to);
#else
inline void switch_fiber(Fiber* from, Fiber* to) {
  switch_stack(&from->sp, to->sp);
}
#endif

}  // namespace sledge::runtime
