// Sandbox trap machinery.
//
// A trap is a fault the sandbox caused (out-of-bounds access, div/0, CFI
// violation, ...). Interpreters report traps through return codes; AoT
// native code reports them by calling into the runtime which unwinds with
// siglongjmp. The vm_guard bounds strategy additionally converts SIGSEGV
// faults that land inside a registered guard region into kOutOfBoundsMemory
// traps — this is the paper's "virtual memory based bounds management".
#pragma once

#include <csetjmp>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sledge::engine {

enum class TrapCode : int {
  kNone = 0,
  kUnreachable,
  kOutOfBoundsMemory,
  kDivByZero,
  kIntegerOverflow,
  kInvalidConversion,     // f->i truncation of NaN or out-of-range value
  kIndirectCallNull,      // table slot empty
  kIndirectCallType,      // CFI: signature mismatch
  kIndirectCallOob,       // table index out of range
  kCallStackExhausted,
  kHostError,
  kDeadlineExceeded,      // runtime killed the sandbox (CPU budget / deadline)
};

const char* trap_name(TrapCode code);

// Per-thread trap unwind target. Scope-based: constructing a TrapScope makes
// this thread's current sigsetjmp buffer available to raise_trap().
struct TrapFrame {
  sigjmp_buf env;
  TrapCode code = TrapCode::kNone;
  TrapFrame* prev = nullptr;
};

namespace trap_internal {
TrapFrame*& current_frame();
}

// Installs `frame` as the innermost trap handler for this thread. The
// signal mask is not saved: every handler that unwinds here (SIGSEGV/SIGBUS,
// the quantum SIGALRM) is SA_NODEFER, so a longjmp out of it leaves the mask
// as it was. Usage:
//   TrapFrame frame;
//   if (sigsetjmp(frame.env, 0) == 0) {
//     TrapScope scope(&frame);
//     ... run sandboxed code ...
//   } else {
//     ... frame.code holds the trap ...
//   }
class TrapScope {
 public:
  explicit TrapScope(TrapFrame* frame) : frame_(frame) {
    frame->prev = trap_internal::current_frame();
    trap_internal::current_frame() = frame;
  }
  ~TrapScope() { trap_internal::current_frame() = frame_->prev; }
  TrapScope(const TrapScope&) = delete;
  TrapScope& operator=(const TrapScope&) = delete;

 private:
  TrapFrame* frame_;
};

// Unwinds to the innermost TrapScope on this thread. Aborts the process if
// no scope is active (a runtime bug, not a sandbox bug).
[[noreturn]] void raise_trap(TrapCode code);

// True when a TrapScope is active on this thread, i.e. raise_trap() would
// unwind instead of aborting. A sandbox resumed from a block checks it
// before acting on a kill that arrived while it was parked.
bool in_trap_scope();

// Guest code is the only code an asynchronous quantum signal may switch out
// or unwind. Runtime and libc code it calls (host calls, the interpreters'
// frame allocations) may hold a lock or malloc state that the scheduler,
// running next on the same thread, would re-enter. GuestCode(true) marks a
// guest run, GuestCode(false) a call out of one; raise_trap leaves guest
// code.
inline thread_local volatile bool t_in_guest_code = false;
struct GuestCode {
  explicit GuestCode(bool guest) : prev(t_in_guest_code) {
    t_in_guest_code = guest;
  }
  ~GuestCode() { t_in_guest_code = prev; }
  const bool prev;
};

// The interpreters' frame storage: its malloc and free run outside guest
// code.
template <class T>
struct HostAllocator : std::allocator<T> {
  T* allocate(size_t n) {
    GuestCode host(false);
    return std::allocator<T>::allocate(n);
  }
  void deallocate(T* p, size_t n) {
    GuestCode host(false);
    std::allocator<T>::deallocate(p, n);
  }
};
template <class T>
using FrameVector = std::vector<T, HostAllocator<T>>;

// Swaps the thread's innermost trap frame chain for `frame`, returning the
// old chain. User-level schedulers call this when switching sandbox
// contexts: the trap chain lives on a sandbox's stack and must travel with
// it, not with the OS thread, or interleaved preemption corrupts it.
TrapFrame* exchange_trap_chain(TrapFrame* frame);

// Registers [base, base+len) as a guard region: SIGSEGV faults inside it are
// converted to kOutOfBoundsMemory traps. Returns a registration id.
int register_guard_region(const void* base, size_t len);
void unregister_guard_region(int id);

// Installs the process-wide SIGSEGV/SIGBUS handler (idempotent, thread-safe).
void install_trap_signal_handler();

// Ensures the calling thread has an alternate signal stack so stack-overflow
// faults in sandboxes can still be handled: an enabled one of at least
// 64 KiB (a sanitizer's, say) is kept, otherwise the runtime's own is
// installed. Call once on every sandbox-running thread.
void ensure_sigaltstack();

}  // namespace sledge::engine
