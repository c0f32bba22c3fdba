// Per-worker scheduling policy, extracted from Worker's embedded run queue.
//
// The policy owns the worker-local set of runnable sandboxes and decides
// (a) which one runs next and (b) whether the quantum timer may preempt it:
//
//   kRoundRobin          — the paper's default (§3.4): FIFO queue, preempted
//                          sandboxes rotate to the tail, quantum timer armed.
//   kFifoRunToCompletion — admission order, no preemption ever: the timer is
//                          never armed, so a dispatched sandbox keeps the
//                          core until it completes, blocks, or traps.
//   kEdf                 — earliest-deadline-first over the absolute
//                          wall-clock deadlines set at admission
//                          (Sandbox::deadline_at_ns, PR 1); deadline-less
//                          sandboxes sort last, ties break FIFO. Preemption
//                          stays quantum-granular: a newly arrived tighter
//                          deadline is picked at the next quantum expiry or
//                          yield, not instantly.
//
// Policies are per-worker and single-threaded: only the owning worker
// touches its instance (the cross-thread handoff stays in the Dispatcher).
#pragma once

#include <cstdint>
#include <memory>

#include "sledge/sandbox.hpp"

namespace sledge::runtime {

enum class SchedPolicy : uint8_t {
  kRoundRobin = 0,
  kFifoRunToCompletion = 1,
  kEdf = 2,
};

const char* to_string(SchedPolicy p);

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual SchedPolicy kind() const = 0;

  // Adds a runnable sandbox: a fresh admission or a preempted/woken one.
  virtual void enqueue(Sandbox* sb) = 0;

  // Pops the sandbox to run next, or nullptr when empty.
  virtual Sandbox* pick_next() = 0;

  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  // False = run-to-completion: the worker must not arm the quantum timer.
  virtual bool allows_preemption() const = 0;

  // True = the worker should drain every available distributor entry into
  // the policy before picking (EDF needs the full candidate set to order by
  // deadline; RR keeps the paper's one-admission-per-iteration fairness).
  virtual bool admit_eagerly() const = 0;

  static std::unique_ptr<SchedulerPolicy> make(SchedPolicy kind);
};

}  // namespace sledge::runtime
