// Per-worker scheduling policy, extracted from Worker's embedded run queue.
//
// The policy owns the worker-local set of runnable sandboxes and decides
// which one runs next. Whether the quantum timer preempts at all is the
// runtime's `preemption` flag; with it off, round robin is FIFO
// run-to-completion.
//
//   kRoundRobin — the paper's default (§3.4): FIFO queue, preempted
//                 sandboxes rotate to the tail.
//   kEdf        — earliest-deadline-first over the absolute wall-clock
//                 deadlines set at admission (Sandbox::deadline_at_ns);
//                 deadline-less sandboxes sort last, ties break FIFO.
//                 Preemption stays quantum-granular: a newly arrived tighter
//                 deadline is picked at the next quantum expiry or yield,
//                 not instantly.
//
// Policies are per-worker and single-threaded: only the owning worker
// touches its instance (the cross-thread handoff stays in the Dispatcher).
#pragma once

#include <cstdint>
#include <memory>

#include "sledge/sandbox.hpp"

namespace sledge::runtime {

enum class SchedPolicy : uint8_t { kRoundRobin, kEdf };

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

  // True = the worker should drain every available distributor entry into
  // the policy before picking (EDF needs the full candidate set to order by
  // deadline; RR keeps the paper's one-admission-per-iteration fairness).
  virtual bool admit_eagerly() const = 0;

  static std::unique_ptr<SchedulerPolicy> make(SchedPolicy kind);
};

}  // namespace sledge::runtime
