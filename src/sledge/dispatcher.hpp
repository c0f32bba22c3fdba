// The dispatcher layer: how admitted sandboxes travel from the listener to
// a worker core. Sits above the per-worker SchedulerPolicy (which orders a
// worker's *local* runnable set) and decides the *global* hand-out. One
// config key, five implementations:
//
//   kWorkStealing — the paper's design: a global Chase–Lev deque any idle
//                   worker steals from. Deadline-blind but
//                   work-conserving and lock-free on the fetch path.
//   kGlobalLock   — queue ablation: one mutex-protected FIFO
//                   (work-conserving, not scalable).
//   kPerWorker    — queue ablation: per-worker FIFOs filled round-robin,
//                   no stealing (scalable, not work-conserving).
//   kGlobalEdf    — one centralized deadline-sorted admit order: every
//                   fetch() pops the earliest absolute deadline across ALL
//                   queued requests (deadline-less requests sort last, FIFO
//                   ties). The SLEdgeScale-style "task-deadline-aware"
//                   hand-out; a mutexed binary heap, so scalability is
//                   traded for global deadline order.
//   kShardedByModule — per-worker FIFOs like kPerWorker, but the shard is
//                   chosen by hashing the target module: one module's
//                   requests always land on the same core (cache locality,
//                   per-module isolation), no stealing.
//
// Every dispatcher composes with every per-worker SchedulerPolicy: the
// dispatcher fixes the order in which a worker *receives* work, the policy
// the order in which the worker *runs* what it holds.
#pragma once

#include <cstdint>
#include <memory>

#include "sledge/sandbox.hpp"

namespace sledge::runtime {

enum class DispatchPolicy : uint8_t {
  kWorkStealing = 0,
  kGlobalLock = 1,
  kPerWorker = 2,
  kGlobalEdf = 3,
  kShardedByModule = 4,
};

const char* to_string(DispatchPolicy p);

// Named only by the benchmark's call to the forwarding make() below.
enum class DistPolicy : uint8_t { kWorkStealing };

// The pluggable hand-out structure. Contracts shared by every
// implementation:
//   push()   — listener-shard admit. With N listener shards there are N
//              producers; kWorkStealing serializes them onto the Chase–Lev
//              owner end.
//   inject() — any-thread side entrance (sb_invoke children admitted from
//              worker threads).
//   fetch()  — worker-side dequeue; returns false when nothing is available
//              for `worker_index`. Each pushed sandbox is returned by
//              exactly one successful fetch (no loss, no duplication).
//   backlog_estimate() — racy size probe for drain/observability.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  virtual DispatchPolicy kind() const = 0;
  virtual void push(Sandbox* sb) = 0;
  // Admit a whole epoll tick's worth of sandboxes in one call (listener
  // shards batch admissions; queue kinds that lock can amortize to one
  // acquisition). Default just loops over push().
  virtual void push_batch(Sandbox* const* sbs, size_t n) {
    for (size_t i = 0; i < n; ++i) push(sbs[i]);
  }
  // `worker_hint` >= 0 prefers that worker (invoke locality). Only
  // kWorkStealing honors it; the others place children exactly like
  // pushed requests, because their placement rule is the policy.
  virtual void inject(Sandbox* sb, int worker_hint = -1) = 0;
  virtual bool fetch(int worker_index, Sandbox** out) = 0;
  virtual int64_t backlog_estimate() const = 0;

  static std::unique_ptr<Dispatcher> make(DispatchPolicy policy, int workers);
  // Exists only for the repository benchmark (perfbench/pbench.cpp), which
  // is compiled unchanged against this header; forwards to make() above.
  static std::unique_ptr<Dispatcher> make(DispatchPolicy policy, DistPolicy,
                                          int workers) {
    return make(policy, workers);
  }
};

}  // namespace sledge::runtime
