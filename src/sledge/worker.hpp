// A Sledge worker core: a pluggable per-worker scheduling policy (round
// robin / EDF) over sandbox contexts, fused with a
// per-worker epoll event loop (IoLoop — the libuv-style loop of paper §4)
// that parks blocked sandboxes on wake conditions (timers, outbound-socket
// readiness, child-sandbox completion) and sleeps the core when nothing is
// runnable. The quantum timer is only armed when the runtime config allows
// preemption.
#pragma once

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sledge/io_loop.hpp"
#include "sledge/sandbox.hpp"
#include "sledge/scheduler_policy.hpp"

namespace sledge::runtime {

class Runtime;
struct LoadedModule;

class Worker {
 public:
  Worker(Runtime* rt, int index);
  ~Worker();

  // Creates the worker's event loop (epoll fd + eventfd) on the calling
  // thread. Runtime::start() calls it for every worker before any thread
  // runs, so a failure fails start() instead of leaving a dead worker, and
  // the fds exist (and notify() is safe) from the moment start() returns.
  Status init() { return io_loop_.init(); }
  void start();
  void join();

  // Cross-thread wake: interrupts an idle epoll sleep. Safe from any thread.
  void notify() { io_loop_.notify(); }

  // Parked handshake (thread_main, Runtime::wake_idle): the stamp is nonzero
  // while the worker is in or entering a blocking poll, larger = parked
  // later. wake_parked() claims the sleeper: one doorbell write per park.
  uint64_t parked_stamp() const {
    return parked_.load(std::memory_order_relaxed);
  }
  void wake_parked() {
    if (parked_.exchange(0, std::memory_order_relaxed) != 0) notify();
  }

  // Racy snapshot of this worker's runnable backlog (policy queue + the
  // sandbox on core), refreshed each scheduler iteration. The invoke
  // locality check reads it to decide whether the parent's worker has
  // slack for a co-located child.
  uint32_t backlog_hint() const {
    return backlog_hint_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::atomic<uint64_t> dispatches{0};
    std::atomic<uint64_t> preemptions{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> killed{0};   // deadline/budget terminations (504)
    std::atomic<uint64_t> drained{0};  // abandoned at shutdown
    std::atomic<uint64_t> blocked{0};  // sandboxes parked on a wake condition
    std::atomic<uint64_t> woken{0};    // sandboxes handed back by the IoLoop
    std::atomic<uint64_t> idle_wakes{0};  // blocking polls ended by the doorbell
    // Resource-pool split of retired sandboxes: warm (every resource off a
    // free list) vs cold (at least one fresh allocation).
    std::atomic<uint64_t> pool_hits{0};
    std::atomic<uint64_t> pool_misses{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  friend void worker_quantum_handler(int, siginfo_t*, void*);

  // Per-request phase breakdown, captured at finalize() so it outlives the
  // sandbox: the response-write phase completes after the sandbox is gone.
  struct RequestTrace {
    LoadedModule* mod = nullptr;
    int status = 0;
    uint64_t created_ns = 0;
    uint64_t done_ns = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t startup_ns = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t io_wait_ns = 0;
    uint32_t dispatches = 0;
    uint32_t preempts = 0;
  };

  // Response bytes are kept as header + body and written as a writev of
  // two iovecs (zero-copy: the body is moved out of the sandbox, never
  // concatenated into a temporary). `offset` indexes the logical
  // header·body concatenation.
  struct WriteJob {
    int fd;
    std::string header;
    std::vector<uint8_t> body;
    size_t offset = 0;
    bool keep_alive = false;
    int shard = 0;        // owning listener shard (fd return address)
    bool replay = false;  // shard stashed pipelined bytes behind this one
    RequestTrace trace;
  };

  void thread_main();
  Sandbox* next_sandbox();
  void dispatch(Sandbox* sb);
  void finalize(Sandbox* sb);
  void abandon(Sandbox* sb);  // shutdown: retire without a response
  // Re-enqueues sandboxes the IoLoop handed back from poll().
  void admit_woken(std::vector<Sandbox*>* woken);
  // Completes (or errors out) a child sandbox's InvokeJoin and pings the
  // parent's worker. No-op for listener-originated sandboxes.
  void signal_join(Sandbox* sb, int32_t status, bool take_response);
  // Returns true if any write made progress or completed.
  bool pump_writes();
  // A flushed (or failed) response: record the response_write phase and
  // append the structured access-log line to the worker-local buffer.
  void complete_write(const WriteJob& w, uint64_t now, bool write_ok);
  void flush_access_log();
  void setup_timer();
  // Arms the quantum timer, clipped to the sandbox's remaining CPU budget /
  // wall deadline so kills land promptly, not at the next full quantum.
  void arm_timer(const Sandbox* sb);
  void disarm_timer();
  // Async-signal-safe: re-arms a minimal (100us) slice. Used by the quantum
  // handler to defer a preemption that landed outside guest code.
  void rearm_timer_min();

  Runtime* rt_;
  int index_;
  std::thread thread_;

  Fiber sched_;  // the scheduler loop's context while a sandbox runs
  Sandbox* current_ = nullptr;

  std::unique_ptr<SchedulerPolicy> policy_;
  IoLoop io_loop_;
  std::vector<WriteJob> writes_;
  std::string access_buf_;  // buffered access-log lines (flushed off-path)

  timer_t timer_{};
  bool timer_valid_ = false;

  std::atomic<uint32_t> backlog_hint_{0};
  std::atomic<uint64_t> parked_{0};

  Stats stats_;
};

}  // namespace sledge::runtime
