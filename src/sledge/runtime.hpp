// The Sledge single-process serverless runtime (paper §3.3–§3.5, §4).
//
// One listener thread accepts TCP connections, parses HTTP requests and
// instantiates sandboxes; a global work-distribution structure (Chase–Lev
// deque by default) hands them to N worker threads; each worker runs a
// preemptive round-robin scheduler over user-level sandbox contexts with a
// configurable quantum (paper default 5 ms). Request routing is by path:
// POST /<module-name>.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bucket_histogram.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "engine/engine.hpp"
#include "sledge/admission.hpp"
#include "sledge/dispatcher.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/sandbox.hpp"
#include "sledge/scheduler_policy.hpp"

namespace sledge::runtime {

class Worker;
class Listener;

// How sb_invoke / sb_invoke_stream payloads travel between parent and
// child sandboxes:
//   kCopy — request and response are copied through per-request heap
//           vectors (the PR 4 baseline; the network-shaped path).
//   kShm  — payloads ride pooled TransferBuffers: the parent writes its
//           request into a loaned buffer the child reads directly, and the
//           child's response comes back in the same buffer (CWASI-style
//           zero-copy for co-located function-to-function calls).
enum class InvokeDataplane : uint8_t { kCopy, kShm };

// Per-module dataplane selection: kInherit uses the runtime-wide
// RuntimeConfig::invoke_dataplane; kCopy/kShm pin it for chains started by
// sandboxes of that module (useful to quarantine one module onto the copy
// path, or to A/B the dataplanes inside a single runtime).
enum class InvokeDataplaneOverride : uint8_t { kInherit, kCopy, kShm };

const char* to_string(InvokeDataplane d);

struct RuntimeConfig {
  uint16_t port = 0;  // 0 = pick a free port (see Runtime::bound_port)
  int workers = 3;
  // Listener shards: N SO_REUSEPORT accept loops, each with its own epoll
  // set and connection table (the kernel hashes connections across them).
  // 0 = min(4, hardware cores).
  int num_listeners = 0;
  uint64_t quantum_us = 5000;  // paper's 5 ms time slice
  bool preemption = true;      // false = cooperative-only (ablation)
  // Which worker gets an admitted sandbox (see dispatcher.hpp).
  DispatchPolicy dispatcher = DispatchPolicy::kWorkStealing;
  // Per-worker scheduling policy over the local runnable set.
  SchedPolicy sched = SchedPolicy::kRoundRobin;
  // Sandbox resource pool (warm startup path), the only startup knob.
  // Applied process-wide at Runtime construction; pool.enabled=false is the
  // cold-start ablation.
  SandboxResourcePool::Config pool;
  engine::WasmModule::Config engine;  // default tier/bounds for modules

  // ---- Deadline enforcement & overload defaults (0 = unlimited) ----
  // Per-request CPU budget across preemptions; over-budget sandboxes are
  // killed and answered with 504. Requires preemption to fire mid-run.
  uint64_t execution_budget_ns = 0;
  // Wall-clock deadline measured from admission (also covers time spent
  // queued or cooperatively blocked).
  uint64_t deadline_ns = 0;
  // Admission control: when > 0, new requests are shed with 503 once this
  // many sandboxes are in flight (queued + running + blocked).
  int64_t max_pending = 0;
  // Admission policy: kQueueDepth sheds purely on the cap above;
  // kExpectedSlack adds the predicted-slack gate (503/504-early from live
  // per-module p99s) and per-tenant weighted fair shares of max_pending.
  AdmissionPolicy admission = AdmissionPolicy::kQueueDepth;
  // stop() drains in-flight sandboxes for at most this long before
  // abandoning them.
  uint64_t drain_grace_ns = 2'000'000'000;

  // ---- Async host I/O (sb_connect/sb_send/sb_recv/sb_invoke) ----
  // Per-sandbox cap on concurrently open outbound sockets (tenant
  // isolation: one function cannot exhaust the process fd table).
  int max_sandbox_fds = 8;
  // Maximum sb_invoke chain depth (top-level request = depth 0); bounds
  // fan-out loops and recursive self-invocation.
  int max_invoke_depth = 4;
  // Inter-function payload path: zero-copy pooled transfer buffers (kShm,
  // default) or the per-request vector copies of the baseline (kCopy).
  InvokeDataplane invoke_dataplane = InvokeDataplane::kShm;

  // ---- Observability plane ----
  // Serve GET /admin/stats (JSON) and GET /admin/metrics (Prometheus text)
  // from the listener thread, off lock-free snapshots.
  bool admin_endpoint = true;
  // Structured access log: one JSON line per completed function request
  // (module, status, bytes, phase breakdown, worker id, dispatch/preempt
  // counts). Empty = disabled. Workers buffer lines and flush off the hot
  // path, so the log is rate-safe under load.
  std::string access_log_path;

  bool operator==(const RuntimeConfig&) const = default;
};

// Per-module overrides for the RuntimeConfig-wide limits (0 = inherit).
struct ModuleLimits {
  uint64_t execution_budget_ns = 0;
  uint64_t deadline_ns = 0;
  // Weighted fair share of the admission window (admission = slack only);
  // 0 inherits the default weight of 1.
  uint32_t tenant_weight = 0;
  // Inter-function dataplane for chains this module's sandboxes start.
  InvokeDataplaneOverride invoke_dataplane = InvokeDataplaneOverride::kInherit;

  bool operator==(const ModuleLimits&) const = default;
};

// One entry of a server config's "modules" array: where the code comes
// from (exactly one of `wasm` / `minicc` is set) and its limit overrides.
struct ModuleSpec {
  std::string name;
  std::string wasm;    // path to a .wasm binary
  std::string minicc;  // path to a mini-C source, compiled at load
  ModuleLimits limits;
};

struct ServerConfig {
  RuntimeConfig runtime;
  std::vector<ModuleSpec> modules;
};

// Parses a `sledged` JSON config document (the README's key table; every
// key comes from one table in config.cpp). Unknown keys, wrong JSON types
// and out-of-range values are errors that name the key, e.g.
// "modules[1].budget_us: expected an integer, got \"5\"".
Result<ServerConfig> parse_config(const json::Value& doc);

// Per-module metrics: fixed memory, recorded without a lock by listeners and
// workers, and named for every renderer by runtime.cpp's descriptor tables.
struct ModuleStats {
  enum Phase : size_t {
    kEndToEnd,         // sandbox creation -> completion
    kStartup,          // sandbox allocation cost (all requests), by tier:
    kStartupPooled,    //   every resource off a pool free list
    kStartupCold,      //   at least one fresh allocation
    kQueueWait,        // admission -> first dispatch, excluding startup
    kExecCpu,          // CPU consumed across scheduling slices
    kResponseWrite,    // completion -> last response byte to the kernel
    kIoWait,           // wall time blocked on I/O wake conditions
    kInvokeHandoff,    // sb_invoke child: parent hostcall -> first dispatch
    kNumPhases
  };
  enum Counter : size_t {
    kRequests,
    kFailures,
    kKills,           // deadline/budget terminations (504s)
    kShed,            // admission 503s (depth / fair share / queue slack)
    kShedDeadline,    // admission 504-earlys (unmeetable deadline)
    kPreemptions,     // quantum expiries across all requests
    kResponseBytes,   // HTTP bytes written (incl. headers)
    kInvokeLocal,     // children placed on their parent's worker
    kInvokeZerocopy,  // children whose request rode a transfer buffer
    kNumCounters
  };

  // What a finished request contributes (Runtime::record_completion fills
  // it from the sandbox's trace).
  struct Completion {
    SandboxState state = SandboxState::kComplete;
    uint64_t end_to_end_ns = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t io_wait_ns = 0;  // 0 = never blocked (not recorded)
    uint64_t preemptions = 0;
    std::optional<uint64_t> invoke_handoff_ns;  // sb_invoke children only
  };

  // A request (or sb_invoke child) admitted with the freshly created `sb`:
  // counts it and its startup cost, also on the tier that paid it.
  void record_admission(const Sandbox& sb) {
    add(kRequests);
    phases[kStartup].record(sb.startup_cost_ns());
    phases[sb.pooled() ? kStartupPooled : kStartupCold].record(
        sb.startup_cost_ns());
  }
  void record_completion(const Completion& c);
  // Response flushed: `write_ns` = completion -> last byte to the kernel.
  void record_response_write(uint64_t write_ns, uint64_t bytes) {
    phases[kResponseWrite].record(write_ns);
    add(kResponseBytes, bytes);
  }
  void add(Counter c, uint64_t n = 1) {
    counters[c].fetch_add(n, std::memory_order_relaxed);
  }

  std::array<BucketHistogram, kNumPhases> phases;
  std::array<std::atomic<uint64_t>, kNumCounters> counters{};
  // Sliding-window queue_wait/exec_cpu p99s for expected-slack admission:
  // record() is serialized by `predictor_mu`, reads are lock-free.
  std::mutex predictor_mu;
  SlackPredictor predictor;
};

struct LoadedModule {
  std::string name;
  engine::WasmModule module;
  ModuleLimits limits;
  ModuleStats stats;
  // In-flight slots this module holds (admitted, not yet retired) — the
  // fair-share accounting input. Touched by listener and workers.
  std::atomic<int64_t> inflight{0};
};

class Runtime : public InvokeBroker {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Heavyweight module registration (decode/validate/AoT-compile/dlopen);
  // never on the request path. Optional per-module engine and limit
  // overrides (ModuleLimits fields left 0 inherit the RuntimeConfig).
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes);
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes,
                         const engine::WasmModule::Config& engine_config);
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes,
                         const ModuleLimits& limits);
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes,
                         const engine::WasmModule::Config& engine_config,
                         const ModuleLimits& limits);

  // Starts the listener and worker threads. Modules can still be registered
  // afterwards, but typically are not (the paper loads modules at startup).
  Status start();
  void stop();

  uint16_t bound_port() const { return bound_port_; }
  LoadedModule* find_module(const std::string& name);
  // Replaces a registered module's limit overrides (deadline, budget,
  // tenant weight). Quiescent-use only: callers must ensure no request for
  // the module is in flight (tests warm the slack predictor under one set
  // of limits, then tighten the deadline).
  Status update_module_limits(const std::string& name,
                              const ModuleLimits& limits);

  // Resolved dataplane for chains started by `mod`'s sandboxes: the
  // per-module override when set, the runtime-wide config otherwise.
  bool module_invoke_shm(const LoadedModule* mod) const {
    switch (mod->limits.invoke_dataplane) {
      case InvokeDataplaneOverride::kCopy:
        return false;
      case InvokeDataplaneOverride::kShm:
        return true;
      case InvokeDataplaneOverride::kInherit:
        break;
    }
    return config_.invoke_dataplane == InvokeDataplane::kShm;
  }

  const RuntimeConfig& config() const { return config_; }
  Dispatcher& dispatcher() { return *dispatcher_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  // True while stop() is letting in-flight sandboxes finish; the listener
  // sheds new requests with 503 and workers exit once dry.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Worker -> listener: hand a loaned connection back to its owning shard
  // (Sandbox::conn_shard) once the worker is done with the fd. `replay`
  // (Sandbox::conn_replay) rings the shard's doorbell for stashed
  // pipelined bytes; `hang_up` (Connection: close, dead peer, shutdown)
  // shuts the socket down first so the shard drops it. The shard is the
  // only thread that ever closes a connection fd. Called from worker
  // threads; workers are joined before the shards are destroyed.
  void return_connection(int fd, int shard, bool replay, bool hang_up);
  // Resolved shard count (config.num_listeners, 0 -> min(4, cores)).
  int num_listeners() const;

  // ---- Async host I/O (InvokeBroker) ----
  // sb_invoke: admits a child sandbox of module `name` through the normal
  // dispatch path (depth/limit checks happen in the hostcall). Called from
  // worker threads.
  bool invoke_child(Sandbox* parent, const std::string& name,
                    std::vector<uint8_t> request,
                    std::shared_ptr<InvokeJoin> join, int32_t* err) override;
  // sb_invoke_stream: admits a child that inherits the parent's response
  // channel (HTTP connection or upstream join) instead of rendezvousing —
  // pipelined chains pay one hand-off per stage, not a join per stage.
  bool invoke_stream_child(Sandbox* parent, const std::string& name,
                           std::vector<uint8_t> request,
                           std::shared_ptr<TransferLoan> loan, size_t req_len,
                           int32_t* err) override;
  // Pings one worker's event loop unconditionally: a hinted child or a
  // child completion. Out-of-range index = no-op.
  void notify_worker(int index);
  // After `n` sandboxes entered the dispatcher: wakes up to n parked
  // workers that have work, the most recently parked first (its core is
  // the likeliest still warm). Busy workers re-check the dispatcher before
  // they park, so they need no wake.
  void wake_idle(size_t n);

  // Worker -> runtime: per-module latency/failure/kill accounting. Also
  // retires the sandbox from the in-flight count.
  void record_completion(Sandbox* sb, SandboxState final_state);

  // ---- Structured access log (one JSON line per function request) ----
  bool access_log_enabled() const { return access_log_fd_ >= 0; }
  // Appends a pre-formatted block of lines (workers buffer and flush off
  // the hot path; a single O_APPEND write keeps lines whole).
  void access_log_write(const std::string& block);

  // ---- Admission control ----
  // The full admit decision for one request of `mod` (global depth, fair
  // share, expected slack). Listener thread and worker threads (children).
  AdmitVerdict admission_check(const LoadedModule* mod) const;
  const AdmissionController& admission() const { return admission_; }
  // Sum of tenant weights over registered modules (fair-share denominator).
  uint64_t total_weight() const {
    return total_weight_.load(std::memory_order_acquire);
  }

  // ---- In-flight accounting (admission control + graceful drain) ----
  void note_admitted(LoadedModule* mod) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (mod) mod->inflight.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_retired(LoadedModule* mod) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (mod) mod->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  void note_shed(LoadedModule* mod) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (mod) mod->stats.add(ModuleStats::kShed);
  }
  // 504-early: deadline unmeetable per the predictor; no sandbox was built.
  void note_shed_deadline(LoadedModule* mod) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    if (mod) mod->stats.add(ModuleStats::kShedDeadline);
  }
  void note_write_queued() {
    pending_writes_.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_write_done() {
    pending_writes_.fetch_sub(1, std::memory_order_acq_rel);
  }
  int64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

  // Aggregate counters (summed over workers on demand).
  struct Totals {
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t killed = 0;   // deadline/budget terminations (504)
    uint64_t drained = 0;  // abandoned at shutdown after the grace period
    uint64_t shed = 0;     // rejected with 503 (overload or draining)
    uint64_t shed_deadline = 0;  // rejected 504-early (slack admission)
    uint64_t preemptions = 0;
    uint64_t dispatches = 0;  // scheduling slices run (worker dispatches)
    uint64_t steals = 0;
    uint64_t pool_hits = 0;    // warm starts (all resources pooled)
    uint64_t pool_misses = 0;  // cold starts
    uint64_t blocked = 0;      // sandboxes parked on an I/O wake condition
    uint64_t woken = 0;        // wakes delivered by worker event loops
    uint64_t idle_wakes = 0;   // worker sleeps ended by a doorbell write
    uint64_t invokes = 0;      // child sandboxes admitted via sb_invoke
    uint64_t accepted = 0;       // connections accepted (all shards)
    uint64_t accept_errors = 0;  // failed accepts incl. EMFILE sheds
  };
  Totals totals() const;

  // ---- Live stats snapshots (the /admin observability plane) ----
  //
  // Consistency model: nothing is paused and no lock is taken. Every
  // counter and histogram is individually monotone; a digest's `count` is
  // its bucket total read in the same pass, so phases (and counters) of one
  // module may differ by requests recorded while the snapshot was taken.
  struct ModuleSnapshot {
    std::string name;
    std::array<uint64_t, ModuleStats::kNumCounters> counters{};
    std::array<BucketHistogram::Summary, ModuleStats::kNumPhases> phases{};
    int64_t inflight = 0;
    uint32_t tenant_weight = 1;
    // Live predictor state (what the admission gate sees).
    uint64_t predicted_queue_p99_ns = 0;
    uint64_t predicted_exec_p99_ns = 0;
  };
  struct WorkerSnapshot {
    int id = 0;
    Totals counts;  // this worker's share of the worker-fed totals
  };
  struct ListenerSnapshot {
    int id = 0;
    uint64_t accepted = 0;
    uint64_t accept_errors = 0;
    int64_t open_conns = 0;    // in this shard's epoll set
    int64_t loaned_conns = 0;  // parked, fd owned by a worker
  };
  struct StatsSnapshot {
    uint64_t uptime_ns = 0;
    int64_t inflight = 0;
    Totals totals;
    std::vector<ListenerSnapshot> listeners;
    std::vector<WorkerSnapshot> workers;
    std::vector<ModuleSnapshot> modules;
  };
  StatsSnapshot snapshot() const;

  // JSON (`GET /admin/stats`) and Prometheus text exposition
  // (`GET /admin/metrics`) renderings of snapshot().
  std::string stats_json() const;
  std::string stats_prometheus() const;

  std::string stats_report() const;

 private:
  friend class Worker;
  friend class Listener;

  // Shared front half of sb_invoke / sb_invoke_stream admission: resolves
  // the module and applies the same admission control as listener requests.
  // nullptr = shed (err set); counters already recorded.
  LoadedModule* admit_invoke_module(const std::string& name, int32_t* err);
  // Budget/deadline clipping + I/O config + dataplane flags for an admitted
  // invoke child.
  void configure_invoke_child(Sandbox* parent, LoadedModule* mod,
                              Sandbox* child);
  // Back half: stats, locality-hinted dispatch, worker notification.
  void place_invoke_child(Sandbox* parent, LoadedModule* mod,
                          std::unique_ptr<Sandbox> child, bool zerocopy);

  RuntimeConfig config_;
  std::map<std::string, std::unique_ptr<LoadedModule>> modules_;
  std::unique_ptr<Dispatcher> dispatcher_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> inflight_{0};       // admitted, not yet retired
  std::atomic<int64_t> pending_writes_{0}; // responses not yet flushed
  std::atomic<uint64_t> shed_{0};          // 503s (overload / draining)
  std::atomic<uint64_t> shed_deadline_{0}; // 504-earlys (slack admission)
  std::atomic<uint64_t> total_weight_{0};  // sum of module tenant weights
  std::atomic<uint64_t> invokes_{0};       // sb_invoke children admitted
  uint16_t bound_port_ = 0;
  uint64_t start_ns_ = 0;  // stamped by start(); uptime anchor
  int access_log_fd_ = -1;
  Totals retired_totals_;  // accumulated from workers at stop()
};

// Runs a sandbox to completion on the calling thread (no server needed):
// the unit-test / churn-benchmark path. Handles cooperative blocking.
Status run_sandbox_inline(Sandbox* sandbox);

}  // namespace sledge::runtime
