#include "sledge/runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/json.hpp"
#include "common/log.hpp"
#include "engine/host.hpp"
#include "sledge/listener.hpp"
#include "sledge/worker.hpp"

namespace sledge::runtime {

const char* to_string(InvokeDataplane d) {
  switch (d) {
    case InvokeDataplane::kCopy: return "copy";
    case InvokeDataplane::kShm: return "shm";
  }
  return "?";
}

namespace {

// A hinted child only lands on the parent's worker when that worker's
// runnable backlog is at most this deep — beyond it, the chain would
// serialize behind unrelated work and global placement wins.
constexpr uint32_t kInvokeLocalitySlack = 2;

// Runtime-wide totals: JSON `totals.<key>`, Prometheus `sledge_<key>_total`
// and the report's runtime line. Rows with a worker counter are summed over
// the live workers by totals() and folded into the retired totals at stop().
using T = Runtime::Totals;
using W = Worker::Stats;
struct TotalInfo {
  const char* key;
  uint64_t T::* field;
  std::atomic<uint64_t> W::* worker = nullptr;
};
constexpr TotalInfo kTotals[] = {
    {"completed", &T::completed, &W::completed},
    {"failed", &T::failed, &W::failed},
    {"killed", &T::killed, &W::killed},
    {"drained", &T::drained, &W::drained},
    {"shed", &T::shed},
    {"shed_deadline", &T::shed_deadline},
    {"preemptions", &T::preemptions, &W::preemptions},
    {"dispatches", &T::dispatches, &W::dispatches},
    {"steals", &T::steals, &W::steals},
    {"pool_hits", &T::pool_hits, &W::pool_hits},
    {"pool_misses", &T::pool_misses, &W::pool_misses},
    {"blocked", &T::blocked, &W::blocked},
    {"woken", &T::woken, &W::woken},
    {"idle_wakes", &T::idle_wakes, &W::idle_wakes},
    {"invokes", &T::invokes},
    {"accepted", &T::accepted},
    {"accept_errors", &T::accept_errors},
};

void add_worker_totals(Runtime::Totals* t, const Worker::Stats& w) {
  for (const TotalInfo& f : kTotals) {
    if (f.worker) t->*f.field += (w.*f.worker).load(std::memory_order_relaxed);
  }
}

void add_live_totals(
    Runtime::Totals* t, const std::vector<std::unique_ptr<Worker>>& workers,
    const std::vector<std::unique_ptr<Listener>>& listeners) {
  for (const auto& w : workers) add_worker_totals(t, w->stats());
  for (const auto& l : listeners) {
    t->accepted += l->accepted();
    t->accept_errors += l->accept_errors();
  }
}

}  // namespace

// ---- Runtime ----------------------------------------------------------

Runtime::Runtime(RuntimeConfig config)
    : config_(config), admission_(config.admission, config.max_pending) {
  if (config_.workers < 1) config_.workers = 1;
  dispatcher_ = Dispatcher::make(config_.dispatcher, config_.workers);
  SandboxResourcePool::instance().configure(config_.pool);
}

Runtime::~Runtime() { stop(); }

Status Runtime::register_module(const std::string& name,
                                const std::vector<uint8_t>& wasm_bytes) {
  return register_module(name, wasm_bytes, config_.engine, ModuleLimits{});
}

Status Runtime::register_module(
    const std::string& name, const std::vector<uint8_t>& wasm_bytes,
    const engine::WasmModule::Config& engine_config) {
  return register_module(name, wasm_bytes, engine_config, ModuleLimits{});
}

Status Runtime::register_module(const std::string& name,
                                const std::vector<uint8_t>& wasm_bytes,
                                const ModuleLimits& limits) {
  return register_module(name, wasm_bytes, config_.engine, limits);
}

Status Runtime::register_module(
    const std::string& name, const std::vector<uint8_t>& wasm_bytes,
    const engine::WasmModule::Config& engine_config,
    const ModuleLimits& limits) {
  if (modules_.count(name)) {
    return Status::error("module '" + name + "' already registered");
  }
  Result<engine::WasmModule> mod =
      engine::WasmModule::load(wasm_bytes, engine_config);
  if (!mod.ok()) {
    return Status::error("module '" + name + "': " + mod.error_message());
  }
  auto loaded = std::make_unique<LoadedModule>();
  loaded->name = name;
  loaded->module = mod.take();
  loaded->limits = limits;
  total_weight_.fetch_add(limits.tenant_weight == 0 ? 1 : limits.tenant_weight,
                          std::memory_order_acq_rel);
  modules_[name] = std::move(loaded);
  return Status::ok();
}

LoadedModule* Runtime::find_module(const std::string& name) {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.get();
}

Status Runtime::update_module_limits(const std::string& name,
                                     const ModuleLimits& limits) {
  LoadedModule* mod = find_module(name);
  if (!mod) return Status::error("module '" + name + "' not registered");
  uint64_t old_w = mod->limits.tenant_weight == 0 ? 1
                                                  : mod->limits.tenant_weight;
  uint64_t new_w = limits.tenant_weight == 0 ? 1 : limits.tenant_weight;
  mod->limits = limits;
  total_weight_.fetch_add(new_w - old_w, std::memory_order_acq_rel);
  return Status::ok();
}

int Runtime::num_listeners() const {
  if (config_.num_listeners > 0) return config_.num_listeners;
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  return static_cast<int>(std::min(4u, cores));
}

Status Runtime::start() {
  if (running_.load()) return Status::error("already running");
  listeners_.clear();
  // Shard 0 resolves the port (config_.port may be 0 = kernel-picked);
  // every later shard joins the same SO_REUSEPORT group on that port.
  const int shards = num_listeners();
  for (int i = 0; i < shards; ++i) {
    listeners_.push_back(std::make_unique<Listener>(this, i));
    uint16_t port = 0;
    Status s = listeners_.back()->init(i == 0 ? config_.port : bound_port_,
                                       &port);
    if (!s.is_ok()) {
      listeners_.clear();
      return s;
    }
    if (i == 0) bound_port_ = port;
  }

  if (!config_.access_log_path.empty()) {
    access_log_fd_ = ::open(config_.access_log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (access_log_fd_ < 0) {
      return Status::error("access log open failed: " +
                           config_.access_log_path);
    }
  }

  // Every worker's event loop exists before any thread runs: the fds are in
  // place when start() returns, and a failure leaves no worker behind.
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
    Status s = workers_.back()->init();
    if (!s.is_ok()) {
      workers_.clear();
      listeners_.clear();
      if (access_log_fd_ >= 0) {
        ::close(access_log_fd_);
        access_log_fd_ = -1;
      }
      return s;
    }
  }

  start_ns_ = now_ns();
  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->start();
  for (auto& l : listeners_) l->start();
  SLEDGE_LOG_INFO(
      "sledge runtime on port %u (%d listeners, %d workers, quantum %lu us, "
      "dispatcher=%s, sched=%s, admission=%s, pool=%s, dataplane=%s)",
      bound_port_, shards, config_.workers,
      static_cast<unsigned long>(config_.quantum_us),
      to_string(config_.dispatcher), to_string(config_.sched),
      to_string(config_.admission),
      config_.pool.enabled ? "on" : "off",
      to_string(config_.invoke_dataplane));
  return Status::ok();
}

AdmitVerdict Runtime::admission_check(const LoadedModule* mod) const {
  AdmitRequest in;
  in.inflight = inflight();
  if (mod) {
    in.module_inflight = mod->inflight.load(std::memory_order_acquire);
    in.tenant_weight =
        mod->limits.tenant_weight == 0 ? 1 : mod->limits.tenant_weight;
    in.deadline_rel_ns = mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                                      : config_.deadline_ns;
    in.queue_wait_p99_ns = mod->stats.predictor.queue_wait_p99_ns();
    in.exec_cpu_p99_ns = mod->stats.predictor.exec_cpu_p99_ns();
    in.predictor_ready = mod->stats.predictor.ready();
  }
  in.total_weight = total_weight();
  return admission_.check(in);
}

void Runtime::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Graceful drain: stop admitting (the listener sheds with 503 while
  // draining) and give in-flight sandboxes and unflushed responses a bounded
  // grace period to finish. Runaway sandboxes that outlive the grace period
  // are abandoned and counted as drained by their workers.
  if (!draining_.exchange(true)) {
    uint64_t deadline = now_ns() + config_.drain_grace_ns;
    while (now_ns() < deadline &&
           (inflight_.load(std::memory_order_acquire) > 0 ||
            pending_writes_.load(std::memory_order_acquire) > 0)) {
      ::usleep(500);
    }
  }
  if (!running_.exchange(false)) return;
  for (auto& w : workers_) w->notify();  // interrupt idle epoll sleeps
  for (auto& l : listeners_) l->wake();
  for (auto& w : workers_) w->join();
  for (auto& l : listeners_) l->join();
  // Workers are joined before listeners, so a listener's final admission
  // flush can still hand the dispatcher sandboxes nobody will ever fetch.
  // Drain them here — the same bookkeeping as a worker abandon — so
  // shutdown leaks no sandbox. Their connection fds stay with the owning
  // shard, whose destructor closes every connection it holds.
  Sandbox* orphan = nullptr;
  for (int i = 0; i < config_.workers; ++i) {
    while (dispatcher_->fetch(i, &orphan)) {
      retired_totals_.drained++;
      note_retired(static_cast<LoadedModule*>(orphan->user_tag));
      if (const auto& join = orphan->result_join()) {
        join->status = engine::kSbErrChildFailed;
        join->done.store(true, std::memory_order_release);
      }
      delete orphan;
    }
  }
  add_live_totals(&retired_totals_, workers_, listeners_);
  workers_.clear();
  listeners_.clear();
  if (access_log_fd_ >= 0) {
    ::close(access_log_fd_);  // workers flushed their buffers before join
    access_log_fd_ = -1;
  }
}

void Runtime::return_connection(int fd, int shard, bool replay,
                                bool hang_up) {
  listeners_[static_cast<size_t>(shard)]->return_connection(fd, replay,
                                                            hang_up);
}

LoadedModule* Runtime::admit_invoke_module(const std::string& name,
                                           int32_t* err) {
  LoadedModule* mod = find_module(name);
  if (!mod) {
    *err = engine::kSbErrNoModule;
    return nullptr;
  }
  // Children obey the same admission control as listener requests: a
  // draining or saturated runtime sheds the invoke instead of queueing it.
  if (!running() || draining()) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return nullptr;
  }
  switch (admission_check(mod)) {
    case AdmitVerdict::kAdmit:
      break;
    case AdmitVerdict::kShedOverload:
      note_shed(mod);
      *err = engine::kSbErrOverload;
      return nullptr;
    case AdmitVerdict::kShedDeadline:
      // The child's deadline is unmeetable per the predictor; the parent
      // sees the same overload error either way (no HTTP status here).
      note_shed_deadline(mod);
      *err = engine::kSbErrOverload;
      return nullptr;
  }
  return mod;
}

void Runtime::configure_invoke_child(Sandbox* parent, LoadedModule* mod,
                                     Sandbox* child) {
  // The child gets its module's budget, but its wall deadline is clipped to
  // the parent's: when a blocked parent is killed at its deadline (504),
  // the child dies at the same wall instant on its own — no cross-thread
  // kill pointer that could dangle.
  uint64_t budget = mod->limits.execution_budget_ns != 0
                        ? mod->limits.execution_budget_ns
                        : config_.execution_budget_ns;
  uint64_t deadline_rel =
      mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                   : config_.deadline_ns;
  uint64_t deadline_abs =
      deadline_rel != 0 ? child->created_ns() + deadline_rel : 0;
  if (parent->deadline_at_ns() != 0 &&
      (deadline_abs == 0 || parent->deadline_at_ns() < deadline_abs)) {
    deadline_abs = parent->deadline_at_ns();
  }
  child->set_limits(budget, deadline_abs);
  child->set_io_config(this, static_cast<uint32_t>(config_.max_sandbox_fds),
                       parent->invoke_depth() + 1,
                       static_cast<uint32_t>(config_.max_invoke_depth));
  // Grandchildren follow the child module's dataplane (override or config).
  child->set_invoke_shm(module_invoke_shm(mod));
  child->mark_invoke_child();
}

void Runtime::place_invoke_child(Sandbox* parent, LoadedModule* mod,
                                 std::unique_ptr<Sandbox> child,
                                 bool zerocopy) {
  // Locality: prefer the parent's worker when its runnable backlog has
  // slack — the child starts on warm caches and the join wake is zero-hop.
  // Only computed for work-stealing, the one dispatcher that honors hints
  // (the others place children by their own rule), so the invoke_local
  // counter reflects placements actually requested.
  int hint = -1;
  if (dispatcher_->kind() == DispatchPolicy::kWorkStealing) {
    int pw = parent->owner_worker();
    if (pw >= 0 && pw < static_cast<int>(workers_.size()) &&
        workers_[pw]->backlog_hint() <= kInvokeLocalitySlack) {
      hint = pw;
    }
  }
  mod->stats.record_admission(*child);
  if (hint >= 0) mod->stats.add(ModuleStats::kInvokeLocal);
  if (zerocopy) mod->stats.add(ModuleStats::kInvokeZerocopy);
  invokes_.fetch_add(1, std::memory_order_relaxed);
  note_admitted(mod);
  dispatcher_->inject(child.release(), hint);
  if (hint >= 0) {
    notify_worker(hint);
  } else {
    wake_idle(1);
  }
}

bool Runtime::invoke_child(Sandbox* parent, const std::string& name,
                           std::vector<uint8_t> request,
                           std::shared_ptr<InvokeJoin> join, int32_t* err) {
  LoadedModule* mod = admit_invoke_module(name, err);
  if (!mod) return false;
  // Zero-copy dataplane: the parent staged its request in a transfer
  // buffer — the child reads it in place and writes its response into the
  // buffer's response region, so neither payload crosses a heap copy.
  //
  // Copy dataplane: heap ownership does not cross sandbox boundaries — the
  // child gets its own copy of the request bytes, as any hand-off through
  // a socket, pipe, or process boundary would (these boundary copies are
  // precisely what the transfer-buffer plane eliminates).
  const bool zerocopy = join && join->xfer != nullptr;
  std::unique_ptr<Sandbox> child = Sandbox::create(
      &mod->module,
      zerocopy ? std::vector<uint8_t>() : std::vector<uint8_t>(request));
  if (!child) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return false;
  }
  child->user_tag = mod;
  if (zerocopy) {
    child->adopt_request_view(join->xfer, join->xfer->get()->len);
  }
  child->set_result_join(std::move(join));
  if (zerocopy) child->wire_result_sink();
  configure_invoke_child(parent, mod, child.get());
  place_invoke_child(parent, mod, std::move(child), zerocopy);
  return true;
}

bool Runtime::invoke_stream_child(Sandbox* parent, const std::string& name,
                                  std::vector<uint8_t> request,
                                  std::shared_ptr<TransferLoan> loan,
                                  size_t req_len, int32_t* err) {
  LoadedModule* mod = admit_invoke_module(name, err);
  if (!mod) return false;
  // Same boundary semantics as invoke_child: the copy dataplane hands the
  // child its own copy of the request bytes.
  const bool zerocopy = loan != nullptr;
  std::unique_ptr<Sandbox> child = Sandbox::create(
      &mod->module,
      zerocopy ? std::vector<uint8_t>() : std::vector<uint8_t>(request));
  if (!child) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return false;
  }
  child->user_tag = mod;
  if (zerocopy) child->adopt_request_view(std::move(loan), req_len);
  configure_invoke_child(parent, mod, child.get());
  // Channel transfer happens last — after every failure path above — so a
  // shed invoke leaves the parent still owning its response channel and
  // able to answer the error itself. The child inherits either the
  // parent's HTTP connection (top-level parent) or the parent's upstream
  // join (parent is itself an invoke child); the hostcall already refused
  // parents with neither.
  if (parent->conn_fd() >= 0) {
    child->adopt_connection(parent->conn_fd(), parent->keep_alive(),
                            parent->conn_shard(), parent->conn_replay());
    parent->release_connection();
  } else {
    child->set_result_join(parent->take_result_join());
    child->wire_result_sink();
  }
  place_invoke_child(parent, mod, std::move(child), zerocopy);
  return true;
}

void Runtime::notify_worker(int index) {
  if (index >= 0 && index < static_cast<int>(workers_.size())) {
    workers_[index]->notify();
  }
}

void Runtime::wake_idle(size_t n) {
  // Pairs with the fence a worker issues between storing its park stamp
  // and re-checking the dispatcher: either it sees the push or we see it
  // parked.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (; n > 0; --n) {
    Worker* best = nullptr;
    uint64_t best_stamp = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
      uint64_t stamp = workers_[i]->parked_stamp();
      if (stamp > best_stamp &&
          dispatcher_->has_work_for(static_cast<int>(i))) {
        best = workers_[i].get();
        best_stamp = stamp;
      }
    }
    if (!best) return;
    best->wake_parked();
  }
}

void Runtime::record_completion(Sandbox* sb, SandboxState final_state) {
  auto* mod = static_cast<LoadedModule*>(sb->user_tag);
  if (mod) {
    ModuleStats::Completion c;
    c.state = final_state;
    c.end_to_end_ns = sb->done_ns() - sb->created_ns();
    c.queue_wait_ns = sb->queue_wait_ns();
    c.exec_cpu_ns = sb->cpu_ns();
    c.io_wait_ns = sb->io_wait_ns();
    c.preemptions = sb->preempt_count();
    if (sb->is_invoke_child() && sb->first_run_ns() != 0) {
      c.invoke_handoff_ns = sb->first_run_ns() - sb->created_ns();
    }
    mod->stats.record_completion(c);
  }
  // Retire after recording, so a reader that sees inflight drop to zero
  // also sees this request in the module's stats.
  note_retired(mod);
}

void Runtime::access_log_write(const std::string& block) {
  if (access_log_fd_ < 0 || block.empty()) return;
  // O_APPEND: one write per flushed block keeps lines whole without a lock.
  [[maybe_unused]] ssize_t n =
      ::write(access_log_fd_, block.data(), block.size());
}

Runtime::Totals Runtime::totals() const {
  Totals t = retired_totals_;
  t.shed += shed_.load(std::memory_order_relaxed);
  t.shed_deadline += shed_deadline_.load(std::memory_order_relaxed);
  t.invokes += invokes_.load(std::memory_order_relaxed);
  add_live_totals(&t, workers_, listeners_);
  return t;
}

Runtime::StatsSnapshot Runtime::snapshot() const {
  StatsSnapshot s;
  s.uptime_ns = start_ns_ != 0 ? now_ns() - start_ns_ : 0;
  s.inflight = inflight();
  s.totals = totals();
  for (const auto& l : listeners_) {
    s.listeners.push_back({l->shard(), l->accepted(), l->accept_errors(),
                           l->open_conns(), l->loaned_conns()});
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    s.workers.push_back({static_cast<int>(i), {}});
    add_worker_totals(&s.workers.back().counts, workers_[i]->stats());
  }
  for (const auto& [name, mod] : modules_) {
    ModuleSnapshot ms;
    ms.name = name;
    ms.inflight = mod->inflight.load(std::memory_order_acquire);
    ms.tenant_weight =
        mod->limits.tenant_weight == 0 ? 1 : mod->limits.tenant_weight;
    ms.predicted_queue_p99_ns = mod->stats.predictor.queue_wait_p99_ns();
    ms.predicted_exec_p99_ns = mod->stats.predictor.exec_cpu_p99_ns();
    for (size_t c = 0; c < ModuleStats::kNumCounters; ++c) {
      ms.counters[c] = mod->stats.counters[c].load(std::memory_order_relaxed);
    }
    for (size_t p = 0; p < ModuleStats::kNumPhases; ++p) {
      ms.phases[p] = mod->stats.phases[p].summary();
    }
    s.modules.push_back(std::move(ms));
  }
  return s;
}

namespace {

// The metric descriptor tables: every renderer (JSON, Prometheus, report)
// iterates these, so a phase or counter shows up in all three by
// construction. Rows are in enum order (checked below); the report labels a
// phase by its JSON key with spaces for underscores.
using S = ModuleStats;
struct MetricInfo {
  size_t id;         // ModuleStats::Phase / ModuleStats::Counter
  const char* key;   // JSON key under modules.<m>, report field
  const char* prom;  // Prometheus name (module-labelled)
};
constexpr std::array<MetricInfo, S::kNumPhases> kPhases = {{
    {S::kEndToEnd, "end_to_end", "sledge_end_to_end_seconds"},
    {S::kStartup, "startup", "sledge_startup_seconds"},
    {S::kStartupPooled, "startup_pooled", "sledge_startup_pooled_seconds"},
    {S::kStartupCold, "startup_cold", "sledge_startup_cold_seconds"},
    {S::kQueueWait, "queue_wait", "sledge_queue_wait_seconds"},
    {S::kExecCpu, "exec_cpu", "sledge_exec_cpu_seconds"},
    {S::kResponseWrite, "response_write", "sledge_response_write_seconds"},
    {S::kIoWait, "io_wait", "sledge_io_wait_seconds"},
    {S::kInvokeHandoff, "invoke_handoff", "sledge_invoke_handoff_seconds"},
}};
constexpr std::array<MetricInfo, S::kNumCounters> kModuleCounters = {{
    {S::kRequests, "requests", "sledge_requests_total"},
    {S::kFailures, "failures", "sledge_failures_total"},
    {S::kKills, "kills", "sledge_kills_total"},
    {S::kShed, "shed", "sledge_module_shed_total"},
    {S::kShedDeadline, "shed_deadline", "sledge_module_shed_deadline_total"},
    {S::kPreemptions, "preemptions", "sledge_module_preemptions_total"},
    {S::kResponseBytes, "response_bytes", "sledge_response_bytes_total"},
    {S::kInvokeLocal, "invoke_local", "sledge_invoke_local_total"},
    {S::kInvokeZerocopy, "invoke_zerocopy", "sledge_invoke_zerocopy_total"},
}};

template <typename Table>
constexpr bool in_enum_order(const Table& table) {
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].id != i) return false;
  }
  return true;
}
static_assert(in_enum_order(kPhases) && in_enum_order(kModuleCounters));

// Resource-pool counters: JSON `resource_pool.<key>`, Prometheus
// `sledge_pool_<key>_total` (plain `sledge_pool_<key>` for the gauge) and
// the report's pool line.
using PC = SandboxResourcePool::Counters;
struct PoolCounterInfo {
  const char* key;
  uint64_t PC::* field;
  bool gauge = false;
};
constexpr PoolCounterInfo kPoolCounters[] = {
    {"mem_hits", &PC::memory_hits},
    {"mem_misses", &PC::memory_misses},
    {"mem_zeroed_in_place", &PC::memory_zeroed_in_place},
    {"mem_discarded", &PC::memory_discarded},
    {"stack_hits", &PC::stack_hits},
    {"stack_misses", &PC::stack_misses},
    {"reclaimed", &PC::released},
    {"xfer_hits", &PC::transfer_hits},
    {"xfer_misses", &PC::transfer_misses},
    {"xfer_outstanding", &PC::transfer_outstanding, /*gauge=*/true},
};

// printf-style append (no truncation: module names have no length cap).
template <typename... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  if (n <= 0) return;
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(n) + 1);
  std::snprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, args...);
  out->resize(at + static_cast<size_t>(n));
}

json::Value num(uint64_t v) { return json::Value(static_cast<double>(v)); }

json::Value summary_to_json(const BucketHistogram::Summary& h) {
  json::Object o;
  o["count"] = num(h.count);
  o["sum_ns"] = num(h.sum_ns);
  o["mean_ns"] = json::Value(h.mean_ns());
  o["min_ns"] = num(h.min_ns);
  o["p50_ns"] = num(h.p50_ns);
  o["p90_ns"] = num(h.p90_ns);
  o["p99_ns"] = num(h.p99_ns);
  o["max_ns"] = num(h.max_ns);
  return json::Value(std::move(o));
}

}  // namespace

void ModuleStats::record_completion(const Completion& c) {
  if (c.state == SandboxState::kKilled) {
    add(kKills);
  } else if (c.state != SandboxState::kComplete) {
    add(kFailures);
  }
  phases[kEndToEnd].record(c.end_to_end_ns);
  phases[kQueueWait].record(c.queue_wait_ns);
  phases[kExecCpu].record(c.exec_cpu_ns);
  if (c.io_wait_ns != 0) phases[kIoWait].record(c.io_wait_ns);
  if (c.invoke_handoff_ns) phases[kInvokeHandoff].record(*c.invoke_handoff_ns);
  if (c.preemptions != 0) add(kPreemptions, c.preemptions);
  // Feed the slack predictor (killed requests included: their truncated
  // exec and full queue_wait are the congestion signal the gate wants).
  std::lock_guard<std::mutex> lock(predictor_mu);
  predictor.record(c.queue_wait_ns, c.exec_cpu_ns);
}

std::string Runtime::stats_json() const {
  StatsSnapshot s = snapshot();
  json::Object root;
  root["uptime_s"] = json::Value(static_cast<double>(s.uptime_ns) / 1e9);
  root["inflight"] = json::Value(static_cast<double>(s.inflight));
  root["dispatcher"] = json::Value(std::string(to_string(config_.dispatcher)));
  root["admission"] = json::Value(std::string(to_string(config_.admission)));

  json::Object totals;
  for (const TotalInfo& t : kTotals) totals[t.key] = num(s.totals.*t.field);
  root["totals"] = json::Value(std::move(totals));

  const PC pc = SandboxResourcePool::instance().counters();
  json::Object pool;
  for (const PoolCounterInfo& c : kPoolCounters) pool[c.key] = num(pc.*c.field);
  root["resource_pool"] = json::Value(std::move(pool));

  json::Array listeners;
  for (const ListenerSnapshot& l : s.listeners) {
    json::Object o;
    o["id"] = json::Value(l.id);
    o["accepted"] = num(l.accepted);
    o["accept_errors"] = num(l.accept_errors);
    o["open_conns"] = json::Value(static_cast<double>(l.open_conns));
    o["loaned_conns"] = json::Value(static_cast<double>(l.loaned_conns));
    listeners.push_back(json::Value(std::move(o)));
  }
  root["listeners"] = json::Value(std::move(listeners));

  json::Array workers;
  for (const WorkerSnapshot& w : s.workers) {
    json::Object o;
    o["id"] = json::Value(w.id);
    for (const TotalInfo& t : kTotals) {
      if (t.worker) o[t.key] = num(w.counts.*t.field);
    }
    workers.push_back(json::Value(std::move(o)));
  }
  root["workers"] = json::Value(std::move(workers));

  json::Object modules;
  for (const ModuleSnapshot& m : s.modules) {
    json::Object o;
    for (const MetricInfo& c : kModuleCounters) {
      o[c.key] = num(m.counters[c.id]);
    }
    for (const MetricInfo& p : kPhases) {
      o[p.key] = summary_to_json(m.phases[p.id]);
    }
    o["inflight"] = json::Value(static_cast<double>(m.inflight));
    o["tenant_weight"] = num(m.tenant_weight);
    o["predicted_queue_p99_ns"] = num(m.predicted_queue_p99_ns);
    o["predicted_exec_p99_ns"] = num(m.predicted_exec_p99_ns);
    modules[m.name] = json::Value(std::move(o));
  }
  root["modules"] = json::Value(std::move(modules));
  return json::Value(std::move(root)).dump();
}

std::string Runtime::stats_prometheus() const {
  StatsSnapshot s = snapshot();
  std::string out;
  auto emit = [&](const char* fmt, auto... args) {
    appendf(&out, fmt, args...);
  };
  // One labelled family: its TYPE line, then one sample per row.
  auto family = [&](const char* name, const char* type, const auto& rows,
                    auto label, auto value) {
    emit("# TYPE %s %s\n", name, type);
    for (const auto& r : rows) {
      emit("%s{%s} %lld\n", name, label(r).c_str(),
           static_cast<long long>(value(r)));
    }
  };
  auto shard = [](const ListenerSnapshot& l) {
    return "shard=\"" + std::to_string(l.id) + "\"";
  };
  auto module = [](const ModuleSnapshot& m) {
    return "module=\"" + m.name + "\"";
  };

  emit("# TYPE sledge_uptime_seconds gauge\nsledge_uptime_seconds %.3f\n",
       static_cast<double>(s.uptime_ns) / 1e9);
  emit("# TYPE sledge_inflight gauge\nsledge_inflight %lld\n",
       static_cast<long long>(s.inflight));
  for (const TotalInfo& t : kTotals) {
    emit("# TYPE sledge_%s_total counter\nsledge_%s_total %llu\n", t.key,
         t.key, static_cast<unsigned long long>(s.totals.*t.field));
  }
  const PC pc = SandboxResourcePool::instance().counters();
  for (const PoolCounterInfo& c : kPoolCounters) {
    const char* suffix = c.gauge ? "" : "_total";
    emit("# TYPE sledge_pool_%s%s %s\nsledge_pool_%s%s %llu\n", c.key, suffix,
         c.gauge ? "gauge" : "counter", c.key, suffix,
         static_cast<unsigned long long>(pc.*c.field));
  }

  family("sledge_listener_accepted_total", "counter", s.listeners, shard,
         [](const ListenerSnapshot& l) { return l.accepted; });
  family("sledge_listener_accept_errors_total", "counter", s.listeners, shard,
         [](const ListenerSnapshot& l) { return l.accept_errors; });
  family("sledge_listener_open_conns", "gauge", s.listeners, shard,
         [](const ListenerSnapshot& l) { return l.open_conns; });
  family("sledge_listener_loaned_conns", "gauge", s.listeners, shard,
         [](const ListenerSnapshot& l) { return l.loaned_conns; });
  for (const MetricInfo& c : kModuleCounters) {
    family(c.prom, "counter", s.modules, module,
           [&](const ModuleSnapshot& m) { return m.counters[c.id]; });
  }

  // Real histograms: cumulative counts at every power of two from 2^10 ns.
  // Those are bucket edges, so the counts are exact and sum across nodes
  // (quantiles via histogram_quantile()).
  for (const MetricInfo& p : kPhases) {
    emit("# TYPE %s histogram\n", p.prom);
    for (const ModuleSnapshot& m : s.modules) {
      const BucketHistogram::Summary& h = m.phases[p.id];
      const char* mn = m.name.c_str();
      for (size_t k = 0; k < BucketHistogram::kEdges; ++k) {
        emit("%s_bucket{module=\"%s\",le=\"%.13g\"} %llu\n", p.prom, mn,
             std::ldexp(1e-9, static_cast<int>(
                                  BucketHistogram::kFirstEdgeBits + k)),
             static_cast<unsigned long long>(h.le_count[k]));
      }
      emit("%s_bucket{module=\"%s\",le=\"+Inf\"} %llu\n%s_sum{module=\"%s\"} "
           "%.9f\n%s_count{module=\"%s\"} %llu\n",
           p.prom, mn, static_cast<unsigned long long>(h.count), p.prom, mn,
           static_cast<double>(h.sum_ns) / 1e9, p.prom, mn,
           static_cast<unsigned long long>(h.count));
    }
  }
  return out;
}

std::string Runtime::stats_report() const {
  StatsSnapshot s = snapshot();
  std::string out = "runtime:";
  auto ull = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  for (const TotalInfo& t : kTotals) {
    appendf(&out, " %s=%llu", t.key, ull(s.totals.*t.field));
  }
  appendf(&out, " (dispatcher=%s sched=%s admission=%s dataplane=%s)\n",
          to_string(config_.dispatcher), to_string(config_.sched),
          to_string(config_.admission), to_string(config_.invoke_dataplane));

  const uint64_t starts = s.totals.pool_hits + s.totals.pool_misses;
  appendf(&out, "pool: warm=%llu cold=%llu (%.1f%% warm)",
          ull(s.totals.pool_hits), ull(s.totals.pool_misses),
          starts ? 100.0 * static_cast<double>(s.totals.pool_hits) /
                       static_cast<double>(starts)
                 : 0.0);
  const PC pc = SandboxResourcePool::instance().counters();
  for (const PoolCounterInfo& c : kPoolCounters) {
    appendf(&out, " %s=%llu", c.key, ull(pc.*c.field));
  }
  out += '\n';

  auto us = [](double ns) { return ns / 1e3; };
  for (const ModuleSnapshot& m : s.modules) {
    appendf(&out, "  %-12s", m.name.c_str());
    for (const MetricInfo& c : kModuleCounters) {
      appendf(&out, " %s=%llu", c.key, ull(m.counters[c.id]));
    }
    out += '\n';
    for (const MetricInfo& p : kPhases) {
      const BucketHistogram::Summary& h = m.phases[p.id];
      std::string label = p.key;
      std::replace(label.begin(), label.end(), '_', ' ');
      appendf(&out,
              "  %-12s %-16s n=%llu (avg=%.1fus p50=%.1fus p99=%.1fus "
              "max=%.1fus)\n",
              "", label.c_str(), ull(h.count), us(h.mean_ns()), us(h.p50_ns),
              us(h.p99_ns), us(h.max_ns));
    }
  }
  return out;
}

Status run_sandbox_inline(Sandbox* sandbox) {
  Fiber here;
  while (true) {
    SandboxState st = sandbox->state();
    if (st == SandboxState::kComplete) return Status::ok();
    if (st == SandboxState::kFailed || st == SandboxState::kKilled) {
      return Status::error(sandbox->outcome().describe());
    }
    if (st == SandboxState::kBlocked) {
      // Inline runner: honor each wake condition synchronously (no event
      // loop on this thread). kChild never appears — there is no broker.
      switch (sandbox->wake_kind()) {
        case WakeKind::kFdRead:
        case WakeKind::kFdWrite: {
          pollfd p{};
          p.fd = sandbox->wake_os_fd();
          p.events =
              sandbox->wake_kind() == WakeKind::kFdRead ? POLLIN : POLLOUT;
          ::poll(&p, 1, 100);  // spurious wakes just re-block
          break;
        }
        case WakeKind::kChild:
          return Status::error(
              "sandbox blocked on sb_invoke outside a runtime");
        default: {
          uint64_t now = now_ns();
          if (sandbox->wake_at_ns() > now) {
            ::usleep(static_cast<useconds_t>(
                (sandbox->wake_at_ns() - now) / 1000 + 1));
          }
          break;
        }
      }
      sandbox->set_state(SandboxState::kRunnable);
    }
    sandbox->dispatch(&here);
  }
}

}  // namespace sledge::runtime
