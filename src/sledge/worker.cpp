#include "sledge/worker.hpp"

#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

#include <algorithm>
#include <mutex>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "engine/host.hpp"
#include "engine/trap.hpp"
#include "http/http.hpp"
#include "sledge/runtime.hpp"

namespace sledge::runtime {

namespace {
thread_local Worker* tls_worker = nullptr;
}

// Quantum expiry: switch the running sandbox out to the scheduler (the
// paper's mcontext_t save). SA_NODEFER keeps SIGALRM unblocked in here, so
// the handler can switch away and, once the sandbox is dispatched again,
// return through sigreturn into the interrupted code; the signal mask never
// changes. A signal is taken only when it interrupted guest code on the
// sandbox's own stack. switch_stack commits with one rsp load, so the stack
// test alone separates a running sandbox from the scheduler before its
// switch commits and from the trap handler's sigaltstack; the guest-code
// test keeps out host calls and the libc they use (engine::GuestCode).
// Anywhere else the preemption retries after a minimal slice.
//
// Deadline enforcement lives here too: an over-budget sandbox is not
// rotated but unwound via the engine's trap machinery (raise_trap longjmps
// to the TrapScope inside the sandbox's invoke), so Sandbox::entry observes
// a kDeadlineExceeded outcome and parks the sandbox in kKilled.
void worker_quantum_handler(int, siginfo_t*, void* uc) {
  Worker* w = tls_worker;
  Sandbox* sb = w ? w->current_ : nullptr;
  if (!sb || sb->state() != SandboxState::kRunning) return;
  auto rsp = static_cast<ucontext_t*>(uc)->uc_mcontext.gregs[REG_RSP];
  if (!engine::t_in_guest_code || !sb->on_own_stack(rsp)) {
    w->rearm_timer_min();
    return;
  }
  if (sb->kill_requested() || sb->deadline_exceeded(now_ns())) {
    sb->request_kill();
    engine::raise_trap(engine::TrapCode::kDeadlineExceeded);  // no return
  }
  sb->set_state(SandboxState::kRunnable);
  sb->note_preempted();
  w->stats_.preemptions.fetch_add(1, std::memory_order_relaxed);
  {
    engine::GuestCode scheduler(false);
    sb->yield();
  }
  // Returning re-enters the interrupted guest code — unless a kill arrived
  // while we were descheduled (wall deadline passing).
  if (sb->kill_requested()) {
    engine::raise_trap(engine::TrapCode::kDeadlineExceeded);
  }
}

namespace {

void install_quantum_handler_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    sa.sa_sigaction = worker_quantum_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_NODEFER | SA_RESTART;
    sigaction(SIGALRM, &sa, nullptr);
  });
}

}  // namespace

Worker::Worker(Runtime* rt, int index)
    : rt_(rt),
      index_(index),
      policy_(SchedulerPolicy::make(rt->config().sched)) {}

Worker::~Worker() { join(); }

void Worker::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::setup_timer() {
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = static_cast<pid_t>(::syscall(SYS_gettid));
  if (::timer_create(CLOCK_MONOTONIC, &sev, &timer_) == 0) {
    timer_valid_ = true;
  } else {
    SLEDGE_LOG_WARN("worker %d: timer_create failed; preemption disabled",
                    index_);
  }
}

void Worker::arm_timer(const Sandbox* sb) {
  if (!timer_valid_) return;
  uint64_t ns = rt_->config().quantum_us * 1000;
  // Clip the slice to the remaining budget/deadline (floor keeps the value
  // nonzero: a zero it_value would disarm the timer instead).
  constexpr uint64_t kMinSliceNs = 100'000;
  uint64_t now = now_ns();
  if (sb->budget_ns() != 0) {
    uint64_t used = sb->cpu_consumed_ns(now);
    uint64_t left = sb->budget_ns() > used ? sb->budget_ns() - used : 0;
    ns = std::min(ns, std::max(left, kMinSliceNs));
  }
  if (sb->deadline_at_ns() != 0) {
    uint64_t left =
        sb->deadline_at_ns() > now ? sb->deadline_at_ns() - now : 0;
    ns = std::min(ns, std::max(left, kMinSliceNs));
  }
  itimerspec its{};
  its.it_value.tv_sec = ns / 1'000'000'000;
  its.it_value.tv_nsec = ns % 1'000'000'000;
  ::timer_settime(timer_, 0, &its, nullptr);
}

void Worker::disarm_timer() {
  if (!timer_valid_) return;
  itimerspec its{};  // zero = disarm
  ::timer_settime(timer_, 0, &its, nullptr);
}

void Worker::rearm_timer_min() {
  // Called from the quantum signal handler (timer_settime is
  // async-signal-safe): retry the preemption after a minimal slice.
  if (!timer_valid_) return;
  itimerspec its{};
  its.it_value.tv_nsec = 100'000;  // 100 us
  ::timer_settime(timer_, 0, &its, nullptr);
}

void Worker::thread_main() {
  tls_worker = this;
  engine::ensure_sigaltstack();

  // Without preemption the quantum timer is never armed: a dispatched
  // sandbox keeps the core until it completes, blocks, or traps.
  if (rt_->config().preemption) {
    install_quantum_handler_once();
    setup_timer();
  }

  // Idle sleeps are capped so running()/draining() flips are noticed even
  // if a wake were lost. New work reaches a parked worker through the
  // parked handshake below; child completions, hinted children and stop()
  // ring the doorbell unconditionally. So the cap is a backstop, not the
  // latency floor.
  constexpr uint64_t kIdleSleepCapNs = 20'000'000;  // 20 ms

  std::vector<Sandbox*> woken;
  int dry_rounds = 0;
  uint64_t timeout = 0;
  while (rt_->running()) {
    // One epoll_wait per iteration: non-blocking while anything is
    // runnable, else the idle sleep chosen at the end of the last one.
    bool rang = io_loop_.poll(timeout, &woken);
    if (timeout > 0) {
      parked_.store(0, std::memory_order_relaxed);
      if (rang) stats_.idle_wakes.fetch_add(1, std::memory_order_relaxed);
    }
    timeout = 0;
    admit_woken(&woken);
    pump_writes();
    // Published for the invoke-locality slack check (racy by design: a
    // stale value only mis-places one child, which any worker can steal).
    backlog_hint_.store(static_cast<uint32_t>(policy_->size()),
                        std::memory_order_relaxed);

    Sandbox* sb = next_sandbox();
    if (sb) {
      dispatch(sb);
    } else if (rt_->draining() && io_loop_.empty() && writes_.empty() &&
               rt_->dispatcher().backlog_estimate() == 0) {
      // Draining and dry (a few re-checks absorb racy failed steals): this
      // worker's part of the graceful stop is done.
      if (++dry_rounds > 16) break;
      continue;
    }
    dry_rounds = 0;
    if (policy_->size() > 0) continue;

    // Nothing runnable: park until the nearest timer/deadline, a watched fd
    // turns ready, or the doorbell rings (this is where new-request
    // dequeueing integrates with scheduling, paper §3.4, without burning
    // the core while waiting). The stamp, the fence and the re-check pair
    // with Runtime::wake_idle: a push after the re-check sees this worker
    // parked and wakes it.
    flush_access_log();  // off the hot path: only when the core is idle
    uint64_t now = now_ns();
    timeout = io_loop_.sleep_budget_ns(now, kIdleSleepCapNs);
    if (timeout == 0) continue;
    parked_.store(now, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (rt_->dispatcher().has_work_for(index_)) {
      parked_.store(0, std::memory_order_relaxed);
      timeout = 0;
    }
  }

  // Anything left after the drain grace period is abandoned: connections
  // are hung up and handed back to their shards, which close them.
  Sandbox* sb = nullptr;
  while (rt_->dispatcher().fetch(index_, &sb)) abandon(sb);
  while (Sandbox* s = policy_->pick_next()) abandon(s);
  std::vector<Sandbox*> blocked;
  io_loop_.drain_all(&blocked);
  for (Sandbox* s : blocked) abandon(s);
  for (WriteJob& w : writes_) {
    rt_->return_connection(w.fd, w.shard, false, /*hang_up=*/true);
    rt_->note_write_done();
  }
  writes_.clear();
  flush_access_log();

  backlog_hint_.store(0, std::memory_order_relaxed);
  if (timer_valid_) ::timer_delete(timer_);
  tls_worker = nullptr;
}

Sandbox* Worker::next_sandbox() {
  // Dequeueing of new requests is integrated into the scheduling loop
  // (paper §3.4). Round-robin admits at most one stolen request per
  // iteration so freshly arrived short functions rotate fairly with
  // long-running preempted ones; EDF drains everything available so the
  // deadline comparison sees the full candidate set.
  Sandbox* stolen = nullptr;
  while (rt_->dispatcher().fetch(index_, &stolen)) {
    stats_.steals.fetch_add(1, std::memory_order_relaxed);
    policy_->enqueue(stolen);
    if (!policy_->admit_eagerly()) break;
  }
  return policy_->pick_next();
}

void Worker::dispatch(Sandbox* sb) {
  // Wall-clock deadlines also cover queueing delay: check before burning a
  // slice. A sandbox that never entered the engine has nothing to unwind
  // and is killed in place; one that already ran must unwind on-stack, so
  // flag it and dispatch — the resume paths raise the trap.
  if (!sb->kill_requested() && sb->deadline_exceeded(now_ns())) {
    sb->request_kill();
  }
  if (sb->kill_requested() && sb->first_run_ns() == 0) {
    sb->mark_killed_undispatched();
    finalize(sb);
    return;
  }

  stats_.dispatches.fetch_add(1, std::memory_order_relaxed);
  sb->set_owner_worker(index_);  // children spawned via sb_invoke ping us
  const bool preempt = rt_->config().preemption;
  current_ = sb;
  // kRunning before the timer is armed: the quantum handler drops a signal
  // for a sandbox in any other state.
  sb->set_state(SandboxState::kRunning);
  if (preempt) arm_timer(sb);
  sb->dispatch(&sched_);
  if (preempt) disarm_timer();
  current_ = nullptr;

  switch (sb->state()) {
    case SandboxState::kRunnable:  // preempted: back to the policy queue
      policy_->enqueue(sb);
      break;
    case SandboxState::kBlocked:
      stats_.blocked.fetch_add(1, std::memory_order_relaxed);
      io_loop_.add_blocked(sb);
      // add_blocked fails open (bad fd, epoll error): the sandbox comes
      // back runnable and the hostcall retries to surface the error.
      if (sb->state() == SandboxState::kRunnable) policy_->enqueue(sb);
      break;
    case SandboxState::kComplete:
    case SandboxState::kFailed:
    case SandboxState::kKilled:
      finalize(sb);
      break;
    default:
      SLEDGE_LOG_ERROR("worker %d: sandbox in unexpected state", index_);
      rt_->note_retired(static_cast<LoadedModule*>(sb->user_tag));
      delete sb;
      break;
  }
}

void Worker::finalize(Sandbox* sb) {
  if (sb->pooled()) {
    stats_.pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.pool_misses.fetch_add(1, std::memory_order_relaxed);
  }
  SandboxState st = sb->state();
  if (st == SandboxState::kComplete) {
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
  } else if (st == SandboxState::kKilled) {
    stats_.killed.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }

  rt_->record_completion(sb, st);

  // A child sandbox (sb_invoke) reports through its InvokeJoin instead of
  // an HTTP response; its parent may be blocked on another worker.
  signal_join(sb,
              st == SandboxState::kComplete ? 0 : engine::kSbErrChildFailed,
              /*take_response=*/st == SandboxState::kComplete);

  if (sb->conn_fd() >= 0) {
    // Header and body stay separate: the body is moved (not copied) out of
    // the sandbox and pump_writes sends both as one writev.
    int status;
    std::string header;
    std::vector<uint8_t> body;
    if (st == SandboxState::kComplete) {
      status = 200;
      body = std::move(sb->response());
      header = http::serialize_response_header(200, "OK", body.size(),
                                               sb->keep_alive());
    } else if (st == SandboxState::kKilled) {
      status = 504;
      std::string reason = sb->outcome().describe();
      body.assign(reason.begin(), reason.end());
      header = http::serialize_response_header(504, "Gateway Timeout",
                                               body.size(), sb->keep_alive());
    } else {
      status = 500;
      std::string reason = sb->outcome().describe();
      body.assign(reason.begin(), reason.end());
      header = http::serialize_response_header(500, "Function Error",
                                               body.size(), sb->keep_alive());
    }
    // The response-write phase outlives the sandbox: the breakdown rides on
    // the WriteJob and is recorded when the last byte reaches the kernel.
    RequestTrace trace;
    trace.mod = static_cast<LoadedModule*>(sb->user_tag);
    trace.status = status;
    trace.created_ns = sb->created_ns();
    trace.done_ns = sb->done_ns();
    trace.queue_wait_ns = sb->queue_wait_ns();
    trace.startup_ns = sb->startup_cost_ns();
    trace.exec_cpu_ns = sb->cpu_ns();
    trace.io_wait_ns = sb->io_wait_ns();
    trace.dispatches = sb->dispatch_count();
    trace.preempts = sb->preempt_count();
    rt_->note_write_queued();
    writes_.push_back(WriteJob{sb->conn_fd(), std::move(header),
                               std::move(body), 0, sb->keep_alive(),
                               sb->conn_shard(), sb->conn_replay(), trace});
  }
  delete sb;
  pump_writes();
}

void Worker::abandon(Sandbox* sb) {
  stats_.drained.fetch_add(1, std::memory_order_relaxed);
  rt_->note_retired(static_cast<LoadedModule*>(sb->user_tag));
  signal_join(sb, engine::kSbErrChildFailed, /*take_response=*/false);
  if (sb->conn_fd() >= 0) {  // no response is coming
    rt_->return_connection(sb->conn_fd(), sb->conn_shard(), false,
                           /*hang_up=*/true);
  }
  delete sb;
}

void Worker::admit_woken(std::vector<Sandbox*>* woken) {
  for (Sandbox* sb : *woken) {
    stats_.woken.fetch_add(1, std::memory_order_relaxed);
    policy_->enqueue(sb);
  }
  woken->clear();
}

void Worker::signal_join(Sandbox* sb, int32_t status, bool take_response) {
  const std::shared_ptr<InvokeJoin>& join = sb->result_join();
  if (!join) return;
  // Status and payload must be visible before done flips: the parent reads
  // them after an acquire load of done.
  join->status = status;
  // On the shm dataplane the response bytes are already in the transfer
  // buffer; harvest publishes the length instead of moving a vector.
  if (take_response) sb->harvest_response(join.get());
  join->done.store(true, std::memory_order_release);
  rt_->notify_worker(join->waiter_worker);
}

bool Worker::pump_writes() {
  bool progressed = false;
  for (size_t i = 0; i < writes_.size();) {
    WriteJob& w = writes_[i];
    const size_t total = w.header.size() + w.body.size();
    bool done = false, dead = false;
    while (w.offset < total) {
      // Zero-copy: header and body leave as one writev, no concatenation.
      iovec iov[2];
      int cnt = 0;
      if (w.offset < w.header.size()) {
        iov[cnt].iov_base =
            const_cast<char*>(w.header.data()) + w.offset;
        iov[cnt].iov_len = w.header.size() - w.offset;
        ++cnt;
        if (!w.body.empty()) {
          iov[cnt].iov_base = w.body.data();
          iov[cnt].iov_len = w.body.size();
          ++cnt;
        }
      } else {
        size_t boff = w.offset - w.header.size();
        iov[cnt].iov_base = w.body.data() + boff;
        iov[cnt].iov_len = w.body.size() - boff;
        ++cnt;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(cnt);
      ssize_t n = ::sendmsg(w.fd, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        w.offset += static_cast<size_t>(n);
        progressed = true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;  // peer went away
      break;
    }
    if (w.offset == total) done = true;

    if (done || dead) {
      io_loop_.unwatch_write_fd(w.fd);
      complete_write(w, now_ns(), done && !dead);
      rt_->return_connection(w.fd, w.shard, w.replay,
                             /*hang_up=*/dead || !w.keep_alive);
      rt_->note_write_done();
      writes_[i] = std::move(writes_.back());
      writes_.pop_back();
      progressed = true;
    } else {
      io_loop_.watch_write_fd(w.fd);  // EAGAIN: park for EPOLLOUT
      ++i;
    }
  }
  return progressed;
}

void Worker::complete_write(const WriteJob& w, uint64_t now, bool write_ok) {
  const RequestTrace& t = w.trace;
  const size_t total = w.header.size() + w.body.size();
  uint64_t write_ns = now > t.done_ns ? now - t.done_ns : 0;
  if (write_ok && t.mod) t.mod->stats.record_response_write(write_ns, total);
  if (!rt_->access_log_enabled() || t.mod == nullptr) return;

  uint64_t e2e_ns = now > t.created_ns ? now - t.created_ns : 0;
  char line[512];
  int n = std::snprintf(
      line, sizeof(line),
      "{\"module\":\"%s\",\"status\":%d,\"bytes\":%zu,\"worker\":%d,"
      "\"queue_wait_us\":%.1f,\"startup_us\":%.1f,\"exec_cpu_us\":%.1f,"
      "\"io_wait_us\":%.1f,\"response_write_us\":%.1f,\"e2e_us\":%.1f,"
      "\"dispatches\":%u,\"preempts\":%u,\"write_ok\":%s}\n",
      t.mod->name.c_str(), t.status, total, index_,
      static_cast<double>(t.queue_wait_ns) / 1e3,
      static_cast<double>(t.startup_ns) / 1e3,
      static_cast<double>(t.exec_cpu_ns) / 1e3,
      static_cast<double>(t.io_wait_ns) / 1e3,
      static_cast<double>(write_ns) / 1e3, static_cast<double>(e2e_ns) / 1e3,
      t.dispatches, t.preempts, write_ok ? "true" : "false");
  if (n > 0) access_buf_.append(line, std::min(sizeof(line) - 1,
                                               static_cast<size_t>(n)));
  if (access_buf_.size() >= 32 * 1024) flush_access_log();
}

void Worker::flush_access_log() {
  if (access_buf_.empty()) return;
  rt_->access_log_write(access_buf_);
  access_buf_.clear();
}

}  // namespace sledge::runtime
