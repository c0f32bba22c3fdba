// A Sledge listener shard: epoll-based request forwarding (paper §4),
// replicated N times behind one SO_REUSEPORT port so accepts, parsing,
// admission and control-path writes scale per core (the front door stops
// being a single epoll loop). Each shard owns its listen socket, epoll fd
// and connection table end to end; the kernel's REUSEPORT 4-tuple hash
// spreads incoming connections across shards.
//
// Connection ownership: every connection stays in its shard's table and
// epoll set, registered EPOLLONESHOT, from accept until the shard closes
// it — the shard is the only thread that ever closes a connection fd.
// Admitting a request loans the fd to a worker simply by not re-arming it.
// The worker hands it back with one EPOLL_CTL_MOD on this shard's epoll fd
// (return_connection; the shard index is stamped into the Sandbox):
// EPOLLIN re-arms a kept-alive connection, EPOLLOUT on top rings the
// replay doorbell for pipelined bytes the shard stashed at admission (the
// socket is writable, so the event fires at once), and a shutdown() first
// turns the hand-back into a hang-up the shard answers by closing. Since a
// loaned fd is never closed, its number cannot be reissued while a worker
// holds it.
//
// Control-path responses (400/404/501/503 and the /admin observability
// endpoints) are written zero-copy as a writev of header+body iovecs, with
// short-write safety: a partial send parks the remainder on the Conn and
// re-arms EPOLLOUT instead of silently truncating. Admissions are batched
// per epoll tick: admitted sandboxes collect into a local vector and reach
// the dispatcher through one push_batch() per wakeup, then wake at most
// one parked worker per admitted sandbox (Runtime::wake_idle).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "http/http.hpp"

namespace sledge::runtime {

class Runtime;
class Sandbox;

class Listener {
 public:
  Listener(Runtime* rt, int shard);
  ~Listener();

  // Creates and binds the SO_REUSEPORT listening socket; fills bound port.
  // Shard 0 may bind port 0 (kernel-picked); later shards must pass shard
  // 0's resolved port so all shards share the accept queue hash.
  Status init(uint16_t port, uint16_t* bound_port);
  void start();
  void join();

  int shard() const { return shard_; }

  // Thread-safe: a worker hands a loaned connection back (see the file
  // comment). `replay` rings the doorbell for stashed pipelined bytes;
  // `hang_up` shuts the socket down so the shard drops it.
  void return_connection(int fd, bool replay, bool hang_up);
  // Wakes the epoll loop (used by stop()).
  void wake();

  // ---- Live per-shard counters (the /admin observability plane) ----
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  // Failed accepts: fd-pressure sheds (EMFILE/ENFILE accept-and-close via
  // the reserve fd) plus unexpected accept errno.
  uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }
  // Connections idle in this shard (armed in its epoll set).
  int64_t open_conns() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  // Connections on loan to workers.
  int64_t loaned_conns() const {
    return loaned_conns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd;
    http::RequestParser parser;
    // Unsent control-path response bytes, parked when the socket would
    // block; flushed by EPOLLOUT events (outoff = consumed prefix). The
    // fast path never touches this — writev straight from header+body.
    std::string outbuf;
    size_t outoff = 0;
    bool close_after_write = false;
    // Bytes of the next pipelined request received before the previous one
    // was admitted; replayed when the worker returns the connection.
    std::string stash;
    // On loan to a worker: disarmed in epoll, untouched by this shard. The
    // next event on the fd is the worker's hand-back.
    bool loaned = false;
  };

  // Whether the caller may keep touching the Conn / parsing its input.
  enum class Consume : uint8_t { kContinue, kStop };

  void thread_main();
  void accept_new();
  // EMFILE/ENFILE shed: close the reserve fd, accept-and-close one pending
  // connection, retake the reserve. Returns false if no progress was
  // possible (accept must then back off instead of spinning).
  bool shed_one_accept();
  // Drops EPOLLIN on the listen socket for a short backoff (re-armed by
  // thread_main) so persistent fd exhaustion cannot spin the shard at 100%.
  void disarm_accept();
  void rearm_accept_if_due(uint64_t now);
  void handle_readable(Conn* conn);
  // Flushes parked outbuf bytes; returns false if the conn was dropped.
  bool handle_writable(Conn* conn);
  // Runs `n` received bytes through the parser/dispatch state machine.
  Consume process_bytes(Conn* conn, const char* data, size_t n);
  // Zero-copy response send: one writev of header+body iovecs. Parks the
  // unsent remainder (copying only then) on EAGAIN for arm()'s EPOLLOUT.
  // Returns false if the conn was dropped (peer dead, or close_after and
  // everything flushed).
  bool conn_send(Conn* conn, const std::string& header, const void* body,
                 size_t body_len, bool close_after);
  bool conn_send(Conn* conn, const std::string& data, bool close_after) {
    return conn_send(conn, data, nullptr, 0, close_after);
  }
  // Bounded blocking flush of parked bytes, used only before loaning a
  // connection to a worker (response order on the socket must be kept).
  bool flush_outbuf_blocking(Conn* conn);
  // Hands the tick's admitted sandboxes to the dispatcher: one
  // push_batch() + one wake_idle() per epoll wakeup.
  void flush_admitted();
  // Re-arms an idle (not loaned) connection: EPOLLONESHOT plus EPOLLIN
  // and/or EPOLLOUT as its parked output requires.
  void arm(Conn* conn);
  void add_connection(int fd);
  // Starts a loan: the fd stays disarmed until the worker hands it back.
  void loan(Conn* conn);
  // First event after a hand-back: ends the loan, then drops a hung-up
  // connection or replays its stash. Returns whether the caller may keep
  // handling the event (the connection is still usable and idle here).
  bool end_loan(Conn* conn, uint32_t events);
  void drop_connection(int fd);

  Runtime* rt_;
  const int shard_;
  std::thread thread_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  // wake(): interrupts epoll_wait at stop
  // Reserved dummy fd (EMFILE headroom): closed to free a slot, used to
  // accept-and-close under fd pressure, then reopened.
  int reserve_fd_ = -1;
  // 0 = accept armed; else earliest ns the disarmed accept re-arms.
  uint64_t accept_rearm_at_ns_ = 0;
  // Every open connection of this shard, idle or on loan.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  // Sandboxes admitted this epoll tick, flushed in one dispatcher batch.
  std::vector<Sandbox*> pending_admits_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::atomic<int64_t> open_conns_{0};
  std::atomic<int64_t> loaned_conns_{0};
};

}  // namespace sledge::runtime
