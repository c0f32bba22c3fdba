#include "sledge/listener.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "sledge/runtime.hpp"

namespace sledge::runtime {

namespace {

// Malformed request: terse 400 and hang up.
const char k400[] =
    "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: "
    "close\r\n\r\n";

// Bound on the blocking pre-admission flush (parked response bytes must hit
// the socket before a worker takes over the fd, or response order breaks).
constexpr uint64_t kFlushTimeoutNs = 2'000'000'000;

// How long accept stays disarmed after an unshedable EMFILE (no reserve fd
// could be reclaimed): long enough to stop the 100%-CPU accept spin, short
// enough that recovery after fds free up is prompt.
constexpr uint64_t kAcceptBackoffNs = 10'000'000;  // 10 ms

// Single sendmsg of header+body iovecs starting at logical offset `off`
// into the concatenation. Returns sendmsg's result.
ssize_t send_iovecs(int fd, const std::string& header, const void* body,
                    size_t body_len, size_t off) {
  iovec iov[2];
  int cnt = 0;
  if (off < header.size()) {
    iov[cnt].iov_base = const_cast<char*>(header.data()) + off;
    iov[cnt].iov_len = header.size() - off;
    ++cnt;
    if (body_len != 0) {
      iov[cnt].iov_base = const_cast<void*>(body);
      iov[cnt].iov_len = body_len;
      ++cnt;
    }
  } else {
    size_t boff = off - header.size();
    iov[cnt].iov_base = static_cast<char*>(const_cast<void*>(body)) + boff;
    iov[cnt].iov_len = body_len - boff;
    ++cnt;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(cnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

Listener::Listener(Runtime* rt, int shard) : rt_(rt), shard_(shard) {}

Listener::~Listener() {
  join();
  // Workers are joined before the shards are destroyed, so no connection is
  // still in use: close every one this shard holds, loaned or idle.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  for (auto& [fd, conn] : conns_) ::close(fd);
}

Status Listener::init(uint16_t port, uint16_t* bound_port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Status::error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every shard binds the same port; the kernel hashes incoming 4-tuples
  // across the REUSEPORT group so each connection lands on exactly one
  // shard's accept queue.
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
      0) {
    return Status::error("setsockopt(SO_REUSEPORT) failed: " +
                         std::string(strerror(errno)));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::error("bind() failed: " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 1024) < 0) return Status::error("listen() failed");

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::error("epoll_create1 failed");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) return Status::error("eventfd failed");
  // EMFILE headroom: one reserved fd this shard can burn to accept-and-
  // close when the process fd table is full (see shed_one_accept).
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  // The doorbell is edge-triggered and never read (see IoLoop::init).
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  return Status::ok();
}

void Listener::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Listener::join() {
  if (thread_.joinable()) thread_.join();
}

void Listener::wake() {
  if (event_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

void Listener::return_connection(int fd, bool replay, bool hang_up) {
  if (hang_up) ::shutdown(fd, SHUT_RDWR);  // the shard sees EPOLLHUP
  // Release: pairs with the acquire in end_loan, so everything this worker
  // did with the fd happens-before the shard's close of it.
  loaned_conns_.fetch_sub(1, std::memory_order_release);
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT | (replay && !hang_up ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Listener::add_connection(int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  conns_[fd] = std::move(conn);
  open_conns_.fetch_add(1, std::memory_order_relaxed);
}

void Listener::arm(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLONESHOT;
  if (!conn->outbuf.empty()) ev.events |= EPOLLOUT;
  if (!conn->close_after_write) ev.events |= EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Listener::loan(Conn* conn) {
  conn->loaned = true;
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  loaned_conns_.fetch_add(1, std::memory_order_relaxed);
}

bool Listener::end_loan(Conn* conn, uint32_t events) {
  // Acquire: pairs with the worker's release in return_connection.
  (void)loaned_conns_.load(std::memory_order_acquire);
  conn->loaned = false;
  if (events & (EPOLLHUP | EPOLLERR)) {  // hang-up or dead peer
    drop_connection(conn->fd);
    return false;
  }
  if (conn->stash.empty()) return true;
  // Replay bytes that arrived pipelined behind the request the worker just
  // answered; bytes still in the kernel buffer are read by the caller or
  // re-trigger EPOLLIN once the connection is re-armed.
  std::string bytes;
  bytes.swap(conn->stash);
  return process_bytes(conn, bytes.data(), bytes.size()) == Consume::kContinue;
}

void Listener::drop_connection(int fd) {
  // close() also removes the fd from the epoll set.
  open_conns_.fetch_sub(static_cast<int64_t>(conns_.erase(fd)),
                        std::memory_order_relaxed);
  ::close(fd);
}

bool Listener::shed_one_accept() {
  accept_errors_.fetch_add(1, std::memory_order_relaxed);
  // Free one fd slot, take the pending connection, hang up on it, retake
  // the slot. Each round retires one queued connection, so the accept
  // backlog drains (slowly, with connection resets) instead of wedging the
  // shard in a 100%-CPU accept/EMFILE spin on the level-triggered EPOLLIN.
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void Listener::disarm_accept() {
  epoll_event ev{};
  ev.events = 0;  // keep registered, deliver nothing
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accept_rearm_at_ns_ = now_ns() + kAcceptBackoffNs;
}

void Listener::rearm_accept_if_due(uint64_t now) {
  if (accept_rearm_at_ns_ == 0 || now < accept_rearm_at_ns_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accept_rearm_at_ns_ = 0;
}

void Listener::accept_new() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd pressure: shed via the reserve fd. If even that made no
        // progress (reserve already gone), back off instead of spinning.
        if (!shed_one_accept()) {
          disarm_accept();
          return;
        }
        continue;
      }
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    add_connection(fd);
  }
}

bool Listener::conn_send(Conn* conn, const std::string& header,
                         const void* body, size_t body_len,
                         bool close_after) {
  if (!conn->outbuf.empty()) {
    // Earlier response still draining: append to keep socket order.
    conn->outbuf += header;
    if (body_len != 0) {
      conn->outbuf.append(static_cast<const char*>(body), body_len);
    }
    conn->close_after_write = conn->close_after_write || close_after;
    return true;
  }
  const size_t total = header.size() + body_len;
  size_t off = 0;
  while (off < total) {
    ssize_t n = send_iovecs(conn->fd, header, body, body_len, off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Short write: park the remainder (the only copy on this path) and
      // let EPOLLOUT finish the job.
      if (off < header.size()) {
        conn->outbuf.assign(header, off, std::string::npos);
        if (body_len != 0) {
          conn->outbuf.append(static_cast<const char*>(body), body_len);
        }
      } else {
        conn->outbuf.assign(static_cast<const char*>(body) +
                                (off - header.size()),
                            body_len - (off - header.size()));
      }
      conn->outoff = 0;
      conn->close_after_write = close_after;
      return true;  // arm() adds EPOLLOUT for the parked remainder
    }
    drop_connection(conn->fd);  // peer went away
    return false;
  }
  if (close_after) {
    drop_connection(conn->fd);
    return false;
  }
  return true;
}

bool Listener::handle_writable(Conn* conn) {
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outoff,
                       conn->outbuf.size() - conn->outoff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    drop_connection(conn->fd);
    return false;
  }
  conn->outbuf.clear();
  conn->outoff = 0;
  if (conn->close_after_write) {
    drop_connection(conn->fd);
    return false;
  }
  return true;
}

bool Listener::flush_outbuf_blocking(Conn* conn) {
  uint64_t deadline = now_ns() + kFlushTimeoutNs;
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outoff,
                       conn->outbuf.size() - conn->outoff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (now_ns() >= deadline) return false;
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
      continue;
    }
    return false;
  }
  conn->outbuf.clear();
  conn->outoff = 0;
  return true;
}

void Listener::flush_admitted() {
  if (pending_admits_.empty()) return;
  rt_->dispatcher().push_batch(pending_admits_.data(),
                               pending_admits_.size());
  rt_->wake_idle(pending_admits_.size());  // one hand-off, <= 1 wake each
  pending_admits_.clear();
}

Listener::Consume Listener::process_bytes(Conn* conn, const char* data,
                                          size_t n) {
  size_t off = 0;
  while (off < n) {
    int used = conn->parser.feed(data + off, n - off);
    if (used < 0) {
      (void)conn_send(conn, std::string(k400, sizeof(k400) - 1), true);
      return Consume::kStop;
    }
    off += static_cast<size_t>(used);
    if (!conn->parser.done()) continue;

    http::Request& req = conn->parser.request();
    bool keep_alive = req.keep_alive();

    // Chunked transfer encoding is not implemented; the parser consumed the
    // chunk framing (body discarded) so the stream is positioned at the
    // next request boundary — answer 501 and keep the connection usable.
    if (conn->parser.chunked()) {
      std::string header = http::serialize_response_header(
          501, "Not Implemented", 0, keep_alive, "text/plain");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    // Live observability endpoints, answered on the listener thread from
    // lock-free snapshots (no global pause).
    if (rt_->config().admin_endpoint &&
        req.target.compare(0, 7, "/admin/") == 0) {
      std::string body;
      std::string content_type;
      if (req.target == "/admin/stats") {
        body = rt_->stats_json();
        content_type = "application/json";
      } else if (req.target == "/admin/metrics") {
        body = rt_->stats_prometheus();
        content_type = "text/plain; version=0.0.4";
      }
      std::string header =
          body.empty()
              ? http::serialize_response_header(404, "Not Found", 0,
                                                keep_alive, "text/plain")
              : http::serialize_response_header(200, "OK", body.size(),
                                                keep_alive, content_type);
      if (!conn_send(conn, header, body.data(), body.size(), !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    std::string name =
        req.target.empty() || req.target[0] != '/' ? req.target
                                                   : req.target.substr(1);
    LoadedModule* mod = rt_->find_module(name);
    if (!mod) {
      std::string header = http::serialize_response_header(
          404, "Not Found", 0, keep_alive, "text/plain");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    // Admission control, all without building a sandbox: graceful drain
    // (503, longer Retry-After — this process is going away), overload /
    // fair-share / queue-slack shedding (503, short Retry-After — backoff
    // and retry likely succeeds), and the unmeetable-deadline gate
    // (504-early: even an empty queue cannot run this module inside its
    // deadline). All responses honor keep-alive so the client can reuse
    // the parked connection for the retry.
    if (rt_->draining()) {
      rt_->note_shed(mod);
      std::string header = http::serialize_response_header(
          503, "Draining", 0, keep_alive, "text/plain", "Retry-After: 5\r\n");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }
    switch (rt_->admission_check(mod)) {
      case AdmitVerdict::kAdmit:
        break;
      case AdmitVerdict::kShedOverload: {
        rt_->note_shed(mod);
        std::string header = http::serialize_response_header(
            503, "Overloaded", 0, keep_alive, "text/plain",
            "Retry-After: 1\r\n");
        if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
          return Consume::kStop;
        }
        conn->parser.reset();
        continue;
      }
      case AdmitVerdict::kShedDeadline: {
        rt_->note_shed_deadline(mod);
        std::string header = http::serialize_response_header(
            504, "Deadline Unmeetable", 0, keep_alive, "text/plain",
            "Retry-After: 1\r\n");
        if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
          return Consume::kStop;
        }
        conn->parser.reset();
        continue;
      }
    }

    // Admission: the worker writes this request's response itself, so any
    // parked listener-side bytes must flush first to keep socket order.
    // The blocking flush can stall this shard, so hand off the sandboxes
    // already admitted this tick before entering it.
    if (!conn->outbuf.empty()) {
      flush_admitted();
      if (!flush_outbuf_blocking(conn)) {
        drop_connection(conn->fd);
        return Consume::kStop;
      }
    }

    std::vector<uint8_t> body = std::move(req.body);
    std::unique_ptr<Sandbox> sb =
        Sandbox::create(&mod->module, std::move(body), conn->fd, keep_alive);
    if (!sb) {
      rt_->note_shed(mod);
      std::string header = http::serialize_response_header(
          503, "Overloaded", 0, keep_alive, "text/plain",
          "Retry-After: 1\r\n");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }
    sb->user_tag = mod;
    sb->set_conn_shard(shard_);  // workers return the fd to this shard

    // Resolve limits: per-module override, else runtime default.
    const RuntimeConfig& rc = rt_->config();
    uint64_t budget = mod->limits.execution_budget_ns != 0
                          ? mod->limits.execution_budget_ns
                          : rc.execution_budget_ns;
    uint64_t deadline = mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                                     : rc.deadline_ns;
    sb->set_limits(budget, deadline != 0 ? sb->created_ns() + deadline : 0);
    // Async host I/O: the runtime brokers sb_invoke children; top-level
    // requests start at chain depth 0.
    sb->set_io_config(rt_, static_cast<uint32_t>(rc.max_sandbox_fds),
                      /*depth=*/0,
                      static_cast<uint32_t>(rc.max_invoke_depth));
    // Top-level requests seed the inter-function dataplane for any
    // sb_invoke chain they start (per-module override, else config-wide).
    sb->set_invoke_shm(rt_->module_invoke_shm(mod));

    mod->stats.record_admission(*sb);

    // Stash already-received bytes of the next pipelined request; the
    // worker's hand-back rings the replay doorbell for them.
    conn->parser.reset();
    conn->stash.assign(data + off, n - off);
    sb->set_conn_replay(!conn->stash.empty());
    loan(conn);

    rt_->note_admitted(mod);
    // Batched admission: the sandbox joins this tick's batch and reaches
    // the dispatcher via one push_batch/wake_idle at tick end.
    pending_admits_.push_back(sb.release());
    return Consume::kStop;  // fd now belongs to the worker side
  }
  return Consume::kContinue;
}

void Listener::handle_readable(Conn* conn) {
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      drop_connection(conn->fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_connection(conn->fd);
      return;
    }
    if (process_bytes(conn, buf, static_cast<size_t>(n)) == Consume::kStop) {
      return;  // conn dropped, loaned out, or draining a close response
    }
  }
}

void Listener::thread_main() {
  epoll_event events[128];
  while (rt_->running()) {
    int n = ::epoll_wait(epoll_fd_, events, 128, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      SLEDGE_LOG_ERROR("listener[%d] epoll_wait failed: %s", shard_,
                       strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        accept_new();
        continue;
      }
      if (fd == event_fd_) continue;  // wake(): back to the running() check
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      bool usable = true;
      if (conn->loaned) {
        usable = end_loan(conn, ev);
      } else if (ev & EPOLLOUT) {
        usable = handle_writable(conn);
      }
      if (usable && (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        handle_readable(conn);
      }
      // One-shot: an idle connection needs re-arming; a loaned one stays
      // disarmed until its worker hands it back. A connection parked on a
      // short write (kStop with a close response pending) is idle too.
      it = conns_.find(fd);
      if (it != conns_.end() && !it->second->loaned) arm(it->second.get());
    }
    // One dispatcher hand-off for the whole tick.
    flush_admitted();
    rearm_accept_if_due(now_ns());
  }
  flush_admitted();  // shutdown: nothing admitted may be stranded here
}

}  // namespace sledge::runtime
