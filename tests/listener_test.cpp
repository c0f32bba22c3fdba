// Listener front-door tests: the SO_REUSEPORT shard fan-out and the
// data-path bugfixes it exposed — chunked requests answered 501 without
// desyncing the pipelined byte stream, strict Content-Length (400 on
// malformed / conflicting values), the EMFILE accept livelock (reserve-fd
// shed + bounded CPU + recovery), shard-correct loan/return of kept-alive
// connections, the one-shot hand-back protocol (replay doorbell, hang-ups,
// the loan ledger, no fd leaked across start/stop), and a 2k-connection
// mixed-status soak that reconciles exactly against runtime counters and
// the /admin/stats shard aggregates.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

std::vector<uint8_t> compile(const char* src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

const char* kSleeperSrc = R"(
char out[1];
int main() { sleep_ms(200); out[0] = 122; resp_write(out, 1); return 0; }
)";

// 256 KiB response: more than one send for the worker on most hosts.
constexpr int kBigLen = 262144;
const char* kBigSrc = R"(
char out[262144];
int main() {
  int i = 0;
  while (i < 262144) { out[i] = 97 + i % 26; i = i + 1; }
  resp_write(out, 262144);
  return 0;
}
)";

// Blocking client socket; a reply that never comes fails the test after
// 10 s instead of hanging it.
int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval rcvto{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcvto, sizeof(rcvto));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Blocking read of exactly one HTTP/1.1 response (status + Content-Length
// body); returns false on connection error or malformed bytes.
bool recv_response(int fd, int* status, std::string* body,
                   std::string* carry) {
  std::string& buf = *carry;
  char chunk[4096];
  for (;;) {
    size_t header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      if (::sscanf(buf.c_str(), "HTTP/1.1 %d", status) != 1) return false;
      size_t cl = buf.find("Content-Length:");
      if (cl == std::string::npos || cl > header_end) return false;
      size_t content_len = std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
      size_t body_start = header_end + 4;
      if (buf.size() >= body_start + content_len) {
        *body = buf.substr(body_start, content_len);
        buf.erase(0, body_start + content_len);
        return true;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

json::Value scrape_json(uint16_t port) {
  auto body = loadgen::http_get("127.0.0.1", port, "/admin/stats");
  EXPECT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(body.ok() ? *body : "null");
  EXPECT_TRUE(doc.ok()) << doc.error_message();
  return doc.ok() ? *doc : json::Value();
}

// ---- Chunked requests: 501 without desyncing the connection ----

TEST(ListenerTest, ChunkedRequest501ThenPipelinedRequestSurvives) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = raw_connect(rt.bound_port());
  // A chunked POST and a normal keep-alive POST pipelined in one write. The
  // old parser treated the chunk bytes as the next request (garbage 400);
  // now the chunk framing is consumed, the chunked request answered 501,
  // and the pipelined successor still runs.
  std::string pipelined =
      "POST /ping HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
      "POST /ping HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(send_all(fd, pipelined));

  int status = 0;
  std::string body, carry;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 501);
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "p");
  ::close(fd);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 1u);  // only the non-chunked request ran
}

// ---- Strict Content-Length end to end ----

TEST(ListenerTest, MalformedContentLengthAnswered400) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  for (const char* cl : {"+5", "-1", "5x", "4 2"}) {
    int fd = raw_connect(rt.bound_port());
    std::string req = "POST /ping HTTP/1.1\r\nContent-Length: " +
                      std::string(cl) + "\r\n\r\n";
    ASSERT_TRUE(send_all(fd, req));
    int status = 0;
    std::string body, carry;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << cl;
    EXPECT_EQ(status, 400) << cl;
    // 400 closes the connection: the stream position is unknowable.
    char c;
    EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << cl;
    ::close(fd);
  }

  // Conflicting duplicate Content-Length values: smuggling vector, 400.
  int fd = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(fd,
                       "POST /ping HTTP/1.1\r\nContent-Length: 5\r\n"
                       "Content-Length: 6\r\n\r\n"));
  int status = 0;
  std::string body, carry;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 400);
  ::close(fd);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 0u);
}

// ---- EMFILE accept livelock: shed, bounded CPU, recovery ----

int count_open_fds() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv_ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

// Restores RLIMIT_NOFILE and closes the filler fds even when an ASSERT
// aborts the test body early — later tests must not inherit fd pressure.
struct ScopedFdPressure {
  rlimit orig{};
  std::vector<int> fillers;
  bool active = false;
  ~ScopedFdPressure() { release(); }
  void release() {
    for (int fd : fillers) ::close(fd);
    fillers.clear();
    if (active) ::setrlimit(RLIMIT_NOFILE, &orig);
    active = false;
  }
};

TEST(ListenerTest, EmfileAcceptShedsAndRecovers) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Sanity: the path works before fd pressure.
  auto ok = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {});
  ASSERT_TRUE(ok.ok()) << ok.error_message();

  // Pre-allocate the client socket, then exhaust the process fd table under
  // a lowered RLIMIT_NOFILE (connect() itself needs no new fd).
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  timeval rcvto{2, 0};
  ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &rcvto, sizeof(rcvto));
  ScopedFdPressure pressure;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &pressure.orig), 0);
  int used = count_open_fds();
  ASSERT_GT(used, 0);
  rlimit low{static_cast<rlim_t>(used + 8), pressure.orig.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  pressure.active = true;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    pressure.fillers.push_back(fd);
    ASSERT_LT(pressure.fillers.size(), 64u);  // the lowered limit must bite
  }
  ASSERT_EQ(errno, EMFILE);

  // The connection now pending in the accept backlog cannot get a normal
  // fd: the listener must shed it through its reserve fd (accept-and-close)
  // instead of spinning on the level-triggered EPOLLIN forever.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rt.bound_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (rt.totals().accept_errors == 0 && now_ns() < deadline) {
    ::usleep(1000);
  }
  EXPECT_GE(rt.totals().accept_errors, 1u);
  // The shed hangs up on the probe connection.
  char c;
  ssize_t r = ::recv(probe, &c, 1, 0);
  EXPECT_LE(r, 0);

  // Livelock regression: under persistent fd pressure the listener's CPU
  // stays bounded (the old code spun accept->EMFILE->return at 100%).
  uint64_t cpu0 = process_cpu_ns();
  uint64_t wall0 = now_ns();
  ::usleep(300'000);
  uint64_t cpu_spent = process_cpu_ns() - cpu0;
  uint64_t wall_spent = now_ns() - wall0;
  EXPECT_LT(cpu_spent, wall_spent / 2)
      << "listener burned " << cpu_spent << "ns CPU over " << wall_spent
      << "ns wall under fd pressure";

  // Recovery: free the fds, lift the limit — the next request must be
  // accepted and served normally.
  ::close(probe);
  pressure.release();
  auto again =
      loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {});
  ASSERT_TRUE(again.ok()) << again.error_message();
  rt.stop();
}

// ---- Shard-aware loan/return ----

TEST(ListenerTest, TwoShardsPipelinedKeepAliveReturnsToOwningShard) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Several connections, spread by the kernel across the two REUSEPORT
  // shards. Each sends two pipelined function requests in one write: the
  // second request's bytes arrive while the fd is loaned to a worker, land
  // in the owning shard's stash, and must replay on that shard when the
  // worker returns the fd. A wrong-shard return would orphan the stash and
  // hang the second response.
  constexpr int kConns = 8;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) fds.push_back(raw_connect(rt.bound_port()));
  const std::string two =
      "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
      "POST /ping HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
  for (int fd : fds) ASSERT_TRUE(send_all(fd, two));
  for (int fd : fds) {
    int status = 0;
    std::string body, carry;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "p");
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "p");
    ::close(fd);
  }

  // /admin/stats aggregates across shards: two listener entries whose
  // accepted counts sum to every connection opened (ours + this scrape).
  json::Value stats = scrape_json(rt.bound_port());
  const json::Array& shards = stats["listeners"].as_array();
  ASSERT_EQ(shards.size(), 2u);
  int64_t accepted = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    accepted += shards[i]["accepted"].as_int(0);
    EXPECT_EQ(shards[i]["id"].as_int(-1), static_cast<int64_t>(i));
  }
  EXPECT_EQ(accepted, kConns + 1);
  EXPECT_EQ(stats["totals"]["accepted"].as_int(0), accepted);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 2u * kConns);
}

// ---- One-shot hand-back: doorbell, hang-ups, ledger, fd hygiene ----

// Sum of the shards' (open, loaned) connection ledgers.
std::pair<int64_t, int64_t> conn_ledger(const Runtime& rt) {
  int64_t open = 0, loaned = 0;
  for (const auto& l : rt.snapshot().listeners) {
    open += l.open_conns;
    loaned += l.loaned_conns;
  }
  return {open, loaned};
}

// Polls the ledger (a hand-back lands just after the response bytes do).
bool wait_ledger(const Runtime& rt, int64_t open, int64_t loaned) {
  uint64_t deadline = now_ns() + 3'000'000'000ull;
  while (conn_ledger(rt) != std::make_pair(open, loaned)) {
    if (now_ns() > deadline) return false;
    ::usleep(1000);
  }
  return true;
}

TEST(ListenerTest, PipelinedRequestStashedAtAdmissionAnsweredViaDoorbell) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("sleeper", compile(kSleeperSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Both requests reach the shard in one read: the first is admitted (and
  // sleeps on a worker), the second is stashed on the loaned connection.
  // Nothing more arrives from the client, so only the worker's EPOLLOUT
  // doorbell can get the stash replayed.
  int fd = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(fd,
                       "POST /sleeper HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                       "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  ASSERT_TRUE(wait_ledger(rt, 0, 1));
  int status = 0;
  std::string body, carry;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "z");
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "p");

  // The connection came back armed: a later request on it is served too.
  ASSERT_TRUE(
      send_all(fd, "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(wait_ledger(rt, 1, 0));
  ::close(fd);
  EXPECT_TRUE(wait_ledger(rt, 0, 0));
  rt.stop();
  EXPECT_EQ(rt.totals().completed, 3u);
}

TEST(ListenerTest, ConnectionCloseDeliversEveryByteThenCloses) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("big", compile(kBigSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(fd,
                       "POST /big HTTP/1.1\r\nContent-Length: 0\r\n"
                       "Connection: close\r\n\r\n"));
  ::usleep(50'000);  // let the response back up in the socket buffers
  std::string bytes;
  char chunk[65536];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    bytes.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "connection reset instead of closed: "
                  << std::strerror(errno);
  size_t header_end = bytes.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_EQ(bytes.compare(0, 15, "HTTP/1.1 200 OK"), 0);
  std::string body = bytes.substr(header_end + 4);
  ASSERT_EQ(body.size(), static_cast<size_t>(kBigLen));
  for (int i = 0; i < kBigLen; ++i) {
    ASSERT_EQ(body[static_cast<size_t>(i)], static_cast<char>(97 + i % 26))
        << "byte " << i;
  }
  ::close(fd);
  EXPECT_TRUE(wait_ledger(rt, 0, 0));
  rt.stop();
  EXPECT_EQ(rt.totals().completed, 1u);
}

TEST(ListenerTest, PeerResetWhileOnLoanIsDropped) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("sleeper", compile(kSleeperSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  const int fds_before = count_open_fds();

  int fd = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(
      fd, "POST /sleeper HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  ASSERT_TRUE(wait_ledger(rt, 0, 1));
  linger lg{1, 0};  // close() now sends RST
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
  ::close(fd);

  // The worker's response write fails, it hands the fd back hung up, and
  // the shard closes it: ledger and process fd table back to baseline.
  EXPECT_TRUE(wait_ledger(rt, 0, 0));
  EXPECT_EQ(count_open_fds(), fds_before);
  rt.stop();
  EXPECT_EQ(rt.inflight(), 0);
}

// Every fd the runtime holds while idle exists when start() returns: the
// workers' event loops are created on the starting thread, not later on
// their own. 100 requests on closed connections then leave the process fd
// table exactly where start() left it.
TEST(ListenerTest, FdTableSettledWhenStartReturns) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  const int fds_at_start = count_open_fds();

  for (int i = 0; i < 100; ++i) {
    int status = 0;
    auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                        {}, &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 200);
  }
  // The shard closes each connection just after its response lands.
  ASSERT_TRUE(wait_ledger(rt, 0, 0));
  uint64_t deadline = now_ns() + 3'000'000'000ull;
  while (count_open_fds() != fds_at_start && now_ns() < deadline) {
    ::usleep(1000);
  }
  EXPECT_EQ(count_open_fds(), fds_at_start);
  rt.stop();
}

TEST(ListenerTest, LoanLedgerReturnsToZeroAndStopClosesLoanedFds) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 2;
  cfg.drain_grace_ns = 20'000'000;  // the 1 s sleeper outlives the drain
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.register_module(
                    "long", compile(R"(
char out[1];
int main() { sleep_ms(1000); out[0] = 108; resp_write(out, 1); return 0; }
)"))
                  .is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Four kept-alive connections, each answered once: all back home, idle.
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    int fd = raw_connect(rt.bound_port());
    ASSERT_TRUE(
        send_all(fd, "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
    int status = 0;
    std::string body, carry;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 200);
    fds.push_back(fd);
  }
  EXPECT_TRUE(wait_ledger(rt, 4, 0));

  // One of them goes on loan to a request that will outlive the drain.
  ASSERT_TRUE(send_all(
      fds[0], "POST /long HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_TRUE(wait_ledger(rt, 3, 1));

  rt.stop();
  // The loaned connection was closed (not leaked, not left hanging): its
  // peer sees end-of-stream, as do the idle ones.
  for (int fd : fds) {
    timeval rcvto{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcvto, sizeof(rcvto));
    char c;
    ssize_t r = ::recv(fd, &c, 1, 0);
    EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET))
        << "fd still open after stop: r=" << r << " " << std::strerror(errno);
    ::close(fd);
  }
  EXPECT_EQ(rt.inflight(), 0);
}

// fd hygiene of the single-closer protocol: every connection state at stop
// (idle, half-parsed, answered and returned, pipelined, on loan past the
// drain, hung up) ends with exactly one close.
TEST(ListenerTest, FdCountUnchangedAcross20StartStopCycles) {
  auto cycle = [](bool* ok) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.num_listeners = 2;
    cfg.drain_grace_ns = 10'000'000;
    Runtime rt(cfg);
    *ok = rt.register_module("ping", compile(kPingSrc)).is_ok() &&
          rt.register_module("sleeper", compile(kSleeperSrc)).is_ok() &&
          rt.start().is_ok();
    if (!*ok) return;
    const std::string ping =
        "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    std::vector<int> fds;
    for (int i = 0; i < 6; ++i) fds.push_back(raw_connect(rt.bound_port()));
    int status = 0;
    std::string body, carry;
    // [0] idle; [1] half-written request.
    EXPECT_TRUE(send_all(fds[1], "POST /ping HTTP/1.1\r\nContent-Le"));
    // [2] answered and returned; [3] pipelined pair, both answered.
    EXPECT_TRUE(send_all(fds[2], ping));
    EXPECT_TRUE(recv_response(fds[2], &status, &body, &carry));
    EXPECT_TRUE(send_all(fds[3], ping + ping));
    carry.clear();
    EXPECT_TRUE(recv_response(fds[3], &status, &body, &carry));
    EXPECT_TRUE(recv_response(fds[3], &status, &body, &carry));
    // [4] on loan when stop() runs; [5] answered with Connection: close.
    EXPECT_TRUE(send_all(
        fds[4], "POST /sleeper HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
    EXPECT_TRUE(send_all(fds[5],
                         "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n"
                         "Connection: close\r\n\r\n"));
    carry.clear();
    EXPECT_TRUE(recv_response(fds[5], &status, &body, &carry));
    rt.stop();
    for (int fd : fds) ::close(fd);
  };
  bool ok = false;
  cycle(&ok);  // warm-up: process-lifetime fds (if any) open here
  ASSERT_TRUE(ok);
  const int before = count_open_fds();
  for (int i = 0; i < 20; ++i) {
    cycle(&ok);
    ASSERT_TRUE(ok) << "cycle " << i;
  }
  EXPECT_EQ(count_open_fds(), before);
}

// ---- 2k-connection mixed-status soak: exact reconciliation ----

TEST(ListenerTest, TwoShardSoak2kConnectionsReconcilesExactly) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  constexpr int kRounds = 500;  // x4 connections per round = 2000
  uint64_t n200 = 0, n404 = 0, n503 = 0;
  auto one = [&](const std::string& target, bool fault) -> int {
    std::optional<testutil::ScopedSandboxAllocFault> f;
    if (fault) f.emplace();
    int fd = raw_connect(rt.bound_port());
    std::string req = "POST " + target +
                      " HTTP/1.1\r\nContent-Length: 0\r\n"
                      "Connection: close\r\n\r\n";
    EXPECT_TRUE(send_all(fd, req));
    int status = 0;
    std::string body, carry;
    EXPECT_TRUE(recv_response(fd, &status, &body, &carry));
    ::close(fd);
    return status;
  };
  for (int r = 0; r < kRounds; ++r) {
    int s1 = one("/ping", false);
    EXPECT_EQ(s1, 200);
    n200 += s1 == 200;
    int s2 = one("/ghost", false);
    EXPECT_EQ(s2, 404);
    n404 += s2 == 404;
    int s3 = one("/ping", true);  // alloc fault -> 503 Overloaded
    EXPECT_EQ(s3, 503);
    n503 += s3 == 503;
    int s4 = one("/ping", false);
    EXPECT_EQ(s4, 200);
    n200 += s4 == 200;
  }
  EXPECT_EQ(n200, 2u * kRounds);

  // Exact reconciliation against the runtime's own books.
  Runtime::Totals t = rt.totals();
  EXPECT_EQ(t.completed, n200);
  EXPECT_EQ(t.shed, n503);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.accepted, 4u * kRounds);
  EXPECT_EQ(t.accept_errors, 0u);
  EXPECT_EQ(rt.inflight(), 0);

  // And against the shard aggregates exposed over /admin/stats: both shards
  // saw traffic, and their sum matches the totals.
  json::Value stats = scrape_json(rt.bound_port());
  const json::Array& shards = stats["listeners"].as_array();
  ASSERT_EQ(shards.size(), 2u);
  int64_t accepted = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    int64_t shard = shards[i]["accepted"].as_int(0);
    EXPECT_GT(shard, 0) << "shard " << i << " never accepted";
    accepted += shard;
  }
  EXPECT_EQ(accepted, 4 * kRounds + 1);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, n200);  // stable across stop()
}

}  // namespace
}  // namespace sledge::runtime
