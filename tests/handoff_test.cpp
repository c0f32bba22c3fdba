// Listener -> worker hand-off under the parked handshake: a request admitted
// while every worker sleeps must wake one of them at once, never wait out
// the 20 ms idle cap. Pings go one at a time over one keep-alive connection
// with random 0-300 us gaps, so workers keep parking right at the race edge
// with the listener's push; any lost wake shows up as a queue wait near the
// cap. A two-client variant adds requests that arrive while their worker
// is busy. Also covers the unhinted sb_invoke child, whose injection wakes
// a parked worker through the same path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

// A lost wake stalls a request until some worker's idle cap (20 ms) ends
// its sleep; a prompt hand-off is well under a millisecond.
constexpr uint64_t kStallNs = 15'000'000;

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

// sb_invoke("ping") and relay the child's response.
const char* kHeadSrc = R"(
char name[4];
char req[1];
char resp[8];
int main() {
  name[0] = 112;  // 'p'
  name[1] = 105;  // 'i'
  name[2] = 110;  // 'n'
  name[3] = 103;  // 'g'
  int n = sb_invoke(name, 4, req, 0, resp, 8);
  if (n < 0) {
    resp_i32(n);
    return n;
  }
  resp_write(resp, n);
  return n;
}
)";

std::vector<uint8_t> compile(const std::string& src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

int connect_loopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One keep-alive POST; returns the status (0 on a transport error) and the
// body. Responses carry a Content-Length, so one read loop suffices.
int post(int fd, const std::string& path, std::string* body) {
  std::string req = "POST " + path +
                    " HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    return 0;
  }
  std::string buf;
  char chunk[512];
  for (;;) {
    size_t end = buf.find("\r\n\r\n");
    size_t cl = buf.find("Content-Length:");
    if (end != std::string::npos && cl != std::string::npos && cl < end) {
      size_t len = std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
      if (buf.size() >= end + 4 + len) {
        *body = buf.substr(end + 4, len);
        int status = 0;
        return std::sscanf(buf.c_str(), "HTTP/1.1 %d", &status) == 1 ? status
                                                                     : 0;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 0;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

const Runtime::ModuleSnapshot* find(const Runtime::StatsSnapshot& s,
                                    const std::string& name) {
  for (const auto& m : s.modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

class HandOffTest : public ::testing::TestWithParam<DispatchPolicy> {};

// Sends `per_conn` pings, one at a time with random 0-300 us gaps, over
// each of `conns` keep-alive connections (one client thread each), then
// checks that every one was answered and none waited for the idle cap.
void run_pings(DispatchPolicy dispatcher, int conns, int per_conn) {
  RuntimeConfig cfg;
  cfg.workers = 4;
  cfg.num_listeners = 1;
  cfg.dispatcher = dispatcher;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < conns; ++c) {
    clients.emplace_back([&, c] {
      int fd = connect_loopback(rt.bound_port());
      if (fd < 0) return;
      Rng rng(0x5eed + 16 * static_cast<uint64_t>(dispatcher) + c);
      for (int i = 0; i < per_conn; ++i) {
        ::usleep(rng.below(301));
        std::string body;
        if (post(fd, "/ping", &body) != 200) break;
        ok += body == "p";
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  const int total = conns * per_conn;
  EXPECT_EQ(ok.load(), total);

  Runtime::StatsSnapshot s = rt.snapshot();
  const Runtime::ModuleSnapshot* ping = find(s, "ping");
  ASSERT_NE(ping, nullptr);
  const auto& wait = ping->phases[ModuleStats::kQueueWait];
  EXPECT_EQ(wait.count, static_cast<uint64_t>(total));
  EXPECT_LT(wait.max_ns, kStallNs) << "a request waited for the idle cap";
  // Requests that found every worker asleep rang a doorbell.
  EXPECT_GT(s.totals.idle_wakes, 0u);
  rt.stop();
}

TEST_P(HandOffTest, SerialPingsNeverWaitForTheIdleCap) {
  run_pings(GetParam(), 1, 400);
}

// Two clients: requests also land while the worker that must serve them
// (sharded_module puts every ping on one worker) is busy, so they depend
// on that worker re-checking the dispatcher before it parks.
TEST_P(HandOffTest, ConcurrentPingsNeverWaitForTheIdleCap) {
  run_pings(GetParam(), 2, 200);
}

// The child of a sb_invoke is injected from the parent's worker. Outside
// work stealing (which hints children to the parent's worker) it is
// unhinted: the injection must wake a parked worker that can fetch it, or
// the parent's worker picks it up when it re-checks before parking.
TEST_P(HandOffTest, InvokeChildIsServedWhileOtherWorkersPark) {
  RuntimeConfig cfg;
  cfg.workers = 4;
  cfg.num_listeners = 1;
  cfg.dispatcher = GetParam();
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("head", compile(kHeadSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int fd = connect_loopback(rt.bound_port());
  ASSERT_GE(fd, 0);

  constexpr int kHeads = 50;
  for (int i = 0; i < kHeads; ++i) {
    ::usleep(2'000);  // every worker parks between requests
    std::string body;
    ASSERT_EQ(post(fd, "/head", &body), 200) << "request " << i;
    EXPECT_EQ(body, "p");
  }
  ::close(fd);

  Runtime::StatsSnapshot s = rt.snapshot();
  EXPECT_EQ(s.totals.invokes, static_cast<uint64_t>(kHeads));
  const Runtime::ModuleSnapshot* child = find(s, "ping");
  ASSERT_NE(child, nullptr);
  const auto& handoff = child->phases[ModuleStats::kInvokeHandoff];
  EXPECT_EQ(handoff.count, static_cast<uint64_t>(kHeads));
  EXPECT_LT(handoff.max_ns, kStallNs) << "a child waited for the idle cap";
  // The phases a lost wake would stretch: the head's own hand-off and its
  // wait on the join (startup and execution are not wake-bound).
  const Runtime::ModuleSnapshot* head = find(s, "head");
  ASSERT_NE(head, nullptr);
  EXPECT_LT(head->phases[ModuleStats::kQueueWait].max_ns, kStallNs)
      << "a head waited for the idle cap";
  EXPECT_LT(head->phases[ModuleStats::kIoWait].max_ns, kStallNs)
      << "a join wake was lost";
  rt.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllDispatchers, HandOffTest, ::testing::ValuesIn(testutil::kAllDispatchers),
    [](const ::testing::TestParamInfo<DispatchPolicy>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace sledge::runtime
