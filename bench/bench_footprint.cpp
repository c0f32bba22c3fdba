// §5.1 "Memory footprint": sizes of the per-function artifacts and the
// loaded runtime's RSS, versus the multi-megabyte container images of
// VM/container-based FaaS.
//
// Paper numbers: Sledge runtime binary 359KB; AoT shared objects 108-112KB;
// Nuclio function-processor container 96.4MB.
//
// --smoke: the fixed-memory gate. Serves 10k and then 100k more `ping`
// requests through an in-process Runtime and prints VmRSS after each phase;
// exits nonzero when the second reading exceeds the first by more than
// 512 KiB (a runtime whose metrics keep per-request samples grows ~10 MB).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "common/file_util.hpp"
#include "http/http.hpp"
#include "loadgen/loadgen.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

long rss_kb() {
  auto status = read_file("/proc/self/status");
  if (!status.ok()) return -1;
  size_t pos = status->find("VmRSS:");
  if (pos == std::string::npos) return -1;
  return std::atol(status->c_str() + pos + 6);
}

// Sends `n` pings over `conns` keep-alive connections, one request in
// flight per connection. Nothing is kept per request, so the client adds
// no memory that grows with `n`. Returns the number of 200 responses.
uint64_t serve_pings(uint16_t port, uint64_t n, int conns) {
  const std::string req = http::serialize_request("POST", "/ping", {}, true);
  std::atomic<uint64_t> issued{0}, ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < conns; ++c) {
    clients.emplace_back([&] {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr))) {
        ::close(fd);
        return;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::string in;
      char buf[4096];
      while (issued.fetch_add(1) < n) {
        if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(req.size())) {
          break;
        }
        // One response: header block, then Content-Length body bytes.
        size_t need = std::string::npos;
        while (need == std::string::npos || in.size() < need) {
          const size_t head = in.find("\r\n\r\n");
          if (need == std::string::npos && head != std::string::npos) {
            const size_t cl = in.find("Content-Length:");
            if (cl == std::string::npos || cl > head) break;
            need = head + 4 + std::strtoul(in.c_str() + cl + 15, nullptr, 10);
            continue;
          }
          const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
          if (r <= 0) break;
          in.append(buf, static_cast<size_t>(r));
        }
        if (need == std::string::npos || in.size() < need) break;
        ok += in.compare(0, 12, "HTTP/1.1 200") == 0;
        in.erase(0, need);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  return ok.load();
}

int smoke() {
  runtime::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 1;
  runtime::Runtime rt(cfg);
  auto wasm = minicc::compile_to_wasm(
      "char out[1];\n"
      "int main() { out[0] = 112; resp_write(out, 1); return 0; }\n");
  if (!wasm.ok() || !rt.register_module("ping", *wasm).is_ok() ||
      !rt.start().is_ok()) {
    std::fprintf(stderr, "footprint smoke: runtime setup failed\n");
    return 1;
  }
  const uint64_t phases[] = {10'000, 100'000};
  long rss[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const uint64_t ok = serve_pings(rt.bound_port(), phases[i], 2);
    // A scrape is part of steady-state serving; its memory must not stick.
    auto stats = loadgen::http_get("127.0.0.1", rt.bound_port(),
                                   "/admin/stats");
    rss[i] = rss_kb();
    std::printf("after %6llu more pings (%llu ok, stats %s): VmRSS %ld KiB\n",
                static_cast<unsigned long long>(phases[i]),
                static_cast<unsigned long long>(ok),
                stats.ok() ? "ok" : "failed", rss[i]);
    if (ok != phases[i] || !stats.ok()) {
      std::fprintf(stderr, "footprint smoke: requests failed\n");
      return 1;
    }
  }
  rt.stop();
  const long growth = rss[1] - rss[0];
  std::printf("growth over 100k requests: %ld KiB (gate: <= 512 KiB)\n",
              growth);
  return growth <= 512 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return smoke();
  print_header("Memory footprint of functions and runtime", "Section 5.1");

  long rss_before = rss_kb();

  runtime::RuntimeConfig cfg;
  cfg.workers = 2;
  runtime::Runtime rt(cfg);

  std::printf("%-12s %14s %14s\n", "module", "wasm bytes", "AoT .so bytes");
  int64_t total_so = 0;
  for (const std::string& app : apps::app_names()) {
    auto wasm = apps::app_wasm(app);
    if (!wasm.ok()) continue;
    Status s = rt.register_module(app, wasm.value());
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      continue;
    }
    int64_t so_size = rt.find_module(app)->module.native_object_size();
    total_so += so_size;
    std::printf("%-12s %14zu %14lld\n", app.c_str(), wasm.value().size(),
                static_cast<long long>(so_size));
  }

  if (!rt.start().is_ok()) return 1;
  long rss_after = rss_kb();
  rt.stop();

  std::printf("\n%-44s %10ld KB\n", "process RSS before loading modules",
              rss_before);
  std::printf("%-44s %10ld KB\n",
              "process RSS with 5 modules + runtime started", rss_after);
  std::printf("%-44s %10ld KB\n", "delta (all functions + runtime state)",
              rss_after - rss_before);
  std::printf("%-44s %10lld KB\n", "sum of AoT shared objects",
              static_cast<long long>(total_so / 1024));

  // Native function binaries (the per-function artifact of the
  // process-model baseline).
  std::printf("\n%-12s %14s\n", "fn binary", "bytes");
  for (const std::string& app : apps::app_names()) {
    std::printf("%-12s %14lld\n", app.c_str(),
                static_cast<long long>(file_size(fn_path(app))));
  }

  std::printf(
      "\nPaper (5.1): runtime binary 359KB, per-function .so 108-112KB — vs "
      "96.4MB per Nuclio function-processor container and GBs per VM. Any "
      "result in the 10s-to-100s of KB per function preserves the paper's "
      "2-3 orders-of-magnitude density argument.\n");
  return 0;
}
