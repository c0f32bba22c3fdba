// sledged: the Sledge serverless runtime as a standalone server.
//
//   $ sledged config.json
//
// Config format (paper §4: "a JSON-based configuration file"). Every key is
// optional; unknown keys, wrong JSON types and out-of-range values are
// errors (exit 1, the message names the key). The parser and its key
// table live in config.cpp; the README key table lists the defaults.
// {
//   "port": 8080,            // 0 = pick a free port
//   "workers": 3,
//   "num_listeners": 0,      // SO_REUSEPORT accept shards; 0 = min(4, cores)
//   "quantum_us": 5000,
//   "preemption": true,
//   "dispatcher": "work_stealing",  // | "global_lock" | "per_worker"
//                                   // | "global_edf" | "sharded_module"
//   "scheduler": "round_robin",  // | "edf"
//   "admission": "depth",        // | "slack" (expected-slack + fair shares)
//   "pool": true,                // sandbox resource pool (warm startup);
//                                // false = fresh allocations (cold ablation)
//   "pool_per_thread": 8,        // free-list entries kept per thread
//   "pool_global": 64,           // global overflow cap / reclaim watermark
//   "tier": "aot",               // | "aot_o1" | "interp_fast" | "interp"
//   "bounds": "vm_guard",        // | "software" | "mpx_sim" | "none"
//   "budget_us": 0,          // per-request CPU budget; over-budget -> 504
//   "deadline_us": 0,        // wall-clock deadline from admission -> 504
//   "max_pending": 0,        // shed with 503 beyond this many in flight
//   "drain_grace_ms": 2000,  // graceful-stop bound for in-flight requests
//   "max_sandbox_fds": 8,    // per-sandbox open outbound-socket cap
//   "max_invoke_depth": 4,   // sb_invoke chain depth cap (top level = 0)
//   "invoke_dataplane": "shm",  // | "copy" (per-request vector copies)
//   "admin_endpoint": true,  // GET /admin/stats (JSON) + /admin/metrics
//   "access_log": "",        // per-request JSON lines file ("" = off)
//   "modules": [
//     {"name": "fib", "wasm": "path/to/fib.wasm"},
//     {"name": "ekf", "minicc": "src/apps/wasm_src/ekf.mc",
//      "budget_us": 50000, "deadline_us": 200000,   // per-module overrides
//      "tenant_weight": 2,   // fair-share weight (admission = "slack")
//      "invoke_dataplane": "copy"}  // | "shm" (unset = inherit global)
//   ]
// }
//
// Functions are served at POST /<name>. SIGINT/SIGTERM shut down cleanly.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "common/file_util.hpp"
#include "common/json.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;

namespace {

std::atomic<bool> g_shutdown{false};
void on_signal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  ::setvbuf(stdout, nullptr, _IOLBF, 0);  // line-buffered even when piped
  if (argc != 2) {
    std::fprintf(stderr, "usage: sledged <config.json>\n");
    return 2;
  }
  auto text = read_file(argv[1]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.error_message().c_str());
    return 1;
  }
  auto doc = json::parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.error_message().c_str());
    return 1;
  }
  auto cfg = runtime::parse_config(*doc);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.error_message().c_str());
    return 1;
  }

  runtime::Runtime rt(cfg->runtime);

  for (const runtime::ModuleSpec& module : cfg->modules) {
    const char* name = module.name.c_str();
    auto file = read_file(module.wasm.empty() ? module.minicc : module.wasm);
    if (!file.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, file.error_message().c_str());
      return 1;
    }
    std::vector<uint8_t> wasm_bytes(file->begin(), file->end());
    if (module.wasm.empty()) {
      auto wasm = minicc::compile_to_wasm(*file);
      if (!wasm.ok()) {
        std::fprintf(stderr, "%s: %s\n", name, wasm.error_message().c_str());
        return 1;
      }
      wasm_bytes = wasm.take();
    }
    Status s = rt.register_module(module.name, wasm_bytes, module.limits);
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
    std::printf("loaded /%s (%zu bytes)\n", name, wasm_bytes.size());
  }

  Status s = rt.start();
  if (!s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::printf("sledged on 127.0.0.1:%u — Ctrl-C to stop\n", rt.bound_port());
  if (cfg->runtime.admin_endpoint) {
    std::printf("live stats: GET /admin/stats (JSON), /admin/metrics "
                "(Prometheus)\n");
  }

  ::signal(SIGINT, on_signal);
  ::signal(SIGTERM, on_signal);
  while (!g_shutdown.load()) ::usleep(100000);

  rt.stop();  // drains in-flight requests (bounded by drain_grace_ms)
  std::printf("\n%s", rt.stats_report().c_str());
  return 0;
}
