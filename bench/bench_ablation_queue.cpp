// Ablation: work-distribution structure (DESIGN.md design-choice index).
// The same ping workload is pushed through the three queue dispatchers:
//   work_stealing — lock-free Chase-Lev deque (the paper's design)
//   global_lock   — single mutex-protected FIFO
//   per_worker    — static round-robin, no stealing (not work-conserving)
// On a large machine the deque's scalability dominates; on this host the
// observable effect is lock-contention overhead and, for per_worker,
// head-of-line blocking under skewed service times.
#include "bench_server_util.hpp"

using namespace sledge;
using namespace sledge::bench;

int main() {
  print_header("Ablation: work-distribution policy", "DESIGN.md ablation");

  const uint64_t reqs = static_cast<uint64_t>(env_long("SLEDGE_BENCH_REQS", 1500));
  const int conc = static_cast<int>(env_long("SLEDGE_BENCH_CONC", 20));

  auto ping = apps::app_wasm("ping");
  auto cifar = apps::app_wasm("cifar10");
  if (!ping.ok() || !cifar.ok()) return 1;

  std::printf("%-15s | %12s %10s %10s | %10s\n", "policy", "ping r/s",
              "avg ms", "p99 ms", "mix p99 ms");

  for (runtime::DispatchPolicy policy :
       {runtime::DispatchPolicy::kWorkStealing,
        runtime::DispatchPolicy::kGlobalLock,
        runtime::DispatchPolicy::kPerWorker}) {
    runtime::RuntimeConfig cfg;
    cfg.workers = 3;
    cfg.dispatcher = policy;
    runtime::Runtime rt(cfg);
    if (!rt.register_module("ping", ping.value()).is_ok()) return 1;
    if (!rt.register_module("cifar10", cifar.value()).is_ok()) return 1;
    if (!rt.start().is_ok()) return 1;

    auto uniform = drive(rt.bound_port(), "/ping", {}, conc, reqs);

    // Skewed mix: long cifar10 requests interleaved with pings — the
    // non-work-conserving policy should show inflated ping tails.
    loadgen::Report mix_ping;
    {
      std::thread heavy([&] {
        drive(rt.bound_port(), "/cifar10", apps::app_request("cifar10"), 4,
              60);
      });
      mix_ping = drive(rt.bound_port(), "/ping", {}, 4, 400);
      heavy.join();
    }

    std::printf("%-15s | %12.0f %10.3f %10.3f | %10.3f\n",
                to_string(policy), uniform.throughput_rps, uniform.mean_ms(),
                uniform.p99_ms(), mix_ping.p99_ms());
    rt.stop();
  }

  std::printf("\nExpected shape: work_stealing >= global_lock on throughput "
              "(gap grows with cores); per_worker shows the worst skewed-mix "
              "p99 (no work conservation).\n");
  return 0;
}
