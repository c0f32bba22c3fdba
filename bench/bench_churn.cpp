// Table 3: function churn — the cost of bringing up one invocation of
// GPS-EKF:
//   * Sledge sandbox: allocate linear memory + stack + context, run,
//     teardown (the paper's "optimized function startup"), and
//   * fork + exec + wait of the equivalent native function binary (the
//     Nuclio-model per-invocation cost).
// Each of SLEDGE_BENCH_TRIALS trials (default 5) times SLEDGE_BENCH_ITERS
// iterations (default 300; the paper used 10k) of the creation-only
// component for both instantiation tiers:
//   cold    fresh mmap reservation per sandbox (resource pool bypassed)
//   pooled  recycled reservation from the sandbox resource pool
// Emits BENCH_churn.json (override path with SLEDGE_BENCH_OUT) with
// host_cores, the trial count and, per tier, the median/min/max over trials
// of each trial's p50, p99 and mean.
//
// --smoke: the two creation tiers only; fails (exit 1) unless the median
// pooled p50 is below the median cold p50 (scripts/check.sh).
#include <algorithm>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "procfaas/procfaas.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// One per-tier measurement pass: reconfigure + drain the process-wide pool,
// warm unrelated caches with a throwaway request, then time Sandbox::create
// over `iters` full create/run/teardown cycles (teardown is what refills the
// free lists between pooled iterations).
bool measure_create(const engine::WasmModule* mod,
                    const std::vector<uint8_t>& request, int iters,
                    runtime::InstantiationMode mode, bool pool_enabled,
                    LatencyHistogram* create_only) {
  auto& pool = runtime::SandboxResourcePool::instance();
  runtime::SandboxResourcePool::Config pc;
  pc.enabled = pool_enabled;
  pool.configure(pc);
  pool.purge();
  pool.reset_counters();
  {
    auto sb = runtime::Sandbox::create(mod, request, -1, false, mode);
    if (!sb) return false;
    runtime::run_sandbox_inline(sb.get());
  }
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    auto sb = runtime::Sandbox::create(mod, request, -1, false, mode);
    uint64_t create_ns = sw.elapsed_ns();
    if (!sb) return false;
    create_only->record(create_ns);
    runtime::run_sandbox_inline(sb.get());
  }
  return true;
}

double p50_us(const LatencyHistogram& h) {
  return static_cast<double>(h.percentile_ns(0.5)) / 1000.0;
}

// One statistic of one tier across trials.
struct Spread {
  std::vector<double> v;
  double median() const {
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    return s.empty() ? 0.0 : s[s.size() / 2];
  }
  double min() const { return *std::min_element(v.begin(), v.end()); }
  double max() const { return *std::max_element(v.begin(), v.end()); }
};

// Per-trial p50/p99/mean of one tier.
struct TierSpread {
  explicit TierSpread(const char* n) : name(n) {}
  const char* name;
  Spread p50, p99, mean;
  void add(const LatencyHistogram& h) {
    p50.v.push_back(p50_us(h));
    p99.v.push_back(h.p99_us());
    mean.v.push_back(h.mean_us());
  }
};

// Cold runs with the pool disabled AND the cold mode (fresh reservation,
// fresh stack); pooled runs with the pool enabled so recycled reservations
// are what get measured.
bool measure_tiers(const engine::WasmModule* mod,
                   const std::vector<uint8_t>& request, int iters,
                   TierSpread* cold, TierSpread* pooled) {
  using runtime::InstantiationMode;
  LatencyHistogram c, p;
  if (!measure_create(mod, request, iters, InstantiationMode::kCold,
                      /*pool_enabled=*/false, &c) ||
      !measure_create(mod, request, iters, InstantiationMode::kPooled,
                      /*pool_enabled=*/true, &p)) {
    return false;
  }
  cold->add(c);
  pooled->add(p);
  return true;
}

void print_tier(const char* label, const TierSpread& t) {
  std::printf("%-36s %7.2fus [%.2f-%.2f] %7.2fus [%.2f-%.2f]\n", label,
              t.p50.median(), t.p50.min(), t.p50.max(), t.p99.median(),
              t.p99.min(), t.p99.max());
}

bool write_json(const std::vector<const TierSpread*>& tiers, int iters,
                int trials) {
  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_churn.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return false;
  }
  auto spread = [&](const char* key, const Spread& s, const char* trail) {
    std::fprintf(f,
                 "\"%s\": {\"median\": %.2f, \"min\": %.2f, \"max\": %.2f}%s",
                 key, s.median(), s.min(), s.max(), trail);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"churn\",\n  \"host_cores\": %u,\n"
               "  \"workload\": {\"app\": \"ekf\", \"iters\": %d, "
               "\"trials\": %d},\n  \"tiers\": [\n",
               std::thread::hardware_concurrency(), iters, trials);
  for (size_t i = 0; i < tiers.size(); ++i) {
    std::fprintf(f, "    {\"tier\": \"%s\", ", tiers[i]->name);
    spread("p50_us", tiers[i]->p50, ", ");
    spread("p99_us", tiers[i]->p99, ", ");
    spread("mean_us", tiers[i]->mean, "");
    std::fprintf(f, "}%s\n", i + 1 < tiers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"headline\": {\"cold_over_pooled_p50\": %.3f}\n}\n",
               tiers[0]->p50.median() / tiers[1]->p50.median());
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return true;
}

// The CI gate: recycling must beat a fresh reservation, or the pool is not
// earning its keep.
int check_ordering(const TierSpread& cold, const TierSpread& pooled) {
  if (pooled.p50.median() >= cold.p50.median()) {
    std::fprintf(stderr,
                 "FAIL: pooled create p50 (%.2fus) not below cold p50 "
                 "(%.2fus)\n",
                 pooled.p50.median(), cold.p50.median());
    return 1;
  }
  std::printf("PASS: pooled p50 < cold p50\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header(smoke ? "Churn smoke: cold vs pooled startup (GPS-EKF)"
                     : "Churn: Sledge sandbox vs fork+exec+wait (GPS-EKF)",
               "Table 3");

  const int iters = static_cast<int>(env_long("SLEDGE_BENCH_ITERS", 300));
  const int trials =
      static_cast<int>(std::max(1L, env_long("SLEDGE_BENCH_TRIALS", 5)));
  std::vector<uint8_t> request = apps::app_request("ekf");

  auto wasm = apps::app_wasm("ekf");
  if (!wasm.ok()) {
    std::fprintf(stderr, "%s\n", wasm.error_message().c_str());
    return 1;
  }
  engine::WasmModule::Config cfg;  // kAot + vm_guard
  auto mod = engine::WasmModule::load(wasm.value(), cfg);
  if (!mod.ok()) {
    std::fprintf(stderr, "%s\n", mod.error_message().c_str());
    return 1;
  }

  if (!smoke) {
    // Warm the fork+exec path (page cache, dynamic loader) once.
    std::vector<uint8_t> resp;
    procfaas::spawn_function_process(fn_path("ekf"), request, &resp);
  }

  TierSpread cold("cold"), pooled("pooled"), fork_exec("fork_exec_native"),
      sandbox_full("create_run_teardown");
  for (int trial = 0; trial < trials; ++trial) {
    if (!measure_tiers(&mod.value(), request, iters, &cold, &pooled)) {
      std::fprintf(stderr, "sandbox creation failed\n");
      return 1;
    }
    if (smoke) continue;

    // Full mode: the create+run+teardown cycle on the pooled tier, and the
    // fork+exec+wait comparison (the per-invocation process-isolation
    // baseline).
    LatencyHistogram full, fe;
    for (int i = 0; i < iters; ++i) {
      Stopwatch sw;
      auto sb = runtime::Sandbox::create(&mod.value(), request);
      if (!sb) return 1;
      runtime::run_sandbox_inline(sb.get());
      sb.reset();  // teardown included
      full.record(sw.elapsed_ns());
    }
    for (int i = 0; i < iters; ++i) {
      std::vector<uint8_t> resp;
      Stopwatch sw;
      if (!procfaas::spawn_function_process(fn_path("ekf"), request, &resp)) {
        std::fprintf(stderr, "fork+exec failed at iteration %d\n", i);
        return 1;
      }
      fe.record(sw.elapsed_ns());
    }
    sandbox_full.add(full);
    fork_exec.add(fe);
  }

  std::printf("%d trials x %d iters; median [min-max] over trials\n", trials,
              iters);
  std::printf("%-36s %22s %22s\n", "", "50%", "99%");
  print_tier("create, cold (fresh mmap)", cold);
  print_tier("create, pooled (recycled rsv)", pooled);
  std::printf("%-36s %8.2fx\n", "cold / pooled p50 ratio",
              cold.p50.median() / pooled.p50.median());

  int rc = check_ordering(cold, pooled);
  if (smoke) {
    if (rc == 0 && !write_json({&cold, &pooled}, iters, trials)) rc = 1;
    runtime::SandboxResourcePool::instance().purge();
    return rc;
  }

  std::printf("%-36s %8s %8s\n", "", "Avg", "99%");
  std::printf("%-36s %6.1fus %6.1fus\n", "Sledge create+run+teardown",
              sandbox_full.mean.median(), sandbox_full.p99.median());
  std::printf("%-36s %6.1fus %6.1fus\n", "fork + exec + wait (native)",
              fork_exec.mean.median(), fork_exec.p99.median());
  std::printf("%-36s %7.2fx %7.2fx\n", "fork+exec / sandbox ratio",
              fork_exec.mean.median() / sandbox_full.mean.median(),
              fork_exec.p99.median() / sandbox_full.p99.median());
  std::printf("\nPaper (Table 3): Sledge sandbox 61us avg / 146us p99; "
              "fork+exec+wait 487us avg / 588us p99 (~8x avg).\n");

  if (!write_json({&cold, &pooled, &sandbox_full, &fork_exec}, iters,
                  trials)) {
    rc = 1;
  }
  runtime::SandboxResourcePool::instance().purge();
  return rc;
}
