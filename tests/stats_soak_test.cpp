// Concurrency soak for the lock-free module metrics, sanitizer-safe: the
// runtime is never started (no ucontext green threads, which TSan cannot
// track). Four threads drive ModuleStats' recording paths for one module
// while a fifth renders every stats surface, the way /admin scrapes race
// completions on a live server.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {
namespace {

constexpr const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

TEST(StatsSoakTest, ScrapesRaceRecordsWithoutLossOrRegression) {
  RuntimeConfig cfg;
  cfg.engine.tier = engine::Tier::kInterpFast;
  Runtime rt(cfg);
  auto wasm = minicc::compile_to_wasm(kPingSrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  ASSERT_TRUE(rt.register_module("ping", *wasm).is_ok());
  LoadedModule* mod = rt.find_module("ping");
  ModuleStats& stats = mod->stats;

  // One admitted sandbox per instantiation mode; which startup tier each
  // one's cost lands on is read back from the sandbox itself.
  std::unique_ptr<Sandbox> sandboxes[2];
  uint64_t tier_records[ModuleStats::kNumPhases] = {};
  constexpr int kThreads = 4;
  // A multiple of 6: two modes and three completion states.
  constexpr uint64_t kPerThread = 60'000;
  const InstantiationMode modes[] = {InstantiationMode::kCold,
                                     InstantiationMode::kPooled};
  for (int k = 0; k < 2; ++k) {
    sandboxes[k] = Sandbox::create(&mod->module, {}, -1, false, modes[k]);
    ASSERT_NE(sandboxes[k], nullptr);
    tier_records[sandboxes[k]->pooled() ? ModuleStats::kStartupPooled
                                        : ModuleStats::kStartupCold] +=
        kThreads * kPerThread / 2;
  }
  const SandboxState states[] = {SandboxState::kComplete,
                                 SandboxState::kKilled, SandboxState::kFailed};
  std::atomic<bool> go{false};  // writers start once scraping has begun
  std::atomic<int> writing{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t ns = 1 + (i * 7919 + t) % 5'000'000;
        stats.record_admission(*sandboxes[i % 2]);
        ModuleStats::Completion c;
        c.state = states[i % 3];
        c.end_to_end_ns = 3 * ns;
        c.queue_wait_ns = ns;
        c.exec_cpu_ns = ns;
        c.io_wait_ns = ns;
        c.preemptions = 1;
        c.invoke_handoff_ns = ns;
        stats.record_completion(c);
        stats.record_response_write(ns, 10);
        rt.note_shed(mod);
        rt.note_shed_deadline(mod);
        stats.add(ModuleStats::kInvokeLocal);
        stats.add(ModuleStats::kInvokeZerocopy);
      }
      writing.fetch_sub(1, std::memory_order_release);
    });
  }

  // Scraper: every surface renders, the JSON parses, and no counter or
  // phase count ever goes down between snapshots.
  Runtime::ModuleSnapshot last;
  int scrapes = 0;
  do {
    go.store(true, std::memory_order_release);
    EXPECT_TRUE(json::parse(rt.stats_json()).ok());
    EXPECT_FALSE(rt.stats_prometheus().empty());
    EXPECT_FALSE(rt.stats_report().empty());
    const Runtime::StatsSnapshot snap = rt.snapshot();
    EXPECT_EQ(snap.modules.size(), 1u);
    if (snap.modules.size() != 1) break;  // still join the writers below
    const Runtime::ModuleSnapshot& m = snap.modules[0];
    for (size_t c = 0; c < ModuleStats::kNumCounters; ++c) {
      EXPECT_GE(m.counters[c], last.counters[c]) << "counter " << c;
    }
    for (size_t p = 0; p < ModuleStats::kNumPhases; ++p) {
      const BucketHistogram::Summary& h = m.phases[p];
      EXPECT_GE(h.count, last.phases[p].count) << "phase " << p;
      EXPECT_LE(h.p50_ns, h.p90_ns) << "phase " << p;
      EXPECT_LE(h.p90_ns, h.p99_ns) << "phase " << p;
      for (size_t k = 1; k < BucketHistogram::kEdges; ++k) {
        EXPECT_LE(h.le_count[k - 1], h.le_count[k]) << "phase " << p;
      }
      EXPECT_LE(h.le_count.back(), h.count) << "phase " << p;
    }
    last = m;
    ++scrapes;
  } while (writing.load(std::memory_order_acquire) > 0);
  for (auto& w : writers) w.join();
  EXPECT_GE(scrapes, 1);

  // After join: every phase and counter holds exactly the records made
  // (each failure kind got a third of them).
  const uint64_t n = kThreads * kPerThread;
  const Runtime::ModuleSnapshot m = rt.snapshot().modules[0];
  for (size_t p = 0; p < ModuleStats::kNumPhases; ++p) {
    const bool tier = p == ModuleStats::kStartupPooled ||
                      p == ModuleStats::kStartupCold;
    EXPECT_EQ(m.phases[p].count, tier ? tier_records[p] : n) << "phase " << p;
  }
  EXPECT_EQ(m.counters[ModuleStats::kRequests], n);
  EXPECT_EQ(m.counters[ModuleStats::kKills], n / 3);
  EXPECT_EQ(m.counters[ModuleStats::kFailures], n / 3);
  EXPECT_EQ(m.counters[ModuleStats::kShed], n);
  EXPECT_EQ(m.counters[ModuleStats::kShedDeadline], n);
  EXPECT_EQ(m.counters[ModuleStats::kPreemptions], n);
  EXPECT_EQ(m.counters[ModuleStats::kResponseBytes], 10 * n);
  EXPECT_EQ(m.counters[ModuleStats::kInvokeLocal], n);
  EXPECT_EQ(m.counters[ModuleStats::kInvokeZerocopy], n);
  EXPECT_EQ(rt.totals().shed, n);
  EXPECT_EQ(rt.totals().shed_deadline, n);
  EXPECT_TRUE(stats.predictor.ready());
}

}  // namespace
}  // namespace sledge::runtime
