// Snapshot/COW instantiation (the Lumos-style template tier) plus the
// warm-pool autoscaler that pre-builds snapshot-backed sandboxes.
//
// After a module's first successful instantiation (start function run,
// globals and data segments settled), the post-start linear memory image is
// written into a sealed per-module memfd and the mutable instance state
// (globals, indirect-call table / AoT instance block) captured as an
// InstantiationSeed. Subsequent instantiations mmap(MAP_PRIVATE) the memfd
// over a pooled reservation, so the initial image materializes page-by-page
// copy-on-write — no zeroing, no data-segment copies, no start function.
//
// Tenant isolation: every instance gets a *private* mapping (writes never
// reach the template), templates are keyed by WasmModule* and never shared
// across modules, and LinearMemory::recycle() replaces a template-backed
// prefix with fresh anonymous pages before the region re-enters the pool —
// so the pool's zero-on-reuse contract is preserved (see memory.cpp).
//
// Latency: the template mmap is paid at *release* time, not create time —
// a retiring sandbox's region is remapped to the pristine view and parked
// on its template (stash_memory/get_or_build), so the next snapshot
// instantiation is syscall-free. See DESIGN.md §14.
//
// On top, WarmPool + ArrivalRateEstimator + warm_pool_target() implement
// per-module warm-pool autoscaling: a background replenisher (Runtime)
// sizes each pool from the observed arrival rate over a sliding window
// (the SlackPredictor ring idiom from admission.hpp), pre-builds
// snapshot-backed sandboxes, and decays idle modules back to zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {

// A built template: sealed memfd holding the post-start memory image plus
// the captured mutable instance state. Immutable after construction; shared
// read-only between the listener, workers and the replenisher.
struct SnapshotTemplate {
  int fd = -1;                  // sealed memfd (SEAL_SHRINK|GROW|WRITE)
  uint64_t content_bytes = 0;   // image size (page multiple, >= min_pages)
  uint32_t max_pages = 0;       // growth ceiling at capture time
  engine::InstantiationSeed seed;
  // Ready instances parked by departing tenants: pristine view remapped
  // and instance state reseeded at stash time, so get_or_build() hands one
  // out with zero syscalls and no instantiation work. Guarded by the
  // registry mutex.
  std::vector<engine::WasmSandbox> spares;

  ~SnapshotTemplate();
  SnapshotTemplate() = default;
  SnapshotTemplate(const SnapshotTemplate&) = delete;
  SnapshotTemplate& operator=(const SnapshotTemplate&) = delete;
};

// Process-wide template registry, keyed by module identity. Templates build
// lazily (one cold instantiation + one memfd write, under the registry
// mutex so concurrent first requests build exactly once) and persist until
// the module is invalidated (unload/reload) or the registry is cleared.
class SnapshotRegistry {
 public:
  struct Counters {
    uint64_t hits = 0;            // snapshot-backed instantiations served
    uint64_t misses = 0;          // snapshot requested, fell back to pooled
    uint64_t builds = 0;          // templates built
    uint64_t build_failures = 0;  // build attempts that failed (memfd, ...)
  };

  static SnapshotRegistry& instance();

  // Returns the module's template, building it on first call. nullptr when
  // the module declares no linear memory, memfd_create fails, or a previous
  // build failed (failures are remembered; no per-request rebuild storm).
  // The pointer stays valid until invalidate(module) or clear(). When
  // `spare` is non-null and a departing tenant parked an instance on the
  // template (stash_memory), that instance is moved into *spare under the
  // same lock — the create path's one registry round trip.
  const SnapshotTemplate* get_or_build(const engine::WasmModule* module,
                                       engine::WasmSandbox* spare = nullptr);

  // Drops the module's template (module reload path: the image would be
  // stale) and forgets any remembered build failure. Safe to call with no
  // template present.
  void invalidate(const engine::WasmModule* module);

  // Drops every template (tests; process teardown is fine without it).
  void clear();

  // Release-time recycling of template-backed regions: stash_memory()
  // restores the pristine template view and seeds a fresh instance over
  // it (the mmap and the seeding are paid here, off the instantiation
  // path) and parks that instance on the module's template; get_or_build()
  // hands it out ready to run. stash returns false when the template was
  // invalidated, the spare cache is full, or the remap failed (region
  // untouched — release it to the resource pool instead), or when seeding
  // failed (region consumed).
  bool stash_memory(const engine::WasmModule* module,
                    engine::LinearMemory* memory);

  Counters counters() const;
  void reset_counters();

  // Instantiation-path accounting (called from Sandbox::create).
  void note_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void note_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  // Test-only fault injection: when set and returning true, memfd creation
  // fails as if the kernel lacked memfd_create — the graceful-degrade path.
  using MemfdFaultHook = bool (*)();
  static void set_memfd_fault_hook(MemfdFaultHook hook);

 private:
  SnapshotRegistry() = default;

  mutable std::mutex mu_;
  std::unordered_map<const engine::WasmModule*,
                     std::unique_ptr<SnapshotTemplate>>
      templates_;
  std::unordered_set<const engine::WasmModule*> failed_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> build_failures_{0};
};

// Sliding-window arrival-rate estimator: a lock-free ring of the last
// kWindow arrival timestamps (the SlackPredictor ring idiom — single
// conceptual writer per module via the listener/broker, racy reads
// tolerated because the output only sizes a warm pool).
class ArrivalRateEstimator {
 public:
  static constexpr int kWindow = 64;

  void note_arrival(uint64_t now_ns) {
    uint64_t ticket = count_.fetch_add(1, std::memory_order_relaxed);
    stamps_[ticket % kWindow].store(now_ns, std::memory_order_relaxed);
    last_.store(now_ns, std::memory_order_release);
  }

  // Arrivals per second over the window ending at `now_ns`; 0 until two
  // arrivals have been observed.
  double rate_per_sec(uint64_t now_ns) const {
    uint64_t c = count_.load(std::memory_order_acquire);
    if (c < 2) return 0.0;
    uint64_t n = c < kWindow ? c : kWindow;
    // After c arrivals, slot c % kWindow holds the oldest retained stamp
    // (arrival c - kWindow); below a full window the oldest is slot 0.
    uint64_t oldest =
        stamps_[c >= kWindow ? c % kWindow : 0].load(std::memory_order_relaxed);
    if (now_ns <= oldest) return 0.0;
    return static_cast<double>(n) /
           (static_cast<double>(now_ns - oldest) / 1e9);
  }

  // Monotonic timestamp of the most recent arrival (0 = never).
  uint64_t last_arrival_ns() const {
    return last_.load(std::memory_order_acquire);
  }

  uint64_t total() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> stamps_[kWindow] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> last_{0};
};

// Autoscaler policy knobs (RuntimeConfig::warm_pool).
struct WarmPoolConfig {
  bool enabled = true;
  // Hard per-module cap on pre-built sandboxes.
  int max_per_module = 8;
  // Replenisher pass period; also the coverage horizon the target sizes
  // for (arrivals expected before the next pass).
  uint64_t replenish_interval_us = 2000;
  // Over-provisioning factor on the expected arrivals per interval.
  double headroom = 1.5;
  // A module with no arrival for this long decays to a target of zero
  // (its pre-built sandboxes are dropped back to the resource pool).
  uint64_t idle_decay_us = 2'000'000;

  bool operator==(const WarmPoolConfig&) const = default;
};

// Pure autoscaler policy: pre-build enough sandboxes to cover the arrivals
// expected in one replenish interval (rate × interval × headroom, rounded
// up), clamped to [0, max_per_module]; idle modules decay to zero. Split
// out so the schedule math is unit-testable without threads.
int warm_pool_target(double rate_per_sec, uint64_t idle_ns,
                     const WarmPoolConfig& config);

// Per-module stash of pre-built, never-dispatched snapshot-backed
// sandboxes. pop() is the admission fast path (listener / invoke broker);
// push() is the replenisher. target is written by the replenisher only.
class WarmPool {
 public:
  std::unique_ptr<Sandbox> pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return nullptr;
    std::unique_ptr<Sandbox> sb = std::move(ready_.back());
    ready_.pop_back();
    hits_.fetch_add(1, std::memory_order_relaxed);
    return sb;
  }

  // False (sandbox dropped by the caller) once the pool is at its target —
  // covers the race where the target decayed mid-build.
  bool push(std::unique_ptr<Sandbox> sb) {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(ready_.size()) >= target()) return false;
    ready_.push_back(std::move(sb));
    refills_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void clear() {
    std::vector<std::unique_ptr<Sandbox>> drop;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drop.swap(ready_);
    }
    // Sandboxes destruct outside the lock (they release pooled resources).
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ready_.size();
  }

  void set_target(int t) { target_.store(t, std::memory_order_release); }
  int target() const { return target_.load(std::memory_order_acquire); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t refills() const {
    return refills_.load(std::memory_order_relaxed);
  }

  ArrivalRateEstimator arrivals;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Sandbox>> ready_;
  std::atomic<int> target_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> refills_{0};
};

}  // namespace sledge::runtime
