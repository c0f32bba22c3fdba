// Linear memory with the paper's four configurable bounds-check strategies
// (§3.2 of the paper):
//
//   kNone     — no checks (breaks the sandbox; for overhead studies only)
//   kSoftware — explicit compare-and-branch on every access
//   kMpxSim   — bounds-directory load + two compares per access, modelling
//               Intel MPX's bndldx/bndcl/bndcu cost profile (MPX silicon is
//               deprecated/unavailable; see DESIGN.md substitutions)
//   kVmGuard  — the "4 GiB aligned span" trick: the full 32-bit index space
//               plus a slack for static offsets is reserved PROT_NONE and
//               only the committed prefix is accessible, so out-of-bounds
//               accesses fault and are converted to traps.
//
// All strategies reserve the address range up-front so base() is stable
// across memory.grow — the AoT ABI and the interpreters cache the base.
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.hpp"
#include "wasm/module.hpp"

namespace sledge::engine {

enum class BoundsStrategy : uint8_t {
  kNone = 0,
  kSoftware = 1,
  kMpxSim = 2,
  kVmGuard = 3,
};

const char* to_string(BoundsStrategy s);

// mpx-sim bounds directory entry; mirrored in the generated-C ABI.
struct BoundsDirEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
};
constexpr int kBoundsDirEntries = 64;

class LinearMemory {
 public:
  LinearMemory() = default;
  ~LinearMemory();
  LinearMemory(LinearMemory&& o) noexcept { *this = std::move(o); }
  LinearMemory& operator=(LinearMemory&& o) noexcept;
  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;

  // max_pages: hard growth ceiling (also the reservation size for non-guard
  // strategies). Callers should pass the module's declared max, or a policy
  // cap for modules without one.
  static Result<LinearMemory> create(BoundsStrategy strategy,
                                     uint32_t min_pages, uint32_t max_pages);

  // Address-space reservation a create() with these parameters would make.
  // Resource pools bucket reusable regions by (strategy, reservation).
  static uint64_t reservation_bytes(BoundsStrategy strategy,
                                    uint32_t max_pages);

  uint8_t* base() const { return base_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t pages() const {
    return static_cast<uint32_t>(size_bytes_ / wasm::kPageSize);
  }
  uint32_t max_pages() const { return max_pages_; }
  BoundsStrategy strategy() const { return strategy_; }
  bool valid() const { return base_ != nullptr; }

  // Returns previous size in pages, or -1 on failure (per wasm semantics).
  int32_t grow(uint32_t delta_pages);

  // ---- Pooled reuse (warm-start path) ----
  //
  // recycle() quiesces the region for pooling and scrubs the departing
  // tenant's data, so the next tenant reads all zeros — the cross-tenant
  // isolation property pooling depends on. Two paths:
  //
  //   kZeroedInPlace — one mincore() over the committed prefix finds the
  //     resident pages; those runs are memset to zero and stay mapped RW,
  //     so the next tenant of the same size pays no syscall and no page
  //     fault. Only non-resident runs get MADV_DONTNEED: a swapped-out page
  //     is the only non-resident page that can still hold data.
  //   kDiscarded — a tenant that left more than kZeroInPlaceLimit resident
  //     has its whole prefix replaced by fresh PROT_NONE anonymous pages.
  //     Idle pooled memory therefore stays bounded by the limit times the
  //     pool caps.
  //
  // The reservation, guard registration and bounds directory are kept on
  // both paths, which is what makes reuse cheaper than a fresh create().
  enum class Recycled : uint8_t { kFailed, kZeroedInPlace, kDiscarded };
  static constexpr uint64_t kZeroInPlaceLimit = 256 * 1024;
  Recycled recycle();

  // reset() re-arms a recycled region for its next request: commits
  // min_pages and installs the new growth ceiling. Only the difference
  // between the kept prefix and min_pages changes protection: a larger
  // request mprotects the extra pages RW, a smaller one replaces the kept
  // tail with fresh PROT_NONE pages, so under vm_guard an access past the
  // new size faults again and grow() back into it reads zeros. Fails
  // (false) if the ceiling would not fit the existing reservation — the
  // caller must then fall back to create(). Memory contents after reset()
  // are all-zero.
  bool reset(uint32_t min_pages, uint32_t max_pages);

  uint64_t reserved_bytes() const { return reserved_bytes_; }

  // Software check used by the interpreter tiers (AoT code inlines its own
  // per-strategy checks).
  bool in_bounds(uint64_t addr, uint32_t width) const {
    return addr + width <= size_bytes_;
  }

  BoundsDirEntry* bounds_dir() { return bounds_dir_.get(); }

 private:
  void release();
  // Zeroes the committed prefix in place (see recycle()); false when more
  // than kZeroInPlaceLimit is resident or a syscall failed.
  bool zero_in_place();
  void set_bounds_dir();

  BoundsStrategy strategy_ = BoundsStrategy::kSoftware;
  uint8_t* base_ = nullptr;
  uint64_t size_bytes_ = 0;
  uint64_t reserved_bytes_ = 0;
  // Zeroed RW prefix a recycled (quiesced) region keeps for its next
  // tenant; 0 while the region is in use.
  uint64_t kept_bytes_ = 0;
  uint32_t max_pages_ = 0;
  int guard_id_ = -1;
  std::unique_ptr<BoundsDirEntry[]> bounds_dir_;
};

}  // namespace sledge::engine
