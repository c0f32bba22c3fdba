#include "engine/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "engine/trap.hpp"

namespace sledge::engine {

namespace {
// vm_guard reserves the whole 32-bit index space plus slack so that
// `base + u32_index + static_offset` always lands inside the reservation.
constexpr uint64_t kGuardSlack = 16ull << 20;  // covers static offsets
constexpr uint64_t kGuardReservation = (4ull << 30) + kGuardSlack;
constexpr int kReserveFlags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;

// Replaces [p, p + len) with fresh PROT_NONE anonymous pages: one syscall
// that both drops whatever the range held and makes it inaccessible again.
bool decommit(uint8_t* p, uint64_t len) {
  return len == 0 ||
         ::mmap(p, len, PROT_NONE, kReserveFlags | MAP_FIXED, -1, 0) !=
             MAP_FAILED;
}
}  // namespace

const char* to_string(BoundsStrategy s) {
  switch (s) {
    case BoundsStrategy::kNone: return "none";
    case BoundsStrategy::kSoftware: return "software";
    case BoundsStrategy::kMpxSim: return "mpx_sim";
    case BoundsStrategy::kVmGuard: return "vm_guard";
  }
  return "?";
}

uint64_t LinearMemory::reservation_bytes(BoundsStrategy strategy,
                                         uint32_t max_pages) {
  uint64_t bytes = strategy == BoundsStrategy::kVmGuard
                       ? kGuardReservation
                       : static_cast<uint64_t>(max_pages) * wasm::kPageSize;
  return bytes == 0 ? wasm::kPageSize : bytes;
}

LinearMemory::~LinearMemory() { release(); }

LinearMemory& LinearMemory::operator=(LinearMemory&& o) noexcept {
  if (this != &o) {
    release();
    strategy_ = o.strategy_;
    base_ = std::exchange(o.base_, nullptr);
    size_bytes_ = std::exchange(o.size_bytes_, 0);
    reserved_bytes_ = std::exchange(o.reserved_bytes_, 0);
    kept_bytes_ = std::exchange(o.kept_bytes_, 0);
    max_pages_ = o.max_pages_;
    guard_id_ = std::exchange(o.guard_id_, -1);
    bounds_dir_ = std::move(o.bounds_dir_);
  }
  return *this;
}

void LinearMemory::release() {
  if (guard_id_ >= 0) {
    unregister_guard_region(guard_id_);
    guard_id_ = -1;
  }
  if (base_) {
    ::munmap(base_, reserved_bytes_);
    base_ = nullptr;
  }
  size_bytes_ = 0;
  reserved_bytes_ = 0;
  kept_bytes_ = 0;
}

void LinearMemory::set_bounds_dir() {
  if (!bounds_dir_) return;
  for (int i = 0; i < kBoundsDirEntries; ++i) {
    bounds_dir_[i] = {0, size_bytes_};
  }
}

Result<LinearMemory> LinearMemory::create(BoundsStrategy strategy,
                                          uint32_t min_pages,
                                          uint32_t max_pages) {
  if (max_pages < min_pages) max_pages = min_pages;
  if (max_pages > wasm::kMaxPages) {
    return Result<LinearMemory>::error("memory max exceeds 4GiB");
  }

  LinearMemory mem;
  mem.strategy_ = strategy;
  mem.max_pages_ = max_pages;
  mem.reserved_bytes_ = reservation_bytes(strategy, max_pages);

  void* p = ::mmap(nullptr, mem.reserved_bytes_, PROT_NONE, kReserveFlags,
                   -1, 0);
  if (p == MAP_FAILED) {
    return Result<LinearMemory>::error("mmap reservation failed");
  }
  mem.base_ = static_cast<uint8_t*>(p);
  mem.size_bytes_ = static_cast<uint64_t>(min_pages) * wasm::kPageSize;

  if (mem.size_bytes_ > 0 &&
      ::mprotect(mem.base_, mem.size_bytes_, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(p, mem.reserved_bytes_);
    mem.base_ = nullptr;
    return Result<LinearMemory>::error("mprotect commit failed");
  }

  if (strategy == BoundsStrategy::kVmGuard) {
    install_trap_signal_handler();
    mem.guard_id_ = register_guard_region(mem.base_, mem.reserved_bytes_);
  }

  if (strategy == BoundsStrategy::kMpxSim) {
    mem.bounds_dir_ = std::make_unique<BoundsDirEntry[]>(kBoundsDirEntries);
    mem.set_bounds_dir();
  }

  return Result<LinearMemory>(std::move(mem));
}

bool LinearMemory::zero_in_place() {
  static const uint64_t os_page =
      static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  constexpr uint64_t kChunkPages = 1024;  // mincore vector on the stack
  unsigned char vec[kChunkPages];
  uint64_t resident = 0;
  for (uint64_t off = 0; off < size_bytes_;) {
    const uint64_t len = std::min(size_bytes_ - off, kChunkPages * os_page);
    if (::mincore(base_ + off, len, vec) != 0) return false;
    const uint64_t pages = len / os_page;
    for (uint64_t i = 0; i < pages;) {
      const bool in_core = vec[i] & 1;
      uint64_t j = i + 1;
      while (j < pages && (vec[j] & 1) == in_core) ++j;
      uint8_t* run = base_ + off + i * os_page;
      const uint64_t run_len = (j - i) * os_page;
      if (!in_core) {
        // Non-resident private anonymous pages are untouched (zero already)
        // or swapped out; discarding drops the swap copy.
        if (::madvise(run, run_len, MADV_DONTNEED) != 0) return false;
      } else {
        resident += run_len;
        if (resident > kZeroInPlaceLimit) return false;
        std::memset(run, 0, run_len);
      }
      i = j;
    }
    off += len;
  }
  return true;
}

LinearMemory::Recycled LinearMemory::recycle() {
  if (!base_) return Recycled::kFailed;
  if (zero_in_place()) {
    kept_bytes_ = size_bytes_;
    size_bytes_ = 0;
    return Recycled::kZeroedInPlace;
  }
  if (!decommit(base_, size_bytes_)) return Recycled::kFailed;
  size_bytes_ = 0;
  kept_bytes_ = 0;
  return Recycled::kDiscarded;
}

bool LinearMemory::reset(uint32_t min_pages, uint32_t max_pages) {
  if (!base_ || size_bytes_ != 0) return false;  // must be recycled first
  if (max_pages < min_pages) max_pages = min_pages;
  if (static_cast<uint64_t>(max_pages) * wasm::kPageSize > reserved_bytes_ ||
      max_pages > wasm::kMaxPages) {
    return false;
  }
  const uint64_t bytes = static_cast<uint64_t>(min_pages) * wasm::kPageSize;
  if (bytes > kept_bytes_) {
    if (::mprotect(base_ + kept_bytes_, bytes - kept_bytes_,
                   PROT_READ | PROT_WRITE) != 0) {
      return false;
    }
  } else if (!decommit(base_ + bytes, kept_bytes_ - bytes)) {
    return false;
  }
  kept_bytes_ = 0;
  size_bytes_ = bytes;
  max_pages_ = max_pages;
  set_bounds_dir();
  return true;
}

int32_t LinearMemory::grow(uint32_t delta_pages) {
  uint32_t old_pages = pages();
  uint64_t new_pages = static_cast<uint64_t>(old_pages) + delta_pages;
  if (new_pages > max_pages_) return -1;
  uint64_t new_size = new_pages * wasm::kPageSize;
  if (new_size > reserved_bytes_) return -1;
  if (delta_pages > 0) {
    if (::mprotect(base_ + size_bytes_, new_size - size_bytes_,
                   PROT_READ | PROT_WRITE) != 0) {
      return -1;
    }
  }
  size_bytes_ = new_size;
  set_bounds_dir();
  return static_cast<int32_t>(old_pages);
}

}  // namespace sledge::engine
