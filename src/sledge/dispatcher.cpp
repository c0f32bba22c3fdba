#include "sledge/dispatcher.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

#include "sledge/deque.hpp"

namespace sledge::runtime {

const char* to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::kWorkStealing: return "work_stealing";
    case DispatchPolicy::kGlobalLock: return "global_lock";
    case DispatchPolicy::kPerWorker: return "per_worker";
    case DispatchPolicy::kGlobalEdf: return "global_edf";
    case DispatchPolicy::kShardedByModule: return "sharded_module";
  }
  return "?";
}

namespace {

// A mutex-protected FIFO with a lock-free size probe, so a fetch that
// finds it empty pays one acquire load and no lock.
class LockedFifo {
 public:
  void push_batch(Sandbox* const* sbs, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    q_.insert(q_.end(), sbs, sbs + n);
    count_.fetch_add(static_cast<int64_t>(n), std::memory_order_release);
  }
  void push(Sandbox* sb) { push_batch(&sb, 1); }
  bool pop(Sandbox** out) {
    if (count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (q_.empty()) return false;
    *out = q_.front();
    q_.pop_front();
    count_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  int64_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  std::mutex mu_;
  std::deque<Sandbox*> q_;
  std::atomic<int64_t> count_{0};
};

// The paper's design: listener shards push onto the owner end of one
// Chase–Lev deque and idle workers steal from it. sb_invoke children,
// admitted from worker threads that must not touch the owner end, enter
// through a mutexed side queue or, with a locality hint, through the
// hinted worker's own queue. fetch() order: own hinted queue, side queue,
// steal.
class WorkStealingDispatcher : public Dispatcher {
 public:
  // Hinted children beyond this depth fall back to the side queue: the
  // worker is busier than the caller's slack check believed.
  static constexpr int64_t kHintCap = 16;

  explicit WorkStealingDispatcher(int workers) : hinted_(workers) {}

  DispatchPolicy kind() const override {
    return DispatchPolicy::kWorkStealing;
  }
  void push(Sandbox* sb) override { push_batch(&sb, 1); }
  void push_batch(Sandbox* const* sbs, size_t n) override {
    // One owner-end session per batch: push_mu_ serializes the N listener
    // shards (the deque's owner ops assume one thread at a time; the mutex
    // gives successive owners a happens-before edge, which is all the
    // algorithm needs). Steals stay lock-free.
    std::lock_guard<std::mutex> lock(push_mu_);
    for (size_t i = 0; i < n; ++i) deque_.push(sbs[i]);
  }
  void inject(Sandbox* sb, int worker_hint) override {
    // Locality: land the child on its parent's worker so it runs with warm
    // caches and a zero-hop join wake. Advisory — see kHintCap.
    if (worker_hint >= 0 && worker_hint < static_cast<int>(hinted_.size()) &&
        hinted_[worker_hint].size() < kHintCap) {
      hinted_[worker_hint].push(sb);
      return;
    }
    inject_q_.push(sb);
  }
  bool fetch(int worker_index, Sandbox** out) override {
    // Children hinted here were aimed at this worker specifically; serving
    // them before global work keeps the locality the hint paid for.
    if (worker_index >= 0 && worker_index < static_cast<int>(hinted_.size()) &&
        hinted_[worker_index].pop(out)) {
      return true;
    }
    return inject_q_.pop(out) || deque_.steal(out);
  }
  bool has_work_for(int worker_index) const override {
    return hinted_[worker_index].size() > 0 || inject_q_.size() > 0 ||
           deque_.size_estimate() > 0;
  }
  int64_t backlog_estimate() const override {
    int64_t total = inject_q_.size() + deque_.size_estimate();
    for (const LockedFifo& q : hinted_) total += q.size();
    return total;
  }

 private:
  std::mutex push_mu_;
  WorkStealingDeque<Sandbox*> deque_;
  LockedFifo inject_q_;
  std::vector<LockedFifo> hinted_;
};

// Queue ablation: one mutexed FIFO every worker pops from.
class GlobalLockDispatcher : public Dispatcher {
 public:
  DispatchPolicy kind() const override { return DispatchPolicy::kGlobalLock; }
  void push(Sandbox* sb) override { q_.push(sb); }
  void push_batch(Sandbox* const* sbs, size_t n) override {
    q_.push_batch(sbs, n);
  }
  void inject(Sandbox* sb, int) override { q_.push(sb); }
  bool fetch(int, Sandbox** out) override { return q_.pop(out); }
  bool has_work_for(int) const override { return q_.size() > 0; }
  int64_t backlog_estimate() const override { return q_.size(); }

 private:
  LockedFifo q_;
};

// Per-worker FIFOs with no stealing, so a worker only ever serves its own
// shard — not work-conserving (an idle worker never helps a loaded one).
// Two placement rules:
//   kPerWorker       — round-robin cursor (the queue ablation);
//   kShardedByModule — hash of the target module (Sandbox::user_tag, set
//                      before push/inject), so a module's requests always
//                      run on the same core: instruction/data locality and
//                      hard per-module isolation.
class PerWorkerFifoDispatcher : public Dispatcher {
 public:
  PerWorkerFifoDispatcher(DispatchPolicy kind, int workers)
      : kind_(kind), shards_(workers) {}

  DispatchPolicy kind() const override { return kind_; }
  void push(Sandbox* sb) override { shards_[shard_of(sb)].push(sb); }
  void inject(Sandbox* sb, int) override { push(sb); }
  bool fetch(int worker_index, Sandbox** out) override {
    if (worker_index < 0 || worker_index >= static_cast<int>(shards_.size())) {
      return false;
    }
    return shards_[worker_index].pop(out);
  }
  bool has_work_for(int worker_index) const override {
    return shards_[worker_index].size() > 0;
  }
  int64_t backlog_estimate() const override {
    int64_t total = 0;
    for (const LockedFifo& q : shards_) total += q.size();
    return total;
  }

 private:
  size_t shard_of(const Sandbox* sb) {
    uint64_t z;
    if (kind_ == DispatchPolicy::kPerWorker) {
      z = rr_cursor_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Mix the pointer bits (splitmix-style) so allocation alignment does
      // not funnel every module onto shard 0.
      z = reinterpret_cast<uintptr_t>(sb->user_tag);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
    }
    return static_cast<size_t>(z % shards_.size());
  }

  DispatchPolicy kind_;
  std::vector<LockedFifo> shards_;
  std::atomic<uint64_t> rr_cursor_{0};
};

// Centralized deadline-sorted admit order: one mutexed min-heap on the
// absolute wall-clock deadline stamped at admission. Every fetch — from any
// worker — pops the globally earliest deadline, so under bursts the tightest
// requests reach a core first regardless of arrival order. Deadline-less
// requests sort last; equal deadlines break FIFO (seq).
class GlobalEdfDispatcher : public Dispatcher {
 public:
  DispatchPolicy kind() const override { return DispatchPolicy::kGlobalEdf; }

  void push(Sandbox* sb) override { place(sb); }
  void inject(Sandbox* sb, int) override { place(sb); }

  bool fetch(int, Sandbox** out) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    *out = heap_.back().sb;
    heap_.pop_back();
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  bool has_work_for(int) const override { return backlog_estimate() > 0; }
  int64_t backlog_estimate() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t deadline;  // absolute ns; UINT64_MAX = no deadline
    uint64_t seq;       // FIFO tie-break
    Sandbox* sb;
  };
  // Min-heap on (deadline, seq) via std::*_heap's max-heap comparator.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  void place(Sandbox* sb) {
    uint64_t deadline = sb->deadline_at_ns();
    std::lock_guard<std::mutex> lock(mu_);
    heap_.push_back(Entry{deadline == 0 ? UINT64_MAX : deadline, seq_++, sb});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex mu_;
  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
  std::atomic<int64_t> size_{0};
};

}  // namespace

std::unique_ptr<Dispatcher> Dispatcher::make(DispatchPolicy policy,
                                             int workers) {
  switch (policy) {
    case DispatchPolicy::kGlobalLock:
      return std::make_unique<GlobalLockDispatcher>();
    case DispatchPolicy::kPerWorker:
    case DispatchPolicy::kShardedByModule:
      return std::make_unique<PerWorkerFifoDispatcher>(policy, workers);
    case DispatchPolicy::kGlobalEdf:
      return std::make_unique<GlobalEdfDispatcher>();
    case DispatchPolicy::kWorkStealing:
      break;
  }
  return std::make_unique<WorkStealingDispatcher>(workers);
}

}  // namespace sledge::runtime
