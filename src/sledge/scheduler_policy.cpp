#include "sledge/scheduler_policy.hpp"

#include <algorithm>
#include <deque>
#include <vector>

namespace sledge::runtime {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kRoundRobin: return "round_robin";
    case SchedPolicy::kEdf: return "edf";
  }
  return "?";
}

namespace {

// Admission-order queue; a preempted sandbox rotates to the tail.
class RoundRobinPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kRoundRobin; }
  void enqueue(Sandbox* sb) override { queue_.push_back(sb); }
  Sandbox* pick_next() override {
    if (queue_.empty()) return nullptr;
    Sandbox* sb = queue_.front();
    queue_.pop_front();
    return sb;
  }
  size_t size() const override { return queue_.size(); }
  bool admit_eagerly() const override { return false; }

 private:
  std::deque<Sandbox*> queue_;
};

class EdfPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kEdf; }

  void enqueue(Sandbox* sb) override {
    uint64_t deadline = sb->deadline_at_ns();
    heap_.push_back(Entry{deadline == 0 ? UINT64_MAX : deadline, seq_++, sb});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Sandbox* pick_next() override {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Sandbox* sb = heap_.back().sb;
    heap_.pop_back();
    return sb;
  }

  size_t size() const override { return heap_.size(); }
  bool admit_eagerly() const override { return true; }

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

  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
};

}  // namespace

std::unique_ptr<SchedulerPolicy> SchedulerPolicy::make(SchedPolicy kind) {
  if (kind == SchedPolicy::kEdf) return std::make_unique<EdfPolicy>();
  return std::make_unique<RoundRobinPolicy>();
}

}  // namespace sledge::runtime
