// Exact latency recording for the load generator, the benchmark harnesses
// and tests (the runtime's live metrics use the fixed-memory
// BucketHistogram). Values are nanoseconds; percentiles are exact
// nearest-rank order statistics over a sorted copy rebuilt lazily, so a
// summary that asks for several quantiles sorts once, not once per call.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sledge {

class LatencyHistogram {
 public:
  void record(uint64_t ns) {
    samples_.push_back(ns);
    sum_ns_ += static_cast<double>(ns);
    dirty_ = true;
  }
  void merge(const LatencyHistogram& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ns_ += other.sum_ns_;
    dirty_ = !samples_.empty();
  }
  void clear() {
    samples_.clear();
    sorted_.clear();
    sum_ns_ = 0;
    dirty_ = false;
  }

  size_t count() const { return samples_.size(); }
  double sum_ns() const { return sum_ns_; }

  double mean_ns() const {
    return samples_.empty() ? 0.0
                            : sum_ns_ / static_cast<double>(samples_.size());
  }

  // q in [0,1]; e.g. 0.99 for p99. Exact nearest-rank order statistic:
  // the smallest sample such that at least ceil(q*N) samples are <= it.
  uint64_t percentile_ns(double q) const {
    if (samples_.empty()) return 0;
    ensure_sorted();
    return sorted_[rank_index(q)];
  }

  // Batch form: one sort serves every requested quantile.
  std::vector<uint64_t> percentiles(const std::vector<double>& qs) const {
    std::vector<uint64_t> out(qs.size(), 0);
    if (samples_.empty()) return out;
    ensure_sorted();
    for (size_t i = 0; i < qs.size(); ++i) out[i] = sorted_[rank_index(qs[i])];
    return out;
  }

  uint64_t min_ns() const { return percentile_ns(0.0); }
  uint64_t max_ns() const { return percentile_ns(1.0); }

  // Copyable point-in-time digest (what the admin endpoint serves): taking
  // it under the owner's lock costs one amortized sort, not one per field.
  struct Summary {
    size_t count = 0;
    double sum_ns = 0;
    uint64_t min_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p90_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t max_ns = 0;
  };
  Summary summary() const {
    Summary s;
    s.count = samples_.size();
    s.sum_ns = sum_ns_;
    if (s.count != 0) {
      ensure_sorted();
      s.min_ns = sorted_.front();
      s.p50_ns = sorted_[rank_index(0.5)];
      s.p90_ns = sorted_[rank_index(0.9)];
      s.p99_ns = sorted_[rank_index(0.99)];
      s.max_ns = sorted_.back();
    }
    return s;
  }

  double mean_ms() const { return mean_ns() / 1e6; }
  double p99_ms() const { return static_cast<double>(percentile_ns(0.99)) / 1e6; }
  double mean_us() const { return mean_ns() / 1e3; }
  double p99_us() const { return static_cast<double>(percentile_ns(0.99)) / 1e3; }

 private:
  void ensure_sorted() const {
    if (!dirty_) return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }

  size_t rank_index(double q) const {
    const size_t n = sorted_.size();
    if (q <= 0.0) return 0;
    if (q >= 1.0) return n - 1;
    double rank = std::ceil(q * static_cast<double>(n));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return idx >= n ? n - 1 : idx;
  }

  std::vector<uint64_t> samples_;
  mutable std::vector<uint64_t> sorted_;  // lazily rebuilt percentile cache
  mutable bool dirty_ = false;
  double sum_ns_ = 0;
};

}  // namespace sledge
