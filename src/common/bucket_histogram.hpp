// Fixed-memory, lock-free latency histogram for the runtime's live metrics
// (HdrHistogram-style log-linear buckets): 1153 relaxed atomic counters
// (~9 KiB) cover 0 .. 2^40 ns (~18 min); larger values land in the top
// bucket. Zero has its own bucket, 1..64 ns one per value, and each power
// of two above is split into 32 equal sub-buckets. Buckets are (lower,
// upper], so every power of two is an upper edge and "samples <= 2^k ns" is
// an exact count (the Prometheus `le` series).
//
// A quantile is the midpoint of the bucket holding the nearest-rank sample,
// clamped to [min, max]. A bucket is at most 1/32 as wide as its lower
// edge, so the relative error is at most 1/64 (zero below 64 ns); count,
// sum, min and max are exact. LatencyHistogram (histogram.hpp) keeps every
// sample and stays the exact oracle for tests and benches.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace sledge {

class BucketHistogram {
 public:
  static constexpr unsigned kSubBits = 5;  // 32 sub-buckets per power of two
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxBits = 40;
  static constexpr uint64_t kMaxValue = uint64_t{1} << kMaxBits;
  // Zero, 1..64, then 32 buckets for each power of two 2^6 .. 2^39.
  static constexpr size_t kBuckets = 1 + 2 * kSub + (kMaxBits - 6) * kSub;
  // Cumulative counts kept by summary(): <= 2^10, 2^11, ..., 2^40 ns.
  static constexpr unsigned kFirstEdgeBits = 10;
  static constexpr size_t kEdges = kMaxBits - kFirstEdgeBits + 1;

  static constexpr size_t index(uint64_t v) {
    if (v == 0) return 0;
    const uint64_t x = std::min(v, kMaxValue) - 1;
    if (x < 2 * kSub) return 1 + x;
    const unsigned e = 63 - static_cast<unsigned>(std::countl_zero(x));
    return 1 + 2 * kSub + (e - 6) * kSub + ((x >> (e - kSubBits)) - kSub);
  }
  // Inclusive upper edge of bucket i; bucket i holds (upper(i-1), upper(i)].
  static constexpr uint64_t upper(size_t i) {
    if (i <= 2 * kSub) return i;
    const size_t j = i - 1 - 2 * kSub;
    const unsigned e = 6 + static_cast<unsigned>(j / kSub);
    const uint64_t width = uint64_t{1} << (e - kSubBits);
    return (uint64_t{1} << e) + (j % kSub + 1) * width;
  }

  // Never allocates or blocks; safe from any number of threads.
  void record(uint64_t ns) {
    buckets_[index(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t lo = min_.load(std::memory_order_relaxed);
    while (ns < lo &&
           !min_.compare_exchange_weak(lo, ns, std::memory_order_relaxed)) {
    }
    uint64_t hi = max_.load(std::memory_order_relaxed);
    while (ns > hi &&
           !max_.compare_exchange_weak(hi, ns, std::memory_order_relaxed)) {
    }
  }

  // Point-in-time digest in one O(kBuckets) pass. `count` is the bucket
  // total read in this pass, and the quantiles and edge counts rank against
  // it; under concurrent record()s, sum/min/max may be one sample ahead of
  // or behind it.
  struct Summary {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t min_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p90_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t max_ns = 0;
    // le_count[k] = samples <= 2^(kFirstEdgeBits + k) ns.
    std::array<uint64_t, kEdges> le_count{};

    double mean_ns() const {
      return count ? static_cast<double>(sum_ns) / static_cast<double>(count)
                   : 0.0;
    }
  };

  Summary summary() const {
    std::array<uint64_t, kBuckets> b;
    Summary s;
    for (size_t i = 0; i < kBuckets; ++i) {
      b[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += b[i];
    }
    if (s.count == 0) return s;
    s.sum_ns = sum_.load(std::memory_order_relaxed);
    s.min_ns = min_.load(std::memory_order_relaxed);
    s.max_ns = max_.load(std::memory_order_relaxed);
    if (s.min_ns > s.max_ns) s.min_ns = s.max_ns = 0;  // racing first record

    const double qs[] = {0.5, 0.9, 0.99};
    uint64_t* out[] = {&s.p50_ns, &s.p90_ns, &s.p99_ns};
    size_t q = 0, edge = 0;
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      cum += b[i];
      for (; q < 3 && cum >= nearest_rank(qs[q], s.count); ++q) {
        const uint64_t mid = i == 0 ? 0 : (upper(i - 1) + 1 + upper(i)) / 2;
        *out[q] = std::clamp(mid, s.min_ns, s.max_ns);
      }
      if (edge < kEdges && i == index(uint64_t{1} << (kFirstEdgeBits + edge))) {
        s.le_count[edge++] = cum;
      }
    }
    return s;
  }

 private:
  // 1-based nearest rank: the smallest r with r >= q * n.
  static uint64_t nearest_rank(double q, uint64_t n) {
    const auto r = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<uint64_t>(r, 1, n);
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace sledge
