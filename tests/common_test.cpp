// Unit tests for the common substrate: Result/Status, JSON, the exact and
// the bucketed histograms, RNG, file utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/bucket_histogram.hpp"
#include "common/file_util.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace sledge {
namespace {

TEST(StatusTest, OkAndError) {
  Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  Status err = Status::error("boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  Result<int> e = Result<int>::error("nope");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error_message(), "nope");
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = r.take();
  EXPECT_EQ(s, "payload");
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->is_null());
  EXPECT_EQ(json::parse("true")->as_bool(), true);
  EXPECT_EQ(json::parse("42")->as_int(), 42);
  EXPECT_DOUBLE_EQ(json::parse("-2.5e2")->as_number(), -250.0);
  EXPECT_EQ(json::parse("\"hi\\nthere\"")->as_string(), "hi\nthere");
}

TEST(JsonTest, ParsesNested) {
  auto doc = json::parse(R"({"modules":[{"name":"ping","port":8080}],"n":3})");
  ASSERT_TRUE(doc.ok());
  const json::Value& v = *doc;
  EXPECT_EQ(v["n"].as_int(), 3);
  ASSERT_EQ(v["modules"].as_array().size(), 1u);
  EXPECT_EQ(v["modules"].as_array()[0]["name"].as_string(), "ping");
  EXPECT_EQ(v["modules"].as_array()[0]["port"].as_int(), 8080);
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(json::parse("").ok());
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("{\"a\":}").ok());
  EXPECT_FALSE(json::parse("42 43").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json::parse(deep).ok());
}

TEST(JsonTest, DumpRoundTrips) {
  auto doc = json::parse(R"({"a":[1,2.5,"x"],"b":{"c":true}})");
  ASSERT_TRUE(doc.ok());
  auto again = json::parse(doc->dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->dump(), doc->dump());
}

TEST(HistogramTest, PercentilesExact) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 100; ++i) h.record(i * 1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean_ns(), 50500.0, 1.0);
  EXPECT_EQ(h.percentile_ns(0.0), 1000u);
  EXPECT_EQ(h.percentile_ns(1.0), 100000u);
  EXPECT_NEAR(static_cast<double>(h.percentile_ns(0.5)), 50000.0, 1000.0);
  EXPECT_NEAR(static_cast<double>(h.percentile_ns(0.99)), 99000.0, 1000.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_ns(), 20.0);
}

TEST(HistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(0.99), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(HistogramTest, EmptyEveryAccessorIsZero) {
  LatencyHistogram h;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile_ns(q), 0u) << "q=" << q;
  }
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99_ms(), 0.0);
}

TEST(HistogramTest, SingleSampleIsEveryStatistic) {
  LatencyHistogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile_ns(q), 12345u) << "q=" << q;
  }
  EXPECT_EQ(h.min_ns(), 12345u);
  EXPECT_EQ(h.max_ns(), 12345u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 12345.0);
}

TEST(HistogramTest, MergeDisjointSetsPreservesOrderStatistics) {
  LatencyHistogram lo, hi;
  for (uint64_t i = 1; i <= 50; ++i) lo.record(i);           // 1..50
  for (uint64_t i = 1001; i <= 1050; ++i) hi.record(i);      // 1001..1050
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 100u);
  EXPECT_EQ(lo.percentile_ns(0.0), 1u);
  EXPECT_EQ(lo.percentile_ns(1.0), 1050u);
  // The median straddles the gap between the two disjoint ranges.
  uint64_t med = lo.percentile_ns(0.5);
  EXPECT_TRUE(med == 50u || med == 1001u) << med;
  EXPECT_DOUBLE_EQ(lo.mean_ns(), (25.5 * 50 + 1025.5 * 50) / 100.0);
  // Merging an empty histogram is a no-op.
  LatencyHistogram empty;
  lo.merge(empty);
  EXPECT_EQ(lo.count(), 100u);
}

TEST(HistogramTest, ExtremeQuantilesAreExactOrderStatistics) {
  // Unsorted insertion order: q=0 / q=1 must still be exact min / max.
  LatencyHistogram h;
  for (uint64_t v : {700u, 30u, 999u, 4u, 512u}) h.record(v);
  EXPECT_EQ(h.percentile_ns(0.0), 4u);
  EXPECT_EQ(h.percentile_ns(1.0), 999u);
  EXPECT_EQ(h.percentile_ns(0.0), h.min_ns());
  EXPECT_EQ(h.percentile_ns(1.0), h.max_ns());
}

// ---- BucketHistogram: fixed-memory quantiles against the exact oracle ----

// Draws a lognormal sample (Box–Muller) in ns.
uint64_t lognormal_ns(Rng& rng, double mu, double sigma) {
  const double u1 = 1.0 - rng.next_double();  // (0, 1]
  const double u2 = rng.next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2 * M_PI * u2);
  return static_cast<uint64_t>(std::exp(mu + sigma * z));
}

// Resident set in KiB, from smaps_rollup: the kernel sums it by walking the
// page tables, so it is exact. VmRSS in /proc/self/status comes from per-CPU
// batched counters and can lag or jump by tens of pages between two reads.
long rss_kb() {
  auto rollup = read_file("/proc/self/smaps_rollup");
  if (!rollup.ok()) return -1;
  size_t pos = rollup->find("\nRss:");
  return pos == std::string::npos ? -1 : std::atol(rollup->c_str() + pos + 5);
}

TEST(BucketHistogramTest, SeededQuantilesWithinBoundOfExact) {
  struct Input {
    const char* name;
    uint64_t (*draw)(Rng&);
  };
  const Input inputs[] = {
      {"lognormal",
       [](Rng& r) { return lognormal_ns(r, std::log(50e3), 1.0); }},
      {"uniform", [](Rng& r) { return uint64_t{r.below(10'000'000)}; }},
      {"constant", [](Rng&) { return uint64_t{123'457}; }},
      {"bimodal",
       [](Rng& r) {
         return r.chance(0.9) ? 20'000 + uint64_t{r.below(2'000)}
                              : 5'000'000 + uint64_t{r.below(500'000)};
       }},
      {"sub64", [](Rng& r) { return uint64_t{r.below(64)}; }},
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Input& in : inputs) {
      Rng rng(seed * 7919 + in.name[0]);
      const size_t n = seed <= 2 ? seed * 2 - 1 : 1 + rng.below(30'000);
      BucketHistogram bucketed;
      LatencyHistogram exact;
      std::vector<uint64_t> samples;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = in.draw(rng);
        bucketed.record(v);
        exact.record(v);
        samples.push_back(v);
      }
      SCOPED_TRACE(std::string(in.name) + " seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n));
      const BucketHistogram::Summary b = bucketed.summary();
      const LatencyHistogram::Summary e = exact.summary();
      EXPECT_EQ(b.count, e.count);
      EXPECT_EQ(static_cast<double>(b.sum_ns), e.sum_ns);
      EXPECT_EQ(b.min_ns, e.min_ns);
      EXPECT_EQ(b.max_ns, e.max_ns);
      const std::pair<uint64_t, uint64_t> qs[] = {
          {b.p50_ns, e.p50_ns}, {b.p90_ns, e.p90_ns}, {b.p99_ns, e.p99_ns}};
      for (const auto& [got, want] : qs) {
        if (want < 64) {
          EXPECT_EQ(got, want);
        } else {
          EXPECT_LE(std::fabs(static_cast<double>(got) -
                              static_cast<double>(want)),
                    static_cast<double>(want) / 64.0)
              << got << " vs exact " << want;
        }
      }
      EXPECT_LE(b.min_ns, b.p50_ns);
      EXPECT_LE(b.p50_ns, b.p90_ns);
      EXPECT_LE(b.p90_ns, b.p99_ns);
      EXPECT_LE(b.p99_ns, b.max_ns);
      // Power-of-two edge counts are exact.
      for (size_t k = 0; k < BucketHistogram::kEdges; ++k) {
        const uint64_t edge = uint64_t{1}
                              << (BucketHistogram::kFirstEdgeBits + k);
        const auto le = static_cast<uint64_t>(std::count_if(
            samples.begin(), samples.end(),
            [&](uint64_t v) { return v <= edge; }));
        EXPECT_EQ(b.le_count[k], le) << "le=2^" << k + 10;
      }
    }
  }
}

TEST(BucketHistogramTest, BucketEdgesRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t v = rng.next_u64() >> (24 + rng.below(40));
    const size_t idx = BucketHistogram::index(v);
    ASSERT_LT(idx, BucketHistogram::kBuckets);
    if (v > BucketHistogram::kMaxValue) continue;
    EXPECT_LE(v, BucketHistogram::upper(idx)) << v;
    if (idx > 0) {
      EXPECT_GT(v, BucketHistogram::upper(idx - 1)) << v;
    }
  }
  EXPECT_EQ(BucketHistogram::upper(BucketHistogram::kBuckets - 1),
            BucketHistogram::kMaxValue);
}

TEST(BucketHistogramTest, HugeValuesLandInTopBucketWithExactMax) {
  BucketHistogram h;
  const uint64_t huge = uint64_t{1} << 50;
  EXPECT_EQ(BucketHistogram::index(huge), BucketHistogram::kBuckets - 1);
  EXPECT_EQ(BucketHistogram::index(BucketHistogram::kMaxValue),
            BucketHistogram::kBuckets - 1);
  h.record(1000);
  h.record(huge);
  h.record(huge + 5);
  const BucketHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min_ns, 1000u);
  EXPECT_EQ(s.max_ns, huge + 5);
  EXPECT_EQ(s.sum_ns, 1000 + 2 * huge + 5);
  EXPECT_LE(s.p99_ns, s.max_ns);
  EXPECT_GE(s.p99_ns, BucketHistogram::upper(BucketHistogram::kBuckets - 2));
  EXPECT_EQ(s.le_count[0], 1u);  // only 1000 ns is <= 2^10 ns
}

TEST(BucketHistogramTest, EmptyIsZero) {
  BucketHistogram h;
  const BucketHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_ns, 0u);
  EXPECT_EQ(s.min_ns, 0u);
  EXPECT_EQ(s.p99_ns, 0u);
  EXPECT_EQ(s.max_ns, 0u);
}

TEST(BucketHistogramTest, MillionRecordsKeepResidentMemoryFlat) {
  auto h = std::make_unique<BucketHistogram>();
  Rng rng(3);
  // Warm-up: fault in the code and stack pages the loop and summary() use,
  // so the measurement below sees only memory that grows with records.
  for (int i = 0; i < 1'000; ++i) h->record(lognormal_ns(rng, 10.0, 2.0));
  EXPECT_EQ(h->summary().count, 1'000u);
  // The reader itself runs libc code after the kernel has summed the pages;
  // a first touch of such a page maps a whole 64 KiB fault-around window
  // that only the second reading would see. Read once to map it all.
  ASSERT_GT(rss_kb(), 0);
  const long before = rss_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 1'000'000; ++i) h->record(lognormal_ns(rng, 10.0, 2.0));
  EXPECT_EQ(h->summary().count, 1'001'000u);
  const long after = rss_kb();
  EXPECT_LE(after - before, 64) << "Rss " << before << " -> " << after
                                << " KiB";
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(FileUtilTest, WriteReadRoundTrip) {
  auto dir = make_temp_dir("sledge_test");
  ASSERT_TRUE(dir.ok());
  std::string path = *dir + "/file.bin";
  std::string contents = "hello\0world", full(contents.data(), 11);
  ASSERT_TRUE(write_file(path, full).is_ok());
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(file_size(path), 11);
  auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, full);
  ::unlink(path.c_str());
  ::rmdir(dir->c_str());
}

TEST(FileUtilTest, MissingFileErrors) {
  EXPECT_FALSE(read_file("/nonexistent/really/not/here").ok());
  EXPECT_FALSE(file_exists("/nonexistent/really/not/here"));
  EXPECT_EQ(file_size("/nonexistent/really/not/here"), -1);
}

}  // namespace
}  // namespace sledge
