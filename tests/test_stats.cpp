// Unit tests for src/stats: histogram percentiles, run summaries, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "src/platform/rng.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/table.hpp"

namespace lockin {
namespace {

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-bucketed: percentile returns the bucket lower bound, within the
  // configured ~3% relative error.
  EXPECT_NEAR(static_cast<double>(h.P50()), 1000.0, 1000.0 * 0.04);
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below the sub-bucket count land in the linear region.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_EQ(h.Percentile(1.0), 31u);
}

TEST(Histogram, PercentilesOfUniformRange) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  EXPECT_NEAR(static_cast<double>(h.P50()), 5000.0, 5000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.P95()), 9500.0, 9500.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.P99()), 9900.0, 9900.0 * 0.05);
}

TEST(Histogram, RelativeErrorBounded) {
  LatencyHistogram h;
  for (std::uint64_t v : {7ULL, 123ULL, 4096ULL, 70001ULL, 12345678ULL, 999999999999ULL}) {
    h.Reset();
    h.Record(v);
    const double p = static_cast<double>(h.Percentile(0.5));
    EXPECT_LE(p, static_cast<double>(v));
    EXPECT_GE(p, static_cast<double>(v) * 0.96) << v;
  }
}

TEST(Histogram, MeanIsExact) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(300);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(Histogram, RecordNWeightsCount) {
  LatencyHistogram h;
  h.RecordN(10, 99);
  h.RecordN(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.P95(), 1000u);           // the heavy mass dominates p95
  EXPECT_GT(h.Percentile(0.999), 900000u);  // tail sees the outlier
}

TEST(Histogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(100);
    b.Record(10000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 10000u);
  EXPECT_NEAR(static_cast<double>(a.P50()), 100.0, 10000.0 * 0.04);
}

TEST(Histogram, MergeWithMismatchedEmptiness) {
  // Empty absorbing non-empty: adopts the other's extremes.
  LatencyHistogram empty_side;
  LatencyHistogram full;
  full.Record(100);
  full.Record(200);
  empty_side.Merge(full);
  EXPECT_EQ(empty_side.count(), 2u);
  EXPECT_EQ(empty_side.min(), 100u);
  EXPECT_EQ(empty_side.max(), 200u);

  // Non-empty absorbing empty: min/max/count must be untouched (an empty
  // histogram's sentinel min is ~0ULL and must not leak in).
  LatencyHistogram full2;
  full2.Record(100);
  full2.Record(200);
  LatencyHistogram empty2;
  full2.Merge(empty2);
  EXPECT_EQ(full2.count(), 2u);
  EXPECT_EQ(full2.min(), 100u);
  EXPECT_EQ(full2.max(), 200u);

  // Empty absorbing empty stays empty.
  LatencyHistogram a;
  LatencyHistogram b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

TEST(Histogram, PercentileExtremesOnSingleBucketData) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(1000);
  h.Record(1000);
  EXPECT_EQ(h.Percentile(0.0), h.min());
  EXPECT_EQ(h.Percentile(0.0), 1000u);
  EXPECT_EQ(h.Percentile(1.0), h.max());
  EXPECT_EQ(h.Percentile(1.0), 1000u);
  // Out-of-range quantiles clamp to the extremes.
  EXPECT_EQ(h.Percentile(-0.5), 1000u);
  EXPECT_EQ(h.Percentile(1.5), 1000u);
}

TEST(Histogram, BatchedRecordMatchesScalarPath) {
  // Deterministic pseudo-random values spanning the linear and log regions.
  std::uint64_t state = 42;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(SplitMix64(state) % 5000000);
  }
  LatencyHistogram scalar;
  for (const std::uint64_t v : values) {
    scalar.Record(v);
  }
  LatencyHistogram batched;
  // Uneven chunks exercise the flush boundaries.
  std::size_t offset = 0;
  for (const std::size_t chunk : {7u, 64u, 1u, 500u}) {
    batched.RecordBatch(values.data() + offset, chunk);
    offset += chunk;
  }
  batched.RecordBatch(values.data() + offset, values.size() - offset);
  batched.RecordBatch(values.data(), 0);  // empty batch is a no-op

  EXPECT_EQ(batched.count(), scalar.count());
  EXPECT_EQ(batched.min(), scalar.min());
  EXPECT_EQ(batched.max(), scalar.max());
  EXPECT_DOUBLE_EQ(batched.Mean(), scalar.Mean());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(batched.Percentile(q), scalar.Percentile(q)) << q;
  }
}

TEST(Histogram, ResetClears) {
  LatencyHistogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, ToStringMentionsPercentiles) {
  LatencyHistogram h;
  h.Record(5);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("p95"), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

TEST(Summary, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(Summary, Mean) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
}

TEST(Summary, PearsonCorrelation) {
  // Perfectly correlated.
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-9);
  // Perfectly anti-correlated.
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-9);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1}), 0.0);
}

TEST(Table, PrintsHeaderAndRows) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddNumericRow("y", {2.5}, 1);
  std::ostringstream out;
  table.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, CsvFormat) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Table, JsonQuotesStringsAndUnquotesNumbers) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1.5"});
  std::ostringstream out;
  table.PrintJson(out);
  EXPECT_EQ(out.str(), "[\n  {\"name\": \"x\", \"value\": 1.5}\n]\n");
}

TEST(Table, JsonEscapesControlCharacters) {
  // Control characters must round-trip as proper JSON escapes, not be
  // flattened to spaces (which silently corrupted cell contents).
  TextTable table({"cell"});
  table.AddRow({std::string("a\nb\tc\rd\be\ff") + '\x01' + "g"});
  std::ostringstream out;
  table.PrintJson(out);
  EXPECT_NE(out.str().find("\"a\\nb\\tc\\rd\\be\\ff\\u0001g\""), std::string::npos)
      << out.str();
}

TEST(Table, JsonEscapesQuotesAndBackslashes) {
  TextTable table({"cell"});
  table.AddRow({"say \"hi\" \\ bye"});
  std::ostringstream out;
  table.PrintJson(out);
  EXPECT_NE(out.str().find("\"say \\\"hi\\\" \\\\ bye\""), std::string::npos) << out.str();
}

TEST(Table, JsonDeduplicatesRepeatedHeaders) {
  TextTable table({"paper", "paper"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintJson(out);
  EXPECT_NE(out.str().find("\"paper_2\": 2"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace lockin
