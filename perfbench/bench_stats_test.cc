// Tests of the benchmark's own arithmetic on small hand-made inputs:
// per-query medians, the tail-percentile rule, coverage matched by group
// key, the batch-growth quarters, the failure share and the Theorem-1
// comparison.

#include "bench_stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using iolap::ErrorEstimate;
using iolap::PartialResult;
using iolap::Schema;
using iolap::Table;
using iolap::Value;
using iolap::ValueType;

Schema KeySumSchema() {
  return Schema({{"key", ValueType::kString}, {"total", ValueType::kDouble}});
}

Table Exact(std::vector<std::pair<std::string, double>> rows) {
  Table table(KeySumSchema());
  for (auto& [key, value] : rows) {
    table.AddRow({Value::String(key), Value::Double(value)});
  }
  return table;
}

// One estimated row: (key, value) with the band [lo, hi].
void AddEstimate(PartialResult* partial, const std::string& key, double value,
                 double lo, double hi) {
  partial->rows.AddRow({Value::String(key), Value::Double(value)});
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = lo;
  est.ci_hi = hi;
  partial->estimates.push_back({est});
}

PartialResult EmptyEstimate() {
  PartialResult partial;
  partial.fraction_processed = 0.05;
  partial.rows = Table(KeySumSchema());
  partial.estimated_columns = {1};
  return partial;
}

TEST(SumOfMediansTest, OneLongPassMovesOnlyItsQuery) {
  // Two queries over three passes; pass 2 is long for query 0 only.
  EXPECT_DOUBLE_EQ(SumOfMedians({{1.0, 1.2, 9.0}, {2.0, 2.5, 2.1}}),
                   1.2 + 2.1);
  EXPECT_DOUBLE_EQ(SumOfMedians({{1.0, 3.0}}), 2.0);
  EXPECT_DOUBLE_EQ(SumOfMedians({}), 0.0);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 90.0), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(SamplesBeyond(0, 90.0), 0u);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(99), 75.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(CoverageTest, MatchesByGroupKeyAndExcludesUnmatchedGroups) {
  PartialResult estimate = EmptyEstimate();
  AddEstimate(&estimate, "a", 10.0, 9.0, 11.0);   // covers 10.5
  AddEstimate(&estimate, "b", 20.0, 19.0, 21.0);  // misses 25
  AddEstimate(&estimate, "z", 5.0, 0.0, 100.0);   // no such group
  // The exact answer lists its groups in another order and has a group
  // the estimate has not seen yet.
  const Table exact = Exact({{"c", 7.0}, {"b", 25.0}, {"a", 10.5}});

  const Coverage coverage = ScoreCoverage(estimate, exact);
  EXPECT_EQ(coverage.cells, 2u);
  EXPECT_EQ(coverage.misses, 1u);
  EXPECT_EQ(coverage.unmatched_groups, 1u);
  EXPECT_DOUBLE_EQ(coverage.MissRate(), 0.5);
  ASSERT_EQ(coverage.halfwidth_rel.size(), 2u);
  EXPECT_DOUBLE_EQ(coverage.halfwidth_rel[0], 1.0 / 10.5);
  EXPECT_DOUBLE_EQ(coverage.halfwidth_rel[1], 1.0 / 25.0);
}

TEST(CoverageTest, AmbiguousKeyIsUnmatched) {
  PartialResult estimate = EmptyEstimate();
  AddEstimate(&estimate, "a", 10.0, 9.0, 11.0);
  const Coverage coverage =
      ScoreCoverage(estimate, Exact({{"a", 10.0}, {"a", 30.0}}));
  EXPECT_EQ(coverage.cells, 0u);
  EXPECT_EQ(coverage.unmatched_groups, 1u);
}

TEST(CoverageTest, ZeroWidthBandAroundExactValueIsNotAMiss) {
  PartialResult estimate = EmptyEstimate();
  AddEstimate(&estimate, "a", 0.1 + 0.2, 0.1 + 0.2, 0.1 + 0.2);
  const Coverage coverage = ScoreCoverage(estimate, Exact({{"a", 0.3}}));
  EXPECT_EQ(coverage.cells, 1u);
  EXPECT_EQ(coverage.misses, 0u);
}

TEST(CoverageTest, MeanOverQueriesSkipsQueriesWithoutCells) {
  Coverage half;
  half.cells = 4;
  half.misses = 2;
  half.halfwidth_rel = {0.1, 0.3};
  Coverage none;
  none.cells = 2;
  none.halfwidth_rel = {0.2};
  Coverage empty;  // every group unmatched
  empty.unmatched_groups = 3;
  EXPECT_DOUBLE_EQ(MeanMissRate({half, none, empty}), 0.25);
  EXPECT_DOUBLE_EQ(MeanMissRate({empty}), 0.0);
  EXPECT_DOUBLE_EQ(MedianHalfwidthRel({half, none, empty}), 0.2);
}

TEST(GrowthTest, LastQuarterOverFirstQuarter) {
  GrowthQuarters quarters;
  quarters.AddRun({1, 1, 2, 2, 3, 3, 4, 4});  // quarter = 2 batches
  EXPECT_DOUBLE_EQ(quarters.Growth(), 4.0);
  quarters.AddRun({2, 2, 2, 2, 2});  // quarter = 1 batch
  // Pooled: first (1 + 1 + 2) / 3, last (4 + 4 + 2) / 3.
  EXPECT_DOUBLE_EQ(quarters.Growth(), 10.0 / 4.0);
  quarters.AddRun({50});  // one batch has no distinct quarters
  EXPECT_DOUBLE_EQ(quarters.Growth(), 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(GrowthQuarters().Growth(), 0.0);
}

TEST(FailureTallyTest, Share) {
  FailureTally tally;
  EXPECT_DOUBLE_EQ(tally.Share(), 0.0);
  tally.Record(true);
  tally.Record(true);
  tally.Record(false);
  tally.Record(true);
  EXPECT_EQ(tally.attempted, 4u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_DOUBLE_EQ(tally.Share(), 0.25);
}

TEST(CompareTablesTest, ToleranceAndMismatches) {
  const Table exact = Exact({{"a", 1000.0}, {"b", 0.5}});
  EXPECT_EQ(CompareTables(Exact({{"a", 1000.0 + 1e-5}, {"b", 0.5}}), exact),
            "");
  EXPECT_NE(CompareTables(Exact({{"a", 1000.1}, {"b", 0.5}}), exact), "");
  EXPECT_NE(CompareTables(Exact({{"a", 1000.0}, {"c", 0.5}}), exact), "");
  EXPECT_NE(CompareTables(Exact({{"a", 1000.0}}), exact), "");
}

}  // namespace
}  // namespace perfbench
