#ifndef IOLAP_PERFBENCH_BENCH_STATS_H_
#define IOLAP_PERFBENCH_BENCH_STATS_H_

// The benchmark's own arithmetic, kept free of timing and I/O so that
// bench_stats_test.cc can check it on hand-made inputs: order statistics,
// the tail-percentile rule, fig8's batch-growth quarters, error-bar
// coverage against the exact answer, the Theorem-1 table comparison and
// the failure tally.

#include <cstddef>
#include <string>
#include <vector>

#include "core/table.h"
#include "iolap/query_controller.h"

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Each row's median, summed over rows: `rows[q]` holds query q's time in
/// every pass. A pass in which one query runs long moves only that query's
/// median.
double SumOfMedians(const std::vector<std::vector<double>>& rows);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
/// sorted samples (p in (0, 100]). 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank `p`th percentile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least `min_beyond` of `n` samples above it; 0 when none has.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Running sums behind `batch_growth`: every run adds the mean-interval
/// inputs of its first and last quarter of batches (a quarter is at least
/// one batch; a run needs two batches to have distinct quarters).
struct GrowthQuarters {
  double first_sum = 0.0;
  size_t first_count = 0;
  double last_sum = 0.0;
  size_t last_count = 0;

  void AddRun(const std::vector<double>& batch_intervals);
  /// Mean of the last-quarter intervals over the mean of the first-quarter
  /// intervals; 0 when no run contributed.
  double Growth() const;
};

/// Error-bar honesty of one estimated answer against the exact answer.
/// Rows are matched on their group key — the columns the answer does not
/// estimate. Only matched rows are scored; rows whose key is absent from
/// the exact answer (or not unique there) count as unmatched groups.
struct Coverage {
  /// Estimated cells scored (matched row, non-null exact value).
  size_t cells = 0;
  /// Scored cells whose [ci_lo, ci_hi] does not contain the exact value.
  size_t misses = 0;
  size_t unmatched_groups = 0;
  /// (ci_hi - ci_lo) / 2 / |exact| per scored cell with a non-zero exact
  /// value.
  std::vector<double> halfwidth_rel;

  /// Share of scored cells missed; 0 when nothing was scored.
  double MissRate() const;
};

Coverage ScoreCoverage(const iolap::PartialResult& estimate,
                       const iolap::Table& exact);

/// `ci_miss_rate`: the mean over queries (with at least one scored cell)
/// of each query's miss rate.
double MeanMissRate(const std::vector<Coverage>& per_query);

/// `ci_halfwidth_rel`: the median relative half-width over all scored
/// cells of all queries.
double MedianHalfwidthRel(const std::vector<Coverage>& per_query);

/// Theorem-1 comparison: same row count, numeric cells equal within a
/// relative tolerance of `rel_tol` (absolute below magnitude 1), other
/// cells equal. Returns an empty string on a match, else the first
/// difference.
std::string CompareTables(const iolap::Table& actual,
                          const iolap::Table& expected,
                          double rel_tol = 1e-7);

/// Query runs attempted and failed (non-OK Status or a failed answer
/// check).
struct FailureTally {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// `failed_share`; 0 when nothing was attempted.
  double Share() const;
};

}  // namespace perfbench

#endif  // IOLAP_PERFBENCH_BENCH_STATS_H_
