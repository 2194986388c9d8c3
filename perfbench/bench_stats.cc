#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

using iolap::PartialResult;
using iolap::Row;
using iolap::Table;
using iolap::Value;

namespace {

// Nearest-rank index (0-based) of the p-th percentile of n sorted samples.
// The epsilon keeps exact ranks such as 99.9% of 10000 from rounding up.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double SumOfMedians(const std::vector<std::vector<double>>& rows) {
  double total = 0.0;
  for (const std::vector<double>& row : rows) total += Median(row);
  return total;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

void GrowthQuarters::AddRun(const std::vector<double>& batch_intervals) {
  const size_t n = batch_intervals.size();
  if (n < 2) return;
  const size_t quarter = std::max<size_t>(1, n / 4);
  for (size_t i = 0; i < quarter; ++i) {
    first_sum += batch_intervals[i];
    last_sum += batch_intervals[n - quarter + i];
  }
  first_count += quarter;
  last_count += quarter;
}

double GrowthQuarters::Growth() const {
  if (first_count == 0 || first_sum <= 0.0) return 0.0;
  return (last_sum / static_cast<double>(last_count)) /
         (first_sum / static_cast<double>(first_count));
}

double Coverage::MissRate() const {
  return cells == 0 ? 0.0
                    : static_cast<double>(misses) / static_cast<double>(cells);
}

Coverage ScoreCoverage(const PartialResult& estimate, const Table& exact) {
  std::vector<bool> is_estimated;
  for (int col : estimate.estimated_columns) {
    if (col >= 0 && static_cast<size_t>(col) >= is_estimated.size()) {
      is_estimated.resize(static_cast<size_t>(col) + 1, false);
    }
    if (col >= 0) is_estimated[static_cast<size_t>(col)] = true;
  }
  auto key_of = [&](const Row& row) {
    Row key;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c >= is_estimated.size() || !is_estimated[c]) key.push_back(row[c]);
    }
    return key;
  };

  // Exact row per group key; keys seen twice map to kAmbiguous.
  constexpr size_t kAmbiguous = static_cast<size_t>(-1);
  std::unordered_map<Row, size_t, iolap::RowHash, iolap::RowEq> exact_rows;
  for (size_t r = 0; r < exact.num_rows(); ++r) {
    auto [it, inserted] = exact_rows.emplace(key_of(exact.row(r)), r);
    if (!inserted) it->second = kAmbiguous;
  }

  Coverage coverage;
  for (size_t r = 0; r < estimate.rows.num_rows(); ++r) {
    const auto it = exact_rows.find(key_of(estimate.rows.row(r)));
    if (it == exact_rows.end() || it->second == kAmbiguous ||
        r >= estimate.estimates.size()) {
      ++coverage.unmatched_groups;
      continue;
    }
    const Row& truth = exact.row(it->second);
    for (size_t k = 0; k < estimate.estimated_columns.size() &&
                       k < estimate.estimates[r].size();
         ++k) {
      const size_t col = static_cast<size_t>(estimate.estimated_columns[k]);
      if (col >= truth.size() || !truth[col].is_numeric()) continue;
      const double value = truth[col].AsDouble();
      const iolap::ErrorEstimate& est = estimate.estimates[r][k];
      // A zero-width band around an exact cell must not miss on rounding.
      const double slack = 1e-9 * std::max(1.0, std::fabs(value));
      ++coverage.cells;
      if (value < est.ci_lo - slack || value > est.ci_hi + slack) {
        ++coverage.misses;
      }
      if (value != 0.0) {
        coverage.halfwidth_rel.push_back(0.5 * (est.ci_hi - est.ci_lo) /
                                         std::fabs(value));
      }
    }
  }
  return coverage;
}

double MeanMissRate(const std::vector<Coverage>& per_query) {
  double sum = 0.0;
  size_t queries = 0;
  for (const Coverage& coverage : per_query) {
    if (coverage.cells == 0) continue;
    sum += coverage.MissRate();
    ++queries;
  }
  return queries == 0 ? 0.0 : sum / static_cast<double>(queries);
}

double MedianHalfwidthRel(const std::vector<Coverage>& per_query) {
  std::vector<double> all;
  for (const Coverage& coverage : per_query) {
    all.insert(all.end(), coverage.halfwidth_rel.begin(),
               coverage.halfwidth_rel.end());
  }
  return Median(std::move(all));
}

std::string CompareTables(const Table& actual, const Table& expected,
                          double rel_tol) {
  if (actual.num_rows() != expected.num_rows()) {
    return "row count " + std::to_string(actual.num_rows()) + " vs " +
           std::to_string(expected.num_rows());
  }
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    const Row& a = actual.row(r);
    const Row& e = expected.row(r);
    if (a.size() != e.size()) {
      return "row " + std::to_string(r) + " width " +
             std::to_string(a.size()) + " vs " + std::to_string(e.size());
    }
    for (size_t c = 0; c < a.size(); ++c) {
      bool same = false;
      if (a[c].is_numeric() && e[c].is_numeric()) {
        const double ev = e[c].AsDouble();
        same = std::fabs(a[c].AsDouble() - ev) <=
               rel_tol * std::max(1.0, std::fabs(ev));
      } else {
        same = a[c].Equals(e[c]);
      }
      if (!same) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + a[c].ToString() + " vs " + e[c].ToString();
      }
    }
  }
  return "";
}

double FailureTally::Share() const {
  return attempted == 0
             ? 0.0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
