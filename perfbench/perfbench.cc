// perfbench: the repository benchmark. Runs one closed-loop workload (one
// client, one query at a time, each step only after the previous answer)
// through the public engine API, checks every answer it scores against
// Theorem 1, and prints every metric by name with its unit. The last line
// of standard output is one JSON object holding every metric; run.py keeps
// the ones BENCHMARK.json lists for the run's --trace setting.
//
//   perfbench --workload spja_full --seed 1 --seconds 35 --trace 0
//
// A run makes a fixed number of whole passes per workload (generate data,
// compile, run and check every query); pass k draws its inputs from the
// seed and k, so a seed always covers the same datasets, and timings are
// medians over passes. --seconds only guards the run's length. The bounded
// times are process CPU times, which leave out the waits for a core that a
// shared virtual machine imposes, divided by the CPU time of a calibration
// kernel that shares no code with iolap and runs just before each query and
// each baseline run: host speed drift cancels, while a change anywhere in
// the engine moves only the numerator. With --trace 1
// the passes alternate untraced and traced: per-layer numbers come from
// the traced passes, and the difference between the two kinds is reported
// as trace.overhead_s. The spans are written to --trace-file when the run
// ends. perfbench/README.md lists the workloads and the metric map.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "exec/reference.h"
#include "iolap/session.h"
#include "plan/uncertainty_analysis.h"
#include "sql/binder.h"
#include "trace.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using iolap::BatchAction;
using iolap::Catalog;
using iolap::EngineOptions;
using iolap::ExecutionMode;
using iolap::IncrementalQuery;
using iolap::PartialResult;
using iolap::QueryMetrics;
using iolap::Row;
using iolap::Session;

// The answer the user waits for first (≥ 5% of the data seen) and the
// dashboard's stop rule: worst relative stddev at most 2%.
constexpr double kAnswerFraction = 0.05;
constexpr double kStopRelStddev = 0.02;
// Pass k of a run with seed s uses the inputs of seed s * 1000 + k (a run
// never reaches 1000 passes).
constexpr uint64_t kDatasetsPerSeed = 1000;
// Each pass generates its data and compiles each query this many times and
// keeps the median time: set-up steps are short, so one timing of each
// would follow every hiccup of the host. Only the last repeat is traced and
// its catalogs and query are the ones that run.
constexpr int kSetupRepeats = 3;
// setup_s is given in seconds on a reference core: one on which the
// calibration kernel takes this much CPU time (it took 8-11 ms on the
// 4-core virtual machine the bounds were set on). Set-up CPU time measured
// in a pass is scaled by this over the pass's calibration time.
constexpr double kReferenceCalibrationS = 0.008;
// No pass starts when it would end later than this many times --seconds
// after the run began; the fixed pass counts fit well inside --seconds.
constexpr double kGuardFactor = 3.0;

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> query_ids;
  /// Passes per run, chosen so that a run takes about 30 s on a 4-core
  /// host; with --trace 1 half of them are traced.
  int passes = 1;
  size_t num_batches = 25;
  size_t num_threads = 0;
  size_t num_shards = 1;
  /// Stop each query at its first answer that meets the dashboard rule
  /// instead of running to the exact answer.
  bool stop_rule = false;
};

// Dataset scale of every workload: 60K TPC-H lineorder rows, 80K Conviva
// sessions.
constexpr double kScale = 1.0;

std::vector<WorkloadSpec> Workloads() {
  return {
      {"spja_full",
       {"q1", "q3", "q5", "q6", "q7", "c3", "c5", "c11", "c12"},
       10, 25, 0, 1, false},
      {"nested_full", {"q11", "q17", "q18", "q20", "q22", "c10"}, 4, 25, 0, 1,
       false},
      {"dashboard_stop",
       {"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11",
        "c12"},
       7, 20, 2, 4, true},
  };
}

// Every engine option the workloads depend on, set explicitly: nothing is
// read from the environment.
EngineOptions WorkloadOptions(const WorkloadSpec& workload, uint64_t seed,
                              ExecutionMode mode) {
  EngineOptions options;
  options.mode = mode;
  options.error_method = iolap::ErrorMethod::kBootstrap;
  options.tuple_partition = true;
  options.lazy_lineage = true;
  options.num_trials = 60;
  options.slack = 2.0;
  options.num_batches = workload.num_batches;
  options.partition = iolap::PartitionOptions{};
  options.seed = seed;
  options.virtual_workers = 20;
  options.num_shards = workload.num_shards;
  options.exchange_max_attempts = 4;
  options.checkpoint_history = 8;
  options.max_recoveries_per_batch = 32;
  options.apply_rewrite_rules = false;
  options.compile_expressions = true;
  options.verify_programs = iolap::ProgramVerifyMode::kEnforce;
  options.num_threads = workload.num_threads;
  options.failpoints.clear();
  return options;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// Resets the kernel's peak-RSS mark (VmHWM), so that each pass reports its
// own peak rather than the largest of the run so far.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak RSS since the last ResetPeakRss (VmHWM), falling back to getrusage's
// process-lifetime maximum where /proc is unavailable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall and process CPU time of one stretch of work. On a shared virtual
/// machine the cores this process can run on come and go: wall time then
/// includes waits for a core, and CPU time does not.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Cost& operator+=(const Cost& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

/// A point to measure a Cost from.
struct Stamp {
  Clock::time_point wall = Clock::now();
  double cpu = ProcessCpuSeconds();
  Cost Elapsed() const {
    return {Seconds(Clock::now() - wall), ProcessCpuSeconds() - cpu};
  }
};

/// The median wall time and the median CPU time of `costs`.
Cost MedianCost(const std::vector<Cost>& costs) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Cost& c : costs) {
    wall.push_back(c.wall_s);
    cpu.push_back(c.cpu_s);
  }
  return {Median(std::move(wall)), Median(std::move(cpu))};
}

int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double WorstRelStddev(const PartialResult& partial) {
  double worst = 0.0;
  for (const auto& row : partial.estimates) {
    for (const iolap::ErrorEstimate& est : row) {
      worst = std::max(worst, est.rel_stddev);
    }
  }
  return worst;
}

// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// A fixed CPU workload that shares no code with iolap: hashed
// read-modify-writes plus a square root per step, first over a 256 KiB
// table that stays in a core's own cache, then over a 16 MiB one that does
// not. Its CPU time measures how fast a core of the host runs at that
// moment, which drifts by 10-30% between runs on a shared machine; the
// bounded times are given in multiples of it. The two halves take about the
// same time: the first follows the core's speed, the second other tenants'
// memory traffic, and the engine's workloads sit between the two
// (dashboard_stop's small Conviva groups nearer the first, nested_full's
// large state nearer the second).
class Calibration {
 public:
  Calibration() : small_(kSmallSlots), large_(kLargeSlots) {
    for (uint64_t i = 0; i < kSmallSlots; ++i) small_[i] = Mix(i);
    for (uint64_t i = 0; i < kLargeSlots; ++i) large_[i] = Mix(i);
  }

  /// Runs the kernel once and returns its CPU time in seconds. Every call
  /// touches the same slots in the same order, so the work is constant.
  double TimeOnce() {
    const double start = ThreadCpuSeconds();
    Walk(&small_, kSmallSteps);
    Walk(&large_, kLargeSteps);
    return ThreadCpuSeconds() - start;
  }

 private:
  static constexpr uint64_t kSmallSlots = uint64_t{1} << 15;
  static constexpr uint64_t kSmallSteps = 1000000;
  static constexpr uint64_t kLargeSlots = uint64_t{1} << 21;
  static constexpr uint64_t kLargeSteps = 150000;

  static void Walk(std::vector<uint64_t>* table, uint64_t steps) {
    const uint64_t mask = table->size() - 1;
    uint64_t sum = 0;
    double root = 0.0;
    for (uint64_t i = 0; i < steps; ++i) {
      uint64_t& slot = (*table)[Mix(i) & mask];
      sum += slot;
      slot = Mix(slot + i);
      root += std::sqrt(static_cast<double>(sum & 0xfffff));
    }
    // Stored into the table, so that the loop's work is observable.
    (*table)[0] += sum + static_cast<uint64_t>(root);
  }

  static uint64_t Mix(uint64_t x) {  // splitmix64's finalizer
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::vector<uint64_t> small_;
  std::vector<uint64_t> large_;
};

/// The datasets of one pass, generated from the workload seed.
struct Catalogs {
  std::map<std::string, std::shared_ptr<Catalog>> tpch;  // by streamed table
  std::shared_ptr<Catalog> conviva;
};

/// What one query contributed to one pass.
struct QueryRun {
  std::string id;
  std::string error;  // empty = run and every answer check succeeded
  Cost sql;
  /// Observer-to-observer intervals, with the observer's own work excluded.
  std::vector<Cost> intervals;
  Cost answer_5pct;
  Cost answer;
  Cost baseline;
  Cost run;  // all of Run, the observer included
  /// Calibration kernel CPU times taken just before Run and before the
  /// baseline run.
  std::vector<double> calibration_s;
  QueryMetrics metrics;
  Coverage coverage;
  // Traced passes only.
  size_t pending_rows_max = 0;
  size_t checkpoint_ring_bytes_max = 0;
  uint64_t result_cells = 0;
};

struct PassResult {
  int index = 0;  // the pass number its spans carry
  bool traced = false;
  Cost gen;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<QueryRun> queries;
};

class Bench {
 public:
  Bench(WorkloadSpec workload, Trace* trace)
      : workload_(std::move(workload)),
        trace_(trace),
        functions_(iolap::FunctionRegistry::Default()) {
    iolap::RegisterConvivaUdfs(functions_.get());
  }

  /// One pass over the workload on the inputs of `seed`.
  PassResult RunPass(int pass, uint64_t seed, bool traced);

 private:
  std::string GenerateCatalogs(int pass, uint64_t seed, Trace* trace,
                               Catalogs* catalogs);
  QueryRun RunQuery(int pass, uint64_t seed, Trace* trace,
                    const iolap::BenchQuery& query,
                    const std::shared_ptr<Catalog>& catalog);
  /// Theorem 1 for a partial answer: it must equal the reference
  /// evaluation Q(D_i, m_i) over the batches delivered so far.
  std::string CheckAgainstReference(IncrementalQuery& query,
                                    const Catalog& catalog,
                                    const PartialResult& partial);

  WorkloadSpec workload_;
  Trace* trace_;
  std::shared_ptr<iolap::FunctionRegistry> functions_;
  Calibration calibration_;
};

bool IsConviva(const std::string& id) { return id[0] == 'c'; }

iolap::BenchQuery FindQuery(const std::string& id) {
  return IsConviva(id) ? iolap::FindConvivaQuery(id)
                       : iolap::FindTpchQuery(id);
}

std::string Bench::GenerateCatalogs(int pass, uint64_t seed, Trace* trace,
                                    Catalogs* catalogs) {
  for (const std::string& id : workload_.query_ids) {
    const iolap::BenchQuery query = FindQuery(id);
    if (query.id.empty()) return "unknown query " + id;
    if (IsConviva(id)) {
      if (catalogs->conviva != nullptr) continue;
      ScopedSpan span(trace, pass, "", "workloads.gen");
      iolap::ConvivaConfig config;
      config.seed = seed;
      auto catalog = iolap::MakeConvivaCatalog(config.Scaled(kScale));
      if (!catalog.ok()) return catalog.status().ToString();
      catalogs->conviva = *catalog;
    } else {
      if (catalogs->tpch.count(query.streamed_table) > 0) continue;
      ScopedSpan span(trace, pass, "", "workloads.gen");
      iolap::TpchConfig config;
      config.seed = seed;
      auto catalog = iolap::MakeTpchCatalog(config.Scaled(kScale),
                                            query.streamed_table);
      if (!catalog.ok()) return catalog.status().ToString();
      catalogs->tpch[query.streamed_table] = *catalog;
    }
  }
  return "";
}

std::string Bench::CheckAgainstReference(IncrementalQuery& query,
                                         const Catalog& catalog,
                                         const PartialResult& partial) {
  const iolap::QueryPlan& plan = query.plan();
  auto entry = catalog.Find(plan.streamed_table);
  if (!entry.ok()) return entry.status().ToString();
  const iolap::Table& fact = *(*entry)->table;
  const iolap::BatchLayout& layout = query.controller().layout();
  std::vector<Row> seen;
  for (int b = 0; b <= partial.batch; ++b) {
    for (uint64_t row : layout.batches[static_cast<size_t>(b)]) {
      seen.push_back(fact.row(row));
    }
  }
  if (seen.empty()) return "answer before any data";
  const double scale =
      static_cast<double>(fact.num_rows()) / static_cast<double>(seen.size());
  auto expected = iolap::EvaluateReference(plan, catalog, seen, scale);
  if (!expected.ok()) return expected.status().ToString();
  const std::string diff = CompareTables(partial.rows, *expected);
  if (diff.empty()) return "";
  return "batch " + std::to_string(partial.batch) + " vs reference: " + diff;
}

QueryRun Bench::RunQuery(int pass, uint64_t seed, Trace* trace,
                         const iolap::BenchQuery& query,
                         const std::shared_ptr<Catalog>& catalog) {
  QueryRun out;
  out.id = query.id;
  const ScopedSpan query_span(trace, pass, query.id, "query");
  const uint32_t root = query_span.id();

  if (trace != nullptr) {
    // Bind and analyze once more from outside, only to time those layers;
    // Session::Sql repeats both internally.
    std::optional<iolap::QueryPlan> plan;
    {
      const ScopedSpan span(trace, pass, query.id, "sql.bind", root);
      auto bound = iolap::BindSql(query.sql, *catalog, functions_);
      if (!bound.ok()) {
        out.error = bound.status().ToString();
        return out;
      }
      plan = std::move(*bound);
    }
    const ScopedSpan span(trace, pass, query.id, "plan.analyze", root);
    auto annotations = iolap::AnalyzeUncertainty(*plan);
    if (!annotations.ok()) {
      out.error = annotations.status().ToString();
      return out;
    }
  }

  Session session(catalog.get(),
                  WorkloadOptions(workload_, seed, ExecutionMode::kIolap),
                  functions_);
  iolap::Result<std::unique_ptr<IncrementalQuery>> compiled =
      iolap::Status::Internal("not compiled");
  std::vector<Cost> sql;
  for (int r = 0; r < kSetupRepeats; ++r) {
    compiled = iolap::Status::Internal("not compiled");
    const ScopedSpan span(r + 1 == kSetupRepeats ? trace : nullptr, pass,
                          query.id, "iolap.session_sql", root);
    const Stamp start;
    compiled = session.Sql(query.sql);
    sql.push_back(start.Elapsed());
    if (!compiled.ok()) break;
  }
  out.sql = MedianCost(sql);
  if (!compiled.ok()) {
    out.error = compiled.status().ToString();
    return out;
  }
  IncrementalQuery& incremental = **compiled;
  iolap::QueryController& controller = incremental.controller();

  const ScopedSpan run_span(trace, pass, query.id, "iolap.run", root);
  std::optional<PartialResult> answer_5pct;
  Cost elapsed;
  Stamp last;
  auto observer = [&](const PartialResult& partial) {
    const Clock::time_point now = Clock::now();
    out.intervals.push_back(last.Elapsed());
    elapsed += out.intervals.back();
    if (trace != nullptr) {
      trace->Add(pass, query.id, "iolap.batch", run_span.id(), last.wall, now);
      out.pending_rows_max =
          std::max(out.pending_rows_max, controller.PendingCount());
      out.checkpoint_ring_bytes_max = std::max(
          out.checkpoint_ring_bytes_max, controller.CheckpointRingBytes());
      out.result_cells +=
          partial.rows.num_rows() * partial.rows.schema().num_columns();
    }
    if (!answer_5pct.has_value() &&
        partial.fraction_processed >= kAnswerFraction) {
      answer_5pct = partial;
      out.answer_5pct = elapsed;
    }
    BatchAction action = BatchAction::kContinue;
    if (workload_.stop_rule && partial.fraction_processed >= kAnswerFraction &&
        !partial.estimates.empty() &&
        WorstRelStddev(partial) <= kStopRelStddev) {
      action = BatchAction::kStop;
    }
    last = Stamp();
    return action;
  };
  out.calibration_s.push_back(calibration_.TimeOnce());
  const Stamp run_start;
  last = run_start;
  const iolap::Status status = incremental.Run(observer);
  out.run = run_start.Elapsed();
  out.answer = elapsed;
  out.metrics = incremental.metrics();
  if (!status.ok()) {
    out.error = status.ToString();
    return out;
  }

  // The one-shot baseline supplies baseline_s and the exact answer.
  iolap::Table exact;
  out.calibration_s.push_back(calibration_.TimeOnce());
  {
    const ScopedSpan span(trace, pass, query.id, "baseline.run", root);
    Session baseline_session(
        catalog.get(),
        WorkloadOptions(workload_, seed, ExecutionMode::kBaseline),
        functions_);
    auto baseline = baseline_session.Sql(query.sql);
    if (!baseline.ok()) {
      out.error = "baseline: " + baseline.status().ToString();
      return out;
    }
    const Stamp start;
    const iolap::Status baseline_status = (*baseline)->Run();
    out.baseline = start.Elapsed();
    if (!baseline_status.ok()) {
      out.error = "baseline: " + baseline_status.ToString();
      return out;
    }
    exact = (*baseline)->last_result().rows;
  }

  const ScopedSpan check_span(trace, pass, query.id, "check", root);
  if (!answer_5pct.has_value()) {
    out.error = "no answer with 5% of the data seen";
    return out;
  }
  const PartialResult& last_answer = incremental.last_result();
  std::string diff;
  if (last_answer.fraction_processed >= 1.0) {
    diff = CompareTables(last_answer.rows, exact);
    if (!diff.empty()) diff = "exact answer vs baseline: " + diff;
  } else {
    diff = CheckAgainstReference(incremental, *catalog, last_answer);
  }
  if (diff.empty() && answer_5pct->batch != last_answer.batch) {
    diff = CheckAgainstReference(incremental, *catalog, *answer_5pct);
  }
  if (!diff.empty()) {
    out.error = diff;
    return out;
  }
  out.coverage = ScoreCoverage(*answer_5pct, exact);
  return out;
}

PassResult Bench::RunPass(int pass, uint64_t seed, bool traced) {
  Trace* trace = traced ? trace_ : nullptr;
  PassResult result;
  result.index = pass;
  result.traced = traced;
  const Clock::time_point pass_start = Clock::now();
  ResetPeakRss();
  Catalogs catalogs;
  std::vector<Cost> gen;
  for (int r = 0; r < kSetupRepeats; ++r) {
    catalogs = Catalogs{};
    const Stamp start;
    const std::string error = GenerateCatalogs(
        pass, seed, r + 1 == kSetupRepeats ? trace : nullptr, &catalogs);
    gen.push_back(start.Elapsed());
    if (!error.empty()) {
      QueryRun failed;
      failed.id = "workloads.gen";
      failed.error = error;
      result.queries.push_back(std::move(failed));
      return result;
    }
  }
  result.gen = MedianCost(gen);
  for (const std::string& id : workload_.query_ids) {
    const iolap::BenchQuery query = FindQuery(id);
    const std::shared_ptr<Catalog>& catalog =
        IsConviva(id) ? catalogs.conviva : catalogs.tpch[query.streamed_table];
    result.queries.push_back(RunQuery(pass, seed, trace, query, catalog));
  }
  result.wall_s = Seconds(Clock::now() - pass_start);
  result.peak_rss_mb = PeakRssMb();
  return result;
}

// ---- reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(std::vector<Metric>* list, std::string name, double value,
           std::string unit, std::string note = "") {
    list->push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

template <typename F>
std::vector<double> PerPass(const std::vector<const PassResult*>& passes,
                            F&& f) {
  std::vector<double> values;
  for (const PassResult* pass : passes) values.push_back(f(*pass));
  return values;
}

template <typename F>
double SumQueries(const PassResult& pass, F&& f) {
  double total = 0.0;
  for (const QueryRun& run : pass.queries) total += f(run);
  return total;
}

// The pass's calibration kernel CPU time: the median over its queries'
// runs.
double CalibrationUnit(const PassResult& pass) {
  std::vector<double> times;
  for (const QueryRun& run : pass.queries) {
    times.insert(times.end(), run.calibration_s.begin(),
                 run.calibration_s.end());
  }
  return Median(std::move(times));
}

void AddEndToEnd(const std::vector<const PassResult*>& passes,
                 const FailureTally& tally, Report* report) {
  auto& list = report->end_to_end;
  const std::string over = "median of " + std::to_string(passes.size()) +
                           " passes";
  const auto unit = PerPass(passes, CalibrationUnit);
  const auto setup_wall = PerPass(passes, [](const PassResult& p) {
    return p.gen.wall_s +
           SumQueries(p, [](const QueryRun& q) { return q.sql.wall_s; });
  });
  const auto setup_cpu = PerPass(passes, [](const PassResult& p) {
    return p.gen.cpu_s +
           SumQueries(p, [](const QueryRun& q) { return q.sql.cpu_s; });
  });
  std::vector<double> setup_reference;
  for (size_t i = 0; i < passes.size(); ++i) {
    setup_reference.push_back(setup_cpu[i] / unit[i] * kReferenceCalibrationS);
  }
  report->Add(&list, "setup_s", Median(std::move(setup_reference)), "s",
              "set-up CPU time on the reference core, " + over);
  report->Add(&list, "setup_wall_s", Median(setup_wall), "s", over);
  // Each query's median over passes, summed over queries: a dataset on which
  // one query runs long (q20's restarts, a late stop) moves only that
  // query's median. `f` gives a query's time in a pass and its unit.
  auto sum_of_medians = [&](auto&& f) {
    std::vector<std::vector<double>> rows(passes.front()->queries.size());
    for (size_t q = 0; q < rows.size(); ++q) {
      for (size_t i = 0; i < passes.size(); ++i) {
        rows[q].push_back(f(passes[i]->queries[q], unit[i]));
      }
    }
    return SumOfMedians(rows);
  };
  const std::string per_query = "sum over queries of the median over " +
                                std::to_string(passes.size()) + " passes";
  const std::string cal = " in calibration kernel times, " + per_query;
  report->Add(&list, "answer_5pct_s",
              sum_of_medians([](const QueryRun& q, double) {
                return q.answer_5pct.wall_s;
              }),
              "s", per_query);
  report->Add(&list, "answer_s",
              sum_of_medians(
                  [](const QueryRun& q, double) { return q.answer.wall_s; }),
              "s", per_query);
  report->Add(&list, "baseline_s",
              sum_of_medians(
                  [](const QueryRun& q, double) { return q.baseline.wall_s; }),
              "s", per_query);
  report->Add(&list, "answer_cpu_s",
              sum_of_medians(
                  [](const QueryRun& q, double) { return q.answer.cpu_s; }),
              "s", "process CPU time of answer_s, " + per_query);
  report->Add(&list, "baseline_cpu_s",
              sum_of_medians(
                  [](const QueryRun& q, double) { return q.baseline.cpu_s; }),
              "s", "process CPU time of baseline_s, " + per_query);
  report->Add(&list, "answer_5pct_cal",
              sum_of_medians([](const QueryRun& q, double u) {
                return q.answer_5pct.cpu_s / u;
              }),
              "x", "CPU time of answer_5pct_s" + cal);
  report->Add(&list, "answer_cal",
              sum_of_medians([](const QueryRun& q, double u) {
                return q.answer.cpu_s / u;
              }),
              "x", "CPU time of answer_s" + cal);
  report->Add(&list, "baseline_cal",
              sum_of_medians([](const QueryRun& q, double u) {
                return q.baseline.cpu_s / u;
              }),
              "x", "CPU time of baseline_s" + cal);
  const auto answer = PerPass(passes, [](const PassResult& p) {
    return SumQueries(p, [](const QueryRun& q) { return q.answer.wall_s; });
  });
  const auto baseline = PerPass(passes, [](const PassResult& p) {
    return SumQueries(p, [](const QueryRun& q) { return q.baseline.wall_s; });
  });
  std::vector<double> overhead;
  for (size_t i = 0; i < passes.size(); ++i) {
    overhead.push_back(answer[i] / baseline[i]);
  }
  report->Add(&list, "overhead_x", Median(std::move(overhead)), "x",
              "answer_s / baseline_s per pass, " + over);
  report->Add(&list, "host.calibration_ms", 1e3 * Median(unit), "ms",
              "calibration kernel CPU time, " + over);

  std::vector<double> intervals_ms;
  std::vector<double> intervals_cal;
  for (size_t i = 0; i < passes.size(); ++i) {
    for (const QueryRun& run : passes[i]->queries) {
      for (const Cost& c : run.intervals) {
        intervals_ms.push_back(1e3 * c.wall_s);
        intervals_cal.push_back(c.cpu_s / unit[i]);
      }
    }
  }
  const size_t n = intervals_ms.size();
  const std::string count = "n=" + std::to_string(n);
  const std::string beyond =
      count + ", " + std::to_string(SamplesBeyond(n, 90.0)) + " beyond";
  const double tail = HighestSupportedPercentile(n);
  auto tail_note = [&](const std::vector<double>& values, const char* unit) {
    if (tail <= 0.0) return beyond;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "; highest supported p%g = %.6g %s", tail,
                  Percentile(values, tail), unit);
    return beyond + buf;
  };
  report->Add(&list, "batch_p50_ms", Percentile(intervals_ms, 50.0), "ms",
              count);
  report->Add(&list, "batch_p90_ms", Percentile(intervals_ms, 90.0), "ms",
              tail_note(intervals_ms, "ms"));
  report->Add(&list, "batch_p50_cal", Percentile(intervals_cal, 50.0), "x",
              "batch interval CPU time in calibration kernel times, " + count);
  report->Add(&list, "batch_p90_cal", Percentile(intervals_cal, 90.0), "x",
              tail_note(intervals_cal, "x"));
  report->Add(&list, "batch_growth",
              Median(PerPass(passes,
                             [](const PassResult& p) {
                               GrowthQuarters quarters;
                               for (const QueryRun& q : p.queries) {
                                 std::vector<double> wall;
                                 for (const Cost& c : q.intervals) {
                                   wall.push_back(c.wall_s);
                                 }
                                 quarters.AddRun(wall);
                               }
                               return quarters.Growth();
                             })),
              "x", "last-quarter over first-quarter batch interval, " + over);

  // Scored on the first pass, whose inputs are the same for every run with
  // this seed.
  std::vector<Coverage> coverage;
  for (const QueryRun& run : passes.front()->queries) {
    coverage.push_back(run.coverage);
  }
  report->Add(&list, "ci_miss_rate", MeanMissRate(coverage), "share",
              "5% answer vs exact, mean over queries");
  report->Add(&list, "ci_halfwidth_rel", MedianHalfwidthRel(coverage),
              "share", "median over the same cells");
  const auto peak_rss = [](const PassResult& p) { return p.peak_rss_mb; };
  report->Add(&list, "peak_rss_mb", Median(PerPass(passes, peak_rss)), "MiB",
              "peak RSS of each pass (VmHWM), " + over);
  report->Add(&list, "failed_share", tally.Share(), "share",
              std::to_string(tally.failed) + " of " +
                  std::to_string(tally.attempted) + " query runs");
}

void AddPerLayer(const std::vector<const PassResult*>& traced,
                 const std::vector<const PassResult*>& untraced,
                 const Trace& trace, Report* report) {
  auto& list = report->per_layer;
  const std::string over =
      "median of " + std::to_string(traced.size()) + " traced passes";
  auto span_s = [&](const PassResult& p, const char* name) {
    return trace.SumSeconds(p.index, name);
  };
  auto engine_s = [](const PassResult& p) {
    return SumQueries(
        p, [](const QueryRun& q) { return q.metrics.TotalLatencySec(); });
  };
  auto span_median = [&](const char* name, double scale) {
    return Median(PerPass(
        traced, [&](const PassResult& p) { return scale * span_s(p, name); }));
  };
  report->Add(&list, "workloads.gen_s", span_median("workloads.gen", 1.0),
              "s", over);
  report->Add(&list, "sql.bind_ms", span_median("sql.bind", 1e3), "ms", over);
  report->Add(&list, "plan.analyze_ms", span_median("plan.analyze", 1e3),
              "ms", over);
  report->Add(&list, "iolap.init_ms",
              Median(PerPass(traced,
                             [&](const PassResult& p) {
                               return 1e3 * (span_s(p, "iolap.session_sql") -
                                             span_s(p, "sql.bind") -
                                             span_s(p, "plan.analyze"));
                             })),
              "ms", "Session::Sql minus bind and analyze, " + over);
  report->Add(&list, "iolap.engine_s", Median(PerPass(traced, engine_s)), "s",
              "sum of BatchMetrics::latency_sec, " + over);
  report->Add(&list, "iolap.untimed_s",
              Median(PerPass(traced,
                             [&](const PassResult& p) {
                               return span_s(p, "iolap.batch") - engine_s(p);
                             })),
              "s", "observer-to-observer time minus engine_s, " + over);
  report->Add(&list, "pool.cpu_over_wall",
              Median(PerPass(traced,
                             [](const PassResult& p) {
                               const double wall = SumQueries(
                                   p, [](const QueryRun& q) {
                                     return q.run.wall_s;
                                   });
                               const double cpu = SumQueries(
                                   p, [](const QueryRun& q) {
                                     return q.run.cpu_s;
                                   });
                               return wall > 0.0 ? cpu / wall : 0.0;
                             })),
              "x", "process CPU over wall time of Run, " + over);
  const auto wall = [](const PassResult& p) { return p.wall_s; };
  report->Add(&list, "trace.overhead_s",
              Median(PerPass(traced, wall)) - Median(PerPass(untraced, wall)),
              "s", "median traced pass minus median untraced pass");

  // Counts: the first traced pass always runs on the same inputs, so its
  // counts repeat exactly for a seed.
  const PassResult& p = *traced.front();
  auto total = [&](auto&& f) { return SumQueries(p, f); };
  auto largest = [&](auto&& f) {
    double m = 0.0;
    for (const QueryRun& q : p.queries) m = std::max(m, f(q));
    return m;
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  report->Add(&list, "exec.programs_compiled",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.programs_compiled);
              }),
              "count");
  report->Add(&list, "exec.programs_rejected",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.programs_rejected);
              }),
              "count");
  report->Add(&list, "exec.compile_refusals",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.compile_refusals);
              }),
              "count");
  const double input_rows = total([](const QueryRun& q) {
    double rows = 0.0;
    for (const auto& b : q.metrics.batches) rows += b.input_rows;
    return rows;
  });
  const double recomputed = total([](const QueryRun& q) {
    return static_cast<double>(q.metrics.TotalRecomputedRows());
  });
  report->Add(&list, "iolap.input_rows", input_rows, "count");
  report->Add(&list, "iolap.recomputed_rows", recomputed, "count");
  report->Add(&list, "iolap.recompute_ratio",
              input_rows > 0.0 ? recomputed / input_rows : 0.0, "x",
              "recomputed_rows / input_rows");
  report->Add(&list, "iolap.pending_rows_max",
              largest([](const QueryRun& q) {
                return static_cast<double>(q.pending_rows_max);
              }),
              "count", "largest QueryController::PendingCount after a batch");
  report->Add(&list, "iolap.result_cells",
              total([](const QueryRun& q) {
                return static_cast<double>(q.result_cells);
              }),
              "count", "cells of every delivered answer");
  report->Add(&list, "iolap.state_mb_peak",
              largest([&](const QueryRun& q) {
                double peak = 0.0;
                for (const auto& b : q.metrics.batches) {
                  peak = std::max(peak, static_cast<double>(
                                            b.join_state_bytes +
                                            b.other_state_bytes));
                }
                return peak / kMiB;
              }),
              "MiB", "largest join + other state after a batch");
  report->Add(&list, "iolap.checkpoint_ring_mb",
              largest([&](const QueryRun& q) {
                return static_cast<double>(q.checkpoint_ring_bytes_max) /
                       kMiB;
              }),
              "MiB", "largest QueryController::CheckpointRingBytes");
  report->Add(&list, "iolap.recoveries",
              total([](const QueryRun& q) {
                return static_cast<double>(
                    q.metrics.TotalFailureRecoveries());
              }),
              "count");
  report->Add(&list, "iolap.full_restarts",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.TotalFullRestarts());
              }),
              "count");
  report->Add(&list, "iolap.replayed_batches",
              total([](const QueryRun& q) {
                return static_cast<double>(
                    q.metrics.TotalFrozenReplayBatches());
              }),
              "count");
  report->Add(&list, "iolap.max_rollback_depth",
              largest([](const QueryRun& q) {
                return static_cast<double>(q.metrics.MaxRollbackDepth());
              }),
              "count");
  report->Add(&list, "bootstrap.unmatched_groups",
              total([](const QueryRun& q) {
                return static_cast<double>(q.coverage.unmatched_groups);
              }),
              "count", "5% answer groups absent from the exact answer");
  report->Add(&list, "shard.shipped_mb",
              total([&](const QueryRun& q) {
                return static_cast<double>(q.metrics.TotalShippedBytes()) /
                       kMiB;
              }),
              "MiB");
  report->Add(&list, "shard.messages",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.TotalExchangeMessages());
              }),
              "count");
  report->Add(&list, "shard.retries",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.TotalExchangeRetries());
              }),
              "count");
  report->Add(&list, "shard.deaths",
              total([](const QueryRun& q) {
                return static_cast<double>(q.metrics.TotalShardDeaths());
              }),
              "count");
}

// One line per query: its medians over `passes`, to show where the
// workload's time goes.
void PrintQueries(const std::vector<const PassResult*>& passes) {
  std::printf("# per query (median over passes): answer_5pct_s answer_s "
              "baseline_s batches\n");
  for (size_t i = 0; i < passes.front()->queries.size(); ++i) {
    auto median = [&](auto&& f) {
      std::vector<double> values;
      for (const PassResult* pass : passes) {
        values.push_back(f(pass->queries[i]));
      }
      return Median(std::move(values));
    };
    std::printf("#   %-4s %10.6f %10.6f %10.6f %4zu\n",
                passes.front()->queries[i].id.c_str(),
                median([](const QueryRun& q) { return q.answer_5pct.wall_s; }),
                median([](const QueryRun& q) { return q.answer.wall_s; }),
                median([](const QueryRun& q) { return q.baseline.wall_s; }),
                passes.front()->queries[i].intervals.size());
  }
}

void PrintMetrics(const char* heading, const std::vector<Metric>& list) {
  std::printf("# %s\n", heading);
  for (const Metric& m : list) {
    std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

// The result line: JSON with every metric of the run, each value printed in
// full precision.
void PrintResultJson(const FailureTally& tally,
                     const std::vector<Metric>& list) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (size_t i = 0; i < list.size(); ++i) {
    const double value = std::isfinite(list[i].value) ? list[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", list[i].name.c_str(), value,
                list[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file = "perfbench_trace.jsonl";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  std::optional<WorkloadSpec> spec;
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == args.workload) spec = w;
  }
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const Clock::time_point origin = Clock::now();
  Trace trace(origin);
  Bench bench(*spec, args.trace ? &trace : nullptr);
  std::vector<PassResult> passes;
  FailureTally tally;
  const int num_passes = args.trace ? std::max(2, spec->passes) : spec->passes;
  const double guard_s = kGuardFactor * args.seconds;
  for (int pass = 0; pass < num_passes; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    // Each pass draws its own inputs, so a run's medians rest on several
    // datasets rather than on one. A traced pass reuses the inputs of the
    // untraced pass before it, so the two kinds compare like with like.
    const int dataset = args.trace ? pass / 2 : pass;
    passes.push_back(bench.RunPass(
        pass, args.seed * kDatasetsPerSeed + static_cast<uint64_t>(dataset),
        traced));
    std::fprintf(stderr,
                 "perfbench: pass %d%s %.3f s (answer %.3f s, baseline "
                 "%.3f s, calibration %.3f ms, peak rss %.1f MiB)\n",
                 pass, traced ? " (traced)" : "", passes.back().wall_s,
                 SumQueries(passes.back(),
                            [](const QueryRun& q) { return q.answer.wall_s; }),
                 SumQueries(passes.back(),
                            [](const QueryRun& q) {
                              return q.baseline.wall_s;
                            }),
                 1e3 * CalibrationUnit(passes.back()),
                 passes.back().peak_rss_mb);
    for (const QueryRun& run : passes.back().queries) {
      tally.Record(run.error.empty());
      if (!run.error.empty()) {
        std::fprintf(stderr, "perfbench: pass %d query %s FAILED: %s\n", pass,
                     run.id.c_str(), run.error.c_str());
      }
    }
    if (tally.failed > 0) break;
    const double elapsed = Seconds(Clock::now() - origin);
    if (pass + 1 < num_passes && elapsed + passes.back().wall_s > guard_s) {
      std::fprintf(stderr,
                   "perfbench: WARNING: stopping after %d of %d passes, the "
                   "next would end after %.0f s; medians cover fewer "
                   "datasets\n",
                   pass + 1, num_passes, guard_s);
      break;
    }
  }

  std::vector<const PassResult*> untraced;
  std::vector<const PassResult*> traced;
  for (const PassResult& pass : passes) {
    (pass.traced ? traced : untraced).push_back(&pass);
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
  std::fprintf(stderr,
               "perfbench: WARNING: built without NDEBUG; timings are not "
               "comparable\n");
#endif
  std::printf("# stamp {\"workload\": \"%s\", \"build_type\": \"%s\", "
              "\"ndebug\": %s, \"affinity_cores\": %d, \"threads\": %zu, "
              "\"shards\": %zu, \"seed\": %llu, \"first_pass_seed\": %llu, "
              "\"scale\": %g, \"batches\": %zu, \"passes\": %zu, "
              "\"traced_passes\": %zu}\n",
              spec->name.c_str(), PERFBENCH_BUILD_TYPE,
              ndebug ? "true" : "false", AffinityCores(), spec->num_threads,
              spec->num_shards, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seed * kDatasetsPerSeed),
              kScale, spec->num_batches, passes.size(), traced.size());

  if (args.trace && traced.empty()) {
    std::fprintf(stderr, "perfbench: no traced pass within %.0f s\n",
                 guard_s);
    return 1;
  }
  Report report;
  if (tally.failed == 0) {
    AddEndToEnd(untraced, tally, &report);
    PrintQueries(untraced);
    PrintMetrics("end-to-end (untraced passes)", report.end_to_end);
    if (args.trace) {
      AddPerLayer(traced, untraced, trace, &report);
      PrintMetrics("per-layer (traced passes)", report.per_layer);
      if (!trace.WriteJsonLines(args.trace_file)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_file.c_str());
        return 1;
      }
      std::printf("# trace: %zu spans in %s\n", trace.size(),
                  args.trace_file.c_str());
    }
  }
  std::vector<Metric> all = report.end_to_end;
  all.insert(all.end(), report.per_layer.begin(), report.per_layer.end());
  PrintResultJson(tally, all);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
