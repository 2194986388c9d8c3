#ifndef IOLAP_PERFBENCH_TRACE_H_
#define IOLAP_PERFBENCH_TRACE_H_

// In-memory span recorder of the traced benchmark run. Spans are recorded
// by the benchmark around its calls into each layer (data generation,
// bind, analyze, Session::Sql, every batch between observer callbacks, the
// baseline run and the answer checks), kept in memory, and written out as
// JSON lines once the run ends. Spans of one query in one pass share a
// trace id ("p3/q18"); pass-level spans use "p3".

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  struct Span {
    int pass = 0;
    std::string query;  // empty for pass-level spans
    uint32_t id = 0;    // 1-based, unique in the trace
    uint32_t parent = 0;  // 0 = root
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span; returns its id.
  uint32_t Add(int pass, std::string_view query, std::string_view name,
               uint32_t parent, Clock::time_point start,
               Clock::time_point end);

  /// Opens a span that Close() finishes; returns its id.
  uint32_t Open(int pass, std::string_view query, std::string_view name,
                uint32_t parent);
  void Close(uint32_t id);

  /// Summed duration of the spans called `name` in `pass`, in seconds.
  double SumSeconds(int pass, std::string_view name) const;

  /// Writes one JSON object per span: trace, span, parent, name and
  /// start/end in microseconds since the run began. False on I/O error.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when `trace` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, int pass, std::string_view query,
             std::string_view name, uint32_t parent = 0)
      : trace_(trace),
        id_(trace == nullptr ? 0 : trace->Open(pass, query, name, parent)) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Trace* trace_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // IOLAP_PERFBENCH_TRACE_H_
