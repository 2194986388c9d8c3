#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

double MicrosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

uint32_t Trace::Add(int pass, std::string_view query, std::string_view name,
                    uint32_t parent, Clock::time_point start,
                    Clock::time_point end) {
  Span span;
  span.pass = pass;
  span.query = std::string(query);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint32_t Trace::Open(int pass, std::string_view query, std::string_view name,
                     uint32_t parent) {
  const Clock::time_point now = Clock::now();
  return Add(pass, query, name, parent, now, now);
}

void Trace::Close(uint32_t id) {
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end = Clock::now();
}

double Trace::SumSeconds(int pass, std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.pass == pass && span.name == name) {
      total += std::chrono::duration<double>(span.end - span.start).count();
    }
  }
  return total;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    // Names and query ids are benchmark-chosen identifiers: no escaping.
    std::fprintf(out,
                 "{\"trace\":\"p%d%s%s\",\"span\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 span.pass, span.query.empty() ? "" : "/",
                 span.query.c_str(), span.id, span.parent, span.name.c_str(),
                 MicrosSince(origin_, span.start),
                 MicrosSince(origin_, span.end));
  }
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench
