#include "trace.h"

#include <cstdio>

namespace perfbench {

int SpanRecorder::Begin(const char* name, int64_t request) {
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  open_.pop_back();  // Span is RAII: the innermost open span closes first
}

std::map<int64_t, std::map<std::string, double>>
SpanRecorder::SelfMsByRequest() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          MsBetween(span.start, span.end);
    }
  }
  std::map<int64_t, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out[span.request][span.name] +=
        MsBetween(span.start, span.end) - child_ms[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  for (const SpanRecord& span : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%lld,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 span.name, static_cast<long long>(span.request), span.parent,
                 MsBetween(origin, span.start) * 1000.0,
                 MsBetween(origin, span.end) * 1000.0);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
