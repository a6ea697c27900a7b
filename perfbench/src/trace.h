// In-memory span recorder of the traced replay.
//
// Spans are recorded by benchmark code around calls into each layer (the
// program itself is not instrumented for the ledger). Each span carries a
// name, start and end, its parent span and the request it belongs to; the
// recorder keeps them in memory and writes them out once, at the end of
// the run. A layer's self time is its span minus the time its child spans
// cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  int64_t request = -1;
  int parent = -1;  ///< index into the recorder's spans; -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int64_t request);
  void End(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span (duration minus the union of its children,
  /// which never overlap: the replay is single-threaded), summed per
  /// (request, name).
  std::map<int64_t, std::map<std::string, double>> SelfMsByRequest() const;

  /// One JSON object per span: name, request, parent, start_us, end_us
  /// (relative to the first span).
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, int64_t request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~Span() { recorder_->End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
