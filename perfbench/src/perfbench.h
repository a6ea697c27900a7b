// The two halves of a benchmark run and what they hand to main.cc:
//
//   * RunAgainstServer drives the shipped cupid_server binary over loopback
//     with tracing off, checks every reply against in-process reference
//     computations, and yields the end-to-end samples plus the server's
//     cupid.* counter deltas over the timed phase;
//   * RunTracedReplay replays the same seeded request stream in-process,
//     through the public functions of each layer, with a span around each
//     call, and yields per-request layer self times.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kColdMatch;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Sizes sizes;
  int server_threads = 2;
  /// Hang guard: the longest any one reply may take.
  double request_timeout_s = 30;
  /// Server starts whose set-up is timed; the median is setup_s.
  int setup_repeats = 3;
  std::string server_binary;
  /// Scratch space for WAL directories and span files (inside the build
  /// directory of the checkout).
  std::string work_dir;
};

/// Delta of one server metric over the timed phase.
struct CounterDelta {
  double value = 0;   ///< counters and gauges
  double count = 0;   ///< histograms
  double sum_ms = 0;  ///< histograms
};

struct ServerRunResult {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t sent = 0, ok = 0, failed = 0, timed_out = 0;

  std::vector<double> setup_s;
  /// Primary operation: client round trip, and the server's own
  /// timings.total_ms of the same request (match, search or pushed match).
  std::vector<double> latency_ms, latency_server_ms;
  /// Cached match reads: round trip and the server's timings.total_ms.
  std::vector<double> read_ms, read_server_ms;
  /// --trace 1 only: the primary's round trips against a second server
  /// that runs with the program's own tracing on (CUPID_TRACE=1).
  std::vector<double> traced_latency_ms;
  double peak_rss_mb = 0;
  double timed_phase_s = 0;
  double verify_s = 0;  ///< the correctness gate's reference computations
  double steal_share = 0;  ///< hypervisor steal during the timed phase
  /// Server CPU time and minor page faults during the timed phase.
  double server_cpu_ms = 0;
  double server_minor_faults = 0;
  std::map<std::string, CounterDelta> counters;
  int64_t versions_retained = 0;
  /// Primary replies that took the incremental path, out of all primaries.
  int64_t incremental_primaries = 0;
};

ServerRunResult RunAgainstServer(const RunOptions& options,
                                 const Inputs& inputs);

struct ReplayResult {
  bool correct = true;
  std::vector<std::string> errors;
  /// Per primary request: layer name -> self time (ms) or count.
  std::vector<std::map<std::string, double>> primary;
  /// Per cached read: layer name -> self time (ms).
  std::vector<std::map<std::string, double>> reads;
  /// Per registered schema: importers.parse, repository.register.
  std::vector<std::map<std::string, double>> registrations;
  std::string span_file;
};

ReplayResult RunTracedReplay(const RunOptions& options, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
