// The shipped cupid_server as a child process, and a blocking loopback
// line client with a per-read timeout (the hang guard: a stalled server
// surfaces as a timed-out request, never as a hung benchmark).

#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary args...` with stdout on a pipe, stderr appended to
  /// `log_path` and `env` ("NAME=value" entries) added to this process's
  /// environment, and waits (at most `timeout_s`) for its {"cmd":"listen"}
  /// announcement line, which names the bound port. No sleep-polling: the
  /// read blocks on the pipe.
  static cupid::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::vector<std::string>& env, const std::string& log_path,
      double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// VmHWM of the process (peak resident set), MiB; 0 if unreadable.
  double PeakRssMb() const;

  /// CPU time (user + system) and minor page faults of the process so far,
  /// from /proc/<pid>/stat; zeros if unreadable.
  struct Usage {
    double cpu_ms = 0;
    double minor_faults = 0;
  };
  Usage ReadUsage() const;

  /// SIGTERM, then wait up to `timeout_s` for the graceful drain; SIGKILL
  /// after that. Always reaps the child. Idempotent.
  void Stop(double timeout_s = 20.0);

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  cupid::Status Connect(int port);

  /// Writes `line` plus a newline completely.
  bool Send(const std::string& line);

  enum class ReadStatus { kOk, kTimeout, kClosed };
  /// Next newline-terminated line (without the newline), waiting at most
  /// `timeout_s` for it to complete.
  ReadStatus ReadLine(std::string* line, double timeout_s);

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scan_from_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
