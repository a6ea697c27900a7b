#include "process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/json.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsLeft(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

int PollMs(Clock::time_point deadline) {
  double left = SecondsLeft(deadline);
  if (left <= 0) return 0;
  return static_cast<int>(left * 1000.0) + 1;
}

}  // namespace

cupid::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::vector<std::string>& env, const std::string& log_path,
    double timeout_s) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return cupid::Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);

  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_storage = env;
  std::vector<char*> envp;
  for (std::string& e : env_storage) envp.push_back(e.data());
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  envp.push_back(nullptr);

  pid_t pid = -1;
  int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                       envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    return cupid::Status::IoError("spawn " + binary + ": " +
                                  std::strerror(rc));
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, pipe_fds[0]));

  // Read the announcement line byte-wise: nothing after it may be consumed
  // (the shutdown stats line follows much later).
  std::string line;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    struct pollfd pfd = {server->stdout_fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, PollMs(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      return cupid::Status::Unavailable("no listen announcement from server");
    }
    char c;
    ssize_t n = read(server->stdout_fd_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return cupid::Status::Unavailable("server exited before listening");
    }
    if (c == '\n') break;
    line.push_back(c);
  }
  auto parsed = cupid::ParseJson(line);
  if (!parsed.ok() || parsed->GetString("cmd") != "listen" ||
      parsed->GetInt("port", 0) <= 0) {
    return cupid::Status::Unavailable("unexpected announcement: " + line);
  }
  server->port_ = static_cast<int>(parsed->GetInt("port", 0));
  return server;
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

ServerProcess::Usage ServerProcess::ReadUsage() const {
  Usage usage;
  if (pid_ <= 0) return usage;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name: state is field 3,
  // minflt field 10, utime 14, stime 15.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return usage;
  std::istringstream fields(line.substr(close + 2));
  std::vector<std::string> f;
  for (std::string token; fields >> token;) f.push_back(token);
  if (f.size() < 13) return usage;
  const double ms_per_tick = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  usage.minor_faults = std::atof(f[7].c_str());
  usage.cpu_ms = (std::atof(f[11].c_str()) + std::atof(f[12].c_str())) *
                 ms_per_tick;
  return usage;
}

void ServerProcess::Stop(double timeout_s) {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    bool reaped = false;
    while (!reaped && SecondsLeft(deadline) > 0) {
      int status = 0;
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (!reaped) {
      std::fprintf(stderr, "perfbench: server %d ignored SIGTERM; killing\n",
                   static_cast<int>(pid_));
      kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

cupid::Status LineClient::Connect(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return cupid::Status::IoError(std::string("socket: ") +
                                  std::strerror(errno));
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return cupid::Status::IoError(std::string("connect: ") +
                                  std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return cupid::Status::OK();
}

bool LineClient::Send(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = send(fd_, framed.data() + off, framed.size() - off,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

LineClient::ReadStatus LineClient::ReadLine(std::string* line,
                                            double timeout_s) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    size_t nl = buffer_.find('\n', scan_from_);
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scan_from_ = 0;
      return ReadStatus::kOk;
    }
    scan_from_ = buffer_.size();
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, PollMs(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return ReadStatus::kTimeout;
    if (ready < 0) return ReadStatus::kClosed;
    char chunk[65536];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return ReadStatus::kClosed;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
