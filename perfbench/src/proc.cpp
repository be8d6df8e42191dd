#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "metrics.hpp"

namespace perfbench {

namespace {

/// Polls waitpid until the child is reaped or `timeout_s` passes.
bool reap_within(pid_t pid, double timeout_s, int& status) {
  const double deadline = now_s() + timeout_s;
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) {
      return true;
    }
    if (now_s() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path, double timeout_s) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error("cannot open " + log_path);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(log_fd);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  ::close(log_fd);
  stdout_fd_ = out_pipe[0];

  // Read until the announcement line; the servers flush it with endl.
  std::string buffer;
  const double deadline = now_s() + timeout_s;
  while (port_ == 0) {
    const double left = deadline - now_s();
    if (left <= 0) {
      break;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      break;
    }
    char chunk[256];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      break;  // the child exited before announcing
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = buffer.find("LISTENING ");
    if (at != std::string::npos &&
        buffer.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::stoul(buffer.substr(at + 10)));
    }
  }
  if (port_ == 0) {
    stop(1.0);
    throw std::runtime_error("server did not announce a port: " + argv[0] +
                             " (log: " + log_path + ")");
  }
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop(double grace_s) {
  if (pid_ <= 0) {
    return true;
  }
  int status = 0;
  ::kill(pid_, SIGTERM);
  bool clean = reap_within(pid_, grace_s, status);
  if (!clean) {
    ::kill(pid_, SIGKILL);
    reap_within(pid_, 10.0, status);
  }
  clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return clean;
}

}  // namespace perfbench
