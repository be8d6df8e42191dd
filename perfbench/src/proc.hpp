// Child server processes (congestbcd, congestbc_router): spawn, learn
// the port from the "LISTENING <port>" line, read memory, stop and reap.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `argv[0]` with its stderr appended to `log_path` and waits
  /// up to `timeout_s` for "LISTENING <port>" on its stdout.  Throws
  /// std::runtime_error when the process does not come up.
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s = 30.0);
  /// Stops the process if stop() was not called.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ServerProcess(ServerProcess&&) = delete;
  ServerProcess& operator=(ServerProcess&&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  /// SIGTERM, then SIGKILL after `grace_s`; always reaps.  Returns true
  /// when the process exited with status 0 on its own terminate path.
  bool stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
