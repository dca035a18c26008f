//===- Daemon.h - spawn and talk to an ltp-serve daemon ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns one `ltp-serve` child process and speaks its NDJSON protocol over
/// the Unix socket. The daemon runs in the runner's private run directory
/// with its own kernel store; the destructor kills it, reaps it and removes
/// its socket on every exit path, and the child dies with the runner
/// (PR_SET_PDEATHSIG) should the runner itself be killed.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_DAEMON_H
#define LTP_PERFBENCH_DAEMON_H

#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace perfbench {

/// One client connection (blocking, line-oriented).
class Connection {
public:
  Connection() = default;
  explicit Connection(const std::string &SocketPath);
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool valid() const { return Fd >= 0; }
  /// Sends \p Line and reads one response line into \p Reply.
  bool roundTrip(const std::string &Line, std::string &Reply);

private:
  int Fd = -1;
  std::string Buffer;
};

class Daemon {
public:
  /// Spawns `Binary --socket <SocketName>` in the current directory with
  /// LTP_JIT_CACHE_DIR=\p StoreDir. Returns false when fork/exec fails.
  bool start(const std::string &Binary, const std::string &SocketName,
             const std::string &StoreDir);

  /// Polls `ping` until it answers or \p TimeoutSeconds pass.
  bool waitReady(double TimeoutSeconds);

  /// Sends one request on a fresh connection.
  bool request(const std::string &Line, std::string &Reply);

  pid_t pid() const { return Pid; }

  /// Sends `shutdown` and reaps the process (SIGKILL after a grace
  /// period). Safe to call more than once.
  void stop();

  const std::string &socket() const { return SocketName; }

  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

private:
  pid_t Pid = -1;
  std::string SocketName;
};

/// Seconds from spawning a daemon until its first `ping` answers; the
/// daemon is stopped again. -1 on failure.
double timeDaemonStartup(const std::string &Binary,
                         const std::string &SocketName,
                         const std::string &StoreDir);

} // namespace perfbench

#endif // LTP_PERFBENCH_DAEMON_H
