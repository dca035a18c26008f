//===- Server.h - Unix-domain NDJSON request server -------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer of `ltp-serve`: a Unix-domain stream socket
/// accepting newline-delimited JSON requests (serve/Protocol.h), one
/// handler thread per connection, all optimize requests funneled into a
/// shared OptimizerService. The server owns no optimization state — it
/// parses, dispatches, serializes — so everything interesting about
/// concurrency lives in the service's dedup table and the JIT's sharded
/// memo underneath.
///
/// Shutdown is two-phase: anything (a connection handler serving
/// `{"op":"shutdown"}`, a signal handler via requestStop) may *request*
/// a stop, and the thread blocked in wait() — normally main — performs
/// the actual teardown. Handlers never join themselves.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_SERVE_SERVER_H
#define LTP_SERVE_SERVER_H

#include "serve/OptimizerService.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ltp {
namespace serve {

/// The longest request line a connection may send (1 MiB, newline not
/// counted). The largest schedule text any kernel needs is a few hundred
/// KB; past the cap the connection gets one `bad_request` naming the
/// limit and is closed, so no client can make the daemon buffer an
/// unbounded line.
constexpr size_t MaxRequestLineBytes = size_t(1) << 20;

/// See file comment. One instance per daemon.
class Server {
public:
  /// \p SocketPath is unlinked (if stale) and bound.
  Server(std::string SocketPath, ServiceOptions Opts = {});
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens and starts the accept thread. Returns false with
  /// \p Error filled when the socket cannot be set up.
  bool start(std::string *Error = nullptr);

  /// Blocks until a stop is requested (shutdown op, requestStop, or
  /// signal flag polled every 100ms), then tears the server down.
  /// \p Poll, when set, runs on every 100ms wakeup on the waiting
  /// thread — the daemon services async requests that must not run in
  /// signal context there (SIGUSR2 flight-recorder dumps).
  void wait(const std::atomic<bool> *SignalFlag = nullptr,
            const std::function<void()> &Poll = {});

  /// Requests an orderly stop from any thread (non-blocking, safe to
  /// call repeatedly).
  void requestStop();

  /// True once a stop has been requested.
  bool stopRequested() const { return StopFlag.load(); }

  const std::string &socketPath() const { return SocketPath; }

  /// The shared optimization engine (tests poke counters through it).
  OptimizerService &service() { return Service; }

private:
  /// Accepts on \p ListenSocket, a copy of ListenFd: teardown resets the
  /// member while this loop may still be reading it.
  void acceptLoop(int ListenSocket);
  void handleConnection(int Fd);
  /// Closes the listening socket, wakes handlers, joins all threads.
  void teardown();

  std::string SocketPath;
  OptimizerService Service;
  int ListenFd = -1;
  std::thread Acceptor;
  std::atomic<bool> StopFlag{false};
  std::mutex StopMu;
  std::condition_variable StopCv;
  std::mutex ConnMu;
  std::vector<std::thread> Handlers;
  std::vector<int> OpenFds;
  bool TornDown = false;
};

} // namespace serve
} // namespace ltp

#endif // LTP_SERVE_SERVER_H
