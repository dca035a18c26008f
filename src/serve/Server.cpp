//===- Server.cpp - Unix-domain NDJSON request server ---------------------===//

#include "serve/Server.h"

#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ltp;
using namespace ltp::serve;

namespace {

obs::Counter &connectionsCounter() {
  static obs::Counter &C = obs::counter("serve.connections");
  return C;
}

/// Writes all of \p Data (plus newline) to \p Fd; false on error.
bool writeLine(int Fd, const std::string &Data) {
  std::string Line = Data + "\n";
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string statsJson() {
  return "{\"ok\": true, " + obs::renderStatsJson(obs::snapshotMetrics()) +
         "}";
}

/// Common prefix of the inline-op responses: ok + echoed id + the
/// request ID minted for this line.
std::string responseHead(const Request &Req) {
  std::string Out = "{\"ok\": true";
  if (!Req.Id.empty())
    Out += ", \"id\": \"" + obs::jsonEscape(Req.Id) + "\"";
  if (!Req.RequestId.empty())
    Out += ", \"request_id\": \"" + obs::jsonEscape(Req.RequestId) + "\"";
  return Out;
}

std::string metricsJson(const Request &Req) {
  // The exposition text rides inside the NDJSON envelope as one escaped
  // string field, keeping the wire protocol uniformly line-JSON; the
  // client's --metrics flag unescapes it back to scrapeable text.
  return responseHead(Req) + ", \"metrics\": \"" +
         obs::jsonEscape(obs::renderPrometheusText(obs::snapshotMetrics())) +
         "\"}";
}

std::string dumpJson(const Request &Req) {
  obs::FlightRecorder &Recorder = obs::flightRecorder();
  return responseHead(Req) +
         strFormat(", \"flight_recorder\": %s, \"capacity\": %zu, "
                   "\"recorded\": %llu}",
                   Recorder.requestsJsonArray().c_str(), Recorder.capacity(),
                   static_cast<unsigned long long>(
                       Recorder.totalRecorded()));
}

} // namespace

Server::Server(std::string SocketPath, ServiceOptions Opts)
    : SocketPath(std::move(SocketPath)), Service(std::move(Opts)) {}

Server::~Server() { teardown(); }

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  ::unlink(SocketPath.c_str()); // stale socket from a dead daemon
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind " + SocketPath);
  if (::listen(ListenFd, 128) < 0)
    return Fail("listen");

  Acceptor = std::thread([this, Fd = ListenFd] { acceptLoop(Fd); });
  return true;
}

void Server::acceptLoop(int ListenSocket) {
  for (;;) {
    int Fd = ::accept(ListenSocket, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // Closed listening socket (teardown) or fatal error: stop.
      return;
    }
    if (StopFlag.load()) {
      ::close(Fd);
      return;
    }
    connectionsCounter().add();
    std::lock_guard<std::mutex> Lock(ConnMu);
    OpenFds.push_back(Fd);
    Handlers.emplace_back([this, Fd] { handleConnection(Fd); });
  }
}

void Server::handleConnection(int Fd) {
  // Live-connection gauge updates unconditionally (not gated on
  // metricsEnabled) so the inc/dec pairing can never be split by a
  // mid-connection toggle.
  obs::Gauge &Live = obs::gauge("serve.live_connections");
  Live.add(1);
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::logEvent(obs::LogLevel::Debug, "server", "connection open",
                  {{"fd", static_cast<int64_t>(Fd)}});
  std::string Buffer;
  char Chunk[4096];
  bool Open = true;
  auto RejectBadRequest = [&](const std::string &Error) {
    Response R;
    R.Kind = ErrorKind::BadRequest;
    R.Error = Error;
    obs::counter("serve.errors").add();
    if (obs::logEnabled(obs::LogLevel::Warn))
      obs::logEvent(obs::LogLevel::Warn, "server", "bad request",
                    {{"error", Error}});
    return writeLine(Fd, renderResponse(R));
  };
  // Answers an over-long line once, then closes the connection: the rest
  // of the line would be read as garbage requests.
  auto RejectLongLine = [&] {
    RejectBadRequest(strFormat("request line exceeds %zu bytes",
                               MaxRequestLineBytes));
    Open = false;
  };
  while (Open && !StopFlag.load()) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));

    size_t Pos;
    while (Open && (Pos = Buffer.find('\n')) != std::string::npos) {
      if (Pos > MaxRequestLineBytes) {
        RejectLongLine();
        break;
      }
      std::string Line = Buffer.substr(0, Pos);
      Buffer.erase(0, Pos + 1);
      if (Line.empty())
        continue;

      ErrorOr<Request> Req = parseRequest(Line);
      if (!Req) {
        Open = RejectBadRequest(Req.getError());
        continue;
      }

      // Mint the per-request ID here, at the protocol boundary, so
      // every downstream log line, span, provenance record, and flight
      // digest for this line shares one join key.
      Req->RequestId = mintRequestId();
      obs::RequestIdScope RidScope(Req->RequestId);

      if (Req->Op == "ping") {
        std::string Pong = responseHead(*Req);
        Pong += ", \"pong\": true}";
        Open = writeLine(Fd, Pong);
      } else if (Req->Op == "stats") {
        Open = writeLine(Fd, statsJson());
      } else if (Req->Op == "metrics") {
        Open = writeLine(Fd, metricsJson(*Req));
      } else if (Req->Op == "dump") {
        Open = writeLine(Fd, dumpJson(*Req));
      } else if (Req->Op == "shutdown") {
        writeLine(Fd, "{\"ok\": true, \"stopping\": true}");
        requestStop();
        Open = false;
      } else {
        Open = writeLine(Fd, renderResponse(Service.handle(*Req)));
      }
    }
    if (Open && Buffer.size() > MaxRequestLineBytes)
      RejectLongLine();
  }
  {
    // Deregister before closing so teardown never shutdown()s a
    // recycled descriptor number.
    std::lock_guard<std::mutex> Lock(ConnMu);
    OpenFds.erase(std::remove(OpenFds.begin(), OpenFds.end(), Fd),
                  OpenFds.end());
  }
  ::close(Fd);
  Live.add(-1);
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::logEvent(obs::LogLevel::Debug, "server", "connection closed",
                  {{"fd", static_cast<int64_t>(Fd)}});
}

void Server::requestStop() {
  StopFlag.store(true);
  StopCv.notify_all();
}

void Server::wait(const std::atomic<bool> *SignalFlag,
                  const std::function<void()> &Poll) {
  std::unique_lock<std::mutex> Lock(StopMu);
  for (;;) {
    if (StopFlag.load())
      break;
    if (SignalFlag && SignalFlag->load()) {
      StopFlag.store(true);
      break;
    }
    if (Poll)
      Poll();
    StopCv.wait_for(Lock, std::chrono::milliseconds(100));
  }
  Lock.unlock();
  teardown();
}

void Server::teardown() {
  StopFlag.store(true);
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    if (TornDown)
      return;
    TornDown = true;
  }
  if (ListenFd >= 0) {
    // shutdown() wakes the blocked accept(); close() alone does not on
    // all platforms.
    ::shutdown(ListenFd, SHUT_RDWR);
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : OpenFds)
      ::shutdown(Fd, SHUT_RDWR); // unblocks handlers stuck in read()
    OpenFds.clear();
    ToJoin.swap(Handlers);
  }
  for (std::thread &T : ToJoin)
    T.join();
  ::unlink(SocketPath.c_str());
}
