//===- ltp-serve.cpp - optimization-as-a-service daemon and client ---------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Daemon: long-running optimization service on a Unix-domain socket.
// Identical requests — in flight or already served — share one
// optimization and one kernel compile against the content-addressed
// store, so a fleet of build jobs asking for the same (kernel, platform)
// pays for it once.
//
//   ltp-serve --socket /tmp/ltp.sock
//   ltp-serve --socket /tmp/ltp.sock --no-compile
//
// Client: one-shot requests against a running daemon (for scripts and CI;
// anything speaking newline-delimited JSON over the socket works too).
//
//   ltp-serve --connect /tmp/ltp.sock --kernel matmul --arch 6700
//   ltp-serve --connect /tmp/ltp.sock --kernel matmul --schedule TEXT
//             (TEXT e.g. "split(i, it, ii, 32); parallel(it);")
//   ltp-serve --connect /tmp/ltp.sock --request '{"op":"optimize",...}'
//   ltp-serve --connect /tmp/ltp.sock --stats | --ping | --shutdown
//
// Client exit codes mirror ltp-opt: 0 success, 2 the daemon classified
// the schedule illegal, 1 anything else (connect failure, bad request,
// internal error).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "serve/Server.h"
#include "support/ArgParse.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace ltp;
using namespace ltp::serve;

namespace {

std::atomic<bool> SignalStop{false};
std::atomic<bool> FlightDumpRequested{false};

void onSignal(int) { SignalStop.store(true); }

// SIGUSR2 only sets a flag; the actual dump (file I/O, JSON rendering)
// runs on the wait() thread's poll callback, never in signal context.
void onDumpSignal(int) { FlightDumpRequested.store(true); }

void printUsage() {
  std::printf(
      "usage: ltp-serve --socket PATH [daemon options]\n"
      "       ltp-serve --connect PATH [client options]\n"
      "\n"
      "daemon options:\n"
      "  --socket PATH       listen on this Unix-domain socket\n"
      "  --no-compile        serve schedules only, never compile kernels\n"
      "  --log-json[=FILE]   structured JSON logs to FILE (default stderr)\n"
      "  --log-level L       debug|info|warn|error|off (default info when\n"
      "                      --log-json is set; LTP_LOG otherwise)\n"
      "  --slow-ms N         slow-request log threshold in ms (0 = off)\n"
      "  --metrics-file PATH periodic Prometheus-text snapshots here\n"
      "  --metrics-interval-s N  snapshot cadence (default 10)\n"
      "  --flight-dump PATH  SIGUSR2 writes the flight-recorder ring here\n"
      "\n"
      "client options:\n"
      "  --connect PATH      daemon socket to talk to\n"
      "  --kernel NAME       optimize this benchmark kernel\n"
      "  --size N            problem size (0 = kernel default)\n"
      "  --arch NAME         5930k|6700|a15|host (default host)\n"
      "  --schedule \"...\"    replay this schedule instead of optimizing\n"
      "  --lint              request static diagnostics instead of\n"
      "                      compiled kernels (op \"lint\")\n"
      "  --no-nti            disable non-temporal stores\n"
      "  --no-compile        skip kernel compilation for this request\n"
      "  --id TEXT           request id echoed in the response\n"
      "  --request JSON      send this raw request line instead\n"
      "  --stats             dump the daemon's counters\n"
      "  --metrics           scrape Prometheus-text metrics (prints the\n"
      "                      exposition, not the JSON envelope)\n"
      "  --dump              dump the daemon's flight-recorder ring\n"
      "  --ping              liveness check\n"
      "  --shutdown          stop the daemon\n"
      "  --timeout-ms N      connect retry budget (default 3000)\n"
      "\n"
      "exit codes (client): 0 success; 2 schedule rejected as illegal;\n"
      "  1 anything else (connect failure, bad request, internal error)\n");
}

using obs::jsonEscape;

/// Builds the request line from convenience flags.
std::string buildRequest(const ArgParse &Args) {
  if (Args.has("request"))
    return Args.getString("request", "");
  if (Args.has("stats"))
    return "{\"op\": \"stats\"}";
  if (Args.has("metrics"))
    return "{\"op\": \"metrics\"}";
  if (Args.has("dump"))
    return "{\"op\": \"dump\"}";
  if (Args.has("ping"))
    return "{\"op\": \"ping\"}";
  if (Args.has("shutdown"))
    return "{\"op\": \"shutdown\"}";
  if (!Args.has("kernel"))
    return "";
  std::string Req = std::string("{\"op\": \"") +
                    (Args.has("lint") ? "lint" : "optimize") +
                    "\", \"kernel\": \"" +
                    jsonEscape(Args.getString("kernel", "")) + "\"";
  if (Args.has("size"))
    Req += ", \"size\": " + std::to_string(Args.getInt("size", 0));
  if (Args.has("arch"))
    Req += ", \"arch\": \"" + jsonEscape(Args.getString("arch", "host")) +
           "\"";
  if (Args.has("schedule"))
    Req += ", \"schedule\": \"" +
           jsonEscape(Args.getString("schedule", "")) + "\"";
  if (Args.has("no-nti"))
    Req += ", \"nti\": false";
  if (Args.has("no-compile"))
    Req += ", \"compile\": false";
  if (Args.has("id"))
    Req += ", \"id\": \"" + jsonEscape(Args.getString("id", "")) + "\"";
  Req += "}";
  return Req;
}

/// Connects to \p Path, retrying until \p TimeoutMs elapses (the daemon
/// may still be binding when a script races it).
int connectWithRetry(const std::string &Path, long TimeoutMs) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);

  long WaitedMs = 0;
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return Fd;
    ::close(Fd);
    if (WaitedMs >= TimeoutMs)
      return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    WaitedMs += 50;
  }
}

int runClient(const ArgParse &Args) {
  std::string Line = buildRequest(Args);
  if (Line.empty()) {
    std::fprintf(stderr,
                 "error: nothing to send (want --kernel, --request, "
                 "--stats, --metrics, --dump, --ping or --shutdown)\n");
    return 1;
  }
  std::string Path = Args.getString("connect", "");
  int Fd = connectWithRetry(Path, Args.getInt("timeout-ms", 3000));
  if (Fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n", Path.c_str());
    return 1;
  }
  Line += "\n";
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "error: write: %s\n", std::strerror(errno));
      ::close(Fd);
      return 1;
    }
    Off += static_cast<size_t>(N);
  }

  std::string Reply;
  char Chunk[4096];
  while (Reply.find('\n') == std::string::npos) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Reply.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t Nl = Reply.find('\n');
  if (Nl == std::string::npos) {
    std::fprintf(stderr, "error: daemon closed the connection without "
                         "replying\n");
    return 1;
  }
  Reply.resize(Nl);
  if (Args.has("metrics") &&
      Reply.find("\"ok\": true") != std::string::npos) {
    // Unwrap the exposition text from the JSON envelope so the output
    // is directly scrapeable (and pipeable into ltp-metrics-check).
    std::string ParseError;
    std::unique_ptr<obs::JsonValue> Doc = obs::parseJson(Reply, &ParseError);
    const obs::JsonValue *Text = Doc ? Doc->find("metrics") : nullptr;
    if (!Text || !Text->isString()) {
      std::fprintf(stderr, "error: malformed metrics response: %s\n",
                   ParseError.empty() ? "no \"metrics\" string field"
                                      : ParseError.c_str());
      return 1;
    }
    std::fputs(Text->StringValue.c_str(), stdout);
    return 0;
  }
  std::printf("%s\n", Reply.c_str());
  if (Reply.find("\"ok\": true") != std::string::npos)
    return 0;
  if (Reply.find("\"kind\": \"illegal_schedule\"") != std::string::npos)
    return 2;
  return 1;
}

/// Writes the flight-recorder ring to \p Path (whole-file replace).
void writeFlightDump(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "ltp-serve: cannot write flight dump %s: %s\n",
                 Path.c_str(), std::strerror(errno));
    return;
  }
  std::string Json = obs::flightRecorder().dumpJson();
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
  if (obs::logEnabled(obs::LogLevel::Info))
    obs::logEvent(obs::LogLevel::Info, "serve", "flight dump written",
                  {{"path", Path}});
}

int runDaemon(const ArgParse &Args) {
  // Observability setup happens before the socket binds so the very
  // first request is already logged and measured.
  if (Args.has("log-json")) {
    std::string LogPath = Args.getString("log-json", "");
    if (!LogPath.empty() && !obs::setLogFile(LogPath)) {
      std::fprintf(stderr, "error: cannot open log file %s\n",
                   LogPath.c_str());
      return 1;
    }
    if (obs::logLevel() == obs::LogLevel::Off)
      obs::setLogLevel(obs::LogLevel::Info);
  }
  if (Args.has("log-level")) {
    std::string LevelText = Args.getString("log-level", "");
    obs::LogLevel Level = obs::parseLogLevel(LevelText);
    if (Level == obs::LogLevel::Off && LevelText != "off") {
      std::fprintf(stderr, "error: bad --log-level (want debug|info|warn|"
                           "error|off)\n");
      return 1;
    }
    obs::setLogLevel(Level);
  }
  if (Args.has("slow-ms"))
    obs::setSlowRequestThresholdMs(Args.getDouble("slow-ms", 0.0));

  ServiceOptions Opts;
  Opts.DisableCompile = Args.has("no-compile");

  Server Srv(Args.getString("socket", ""), Opts);
  std::string Error;
  if (!Srv.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  std::unique_ptr<obs::MetricsSnapshotter> Snapshotter;
  if (Args.has("metrics-file"))
    Snapshotter = std::make_unique<obs::MetricsSnapshotter>(
        Args.getString("metrics-file", ""),
        Args.getInt("metrics-interval-s", 10));

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGUSR2, onDumpSignal);
  std::signal(SIGPIPE, SIG_IGN); // a vanished client must not kill us

  std::string FlightDumpPath = Args.getString("flight-dump", "");
  auto Poll = [&FlightDumpPath] {
    if (FlightDumpRequested.exchange(false) && !FlightDumpPath.empty())
      writeFlightDump(FlightDumpPath);
  };

  std::printf("ltp-serve: listening on %s\n", Srv.socketPath().c_str());
  std::fflush(stdout);
  if (obs::logEnabled(obs::LogLevel::Info))
    obs::logEvent(obs::LogLevel::Info, "serve", "listening",
                  {{"socket", Srv.socketPath()}});
  Srv.wait(&SignalStop, Poll);
  if (Snapshotter)
    Snapshotter->stop(); // final snapshot before the exit message
  std::printf("ltp-serve: stopped\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  if (Args.has("help")) {
    printUsage();
    return 0;
  }
  if (Args.has("connect"))
    return runClient(Args);
  if (Args.has("socket"))
    return runDaemon(Args);
  printUsage();
  return 1;
}
