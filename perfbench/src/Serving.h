//===- Serving.h - socket phases of the serving workloads -------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces the serving workloads share: the closed-loop client phase,
/// timed daemon start-ups, reply inspection and the warm_serve phases.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_SERVING_H
#define LTP_PERFBENCH_SERVING_H

#include "Common.h"
#include "Daemon.h"
#include "KeyStream.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Client connections of every serving phase (a closed loop: each client
/// sends its next request only after the previous reply arrived).
constexpr int NumClients = 4;

/// Outcome of one closed-loop phase.
struct Phase {
  /// Latency of every answered request and the offset from the phase
  /// start at which its reply arrived.
  std::vector<double> Millis;
  std::vector<double> DoneAt;
  size_t Sent = 0;
  size_t OkCount = 0;
  /// From the first send until the last client finished.
  double Seconds = 0.0;

  double p(double Q) const { return quantile(Millis, Q); }
  double throughput() const { return Seconds > 0 ? OkCount / Seconds : 0.0; }

  /// Median over the phase's roughly one-second windows of the latency
  /// quantile \p Q (or, with \p Q < 0, the replies per second) of the
  /// requests answered in each window. A burst of CPU taken by other
  /// tenants of the machine then moves only the windows it hit.
  double windowed(double Q) const;
};

/// Checks reply \p Reply to stream position \p Index (thread-safe).
using ReplyCheck = std::function<bool(size_t Index, const std::string &Reply)>;

/// Runs NumClients clients against \p D for \p Seconds (or until
/// \p Count requests were sent). A client sends LineOf(i) for each stream
/// position i it claims; no two sends are closer than \p MinSendGap
/// seconds.
Phase closedLoop(Daemon &D, double Seconds, size_t Count,
                 const std::function<const std::string &(size_t)> &LineOf,
                 const ReplyCheck &Check, double MinSendGap = 0.0);

/// Times \p Spawns daemon start-ups (spawn until the first `ping`
/// answers), 20 ms apart, on an empty store of their own, and appends them
/// to \p Times. False when a daemon did not start.
bool timeStartups(const Options &Opts, int Spawns, std::vector<double> &Times);

/// Starts the workload daemon on \p StoreDir and appends its start-up time
/// to \p Times. False when it did not start.
bool startTimed(Daemon &D, const Options &Opts, const std::string &StoreDir,
                std::vector<double> &Times);

/// A cold stream length that cannot run dry within the timed phase.
size_t coldStreamLength(const Options &Opts);

/// Daemon-wide counters from the `stats` op.
std::map<std::string, double> daemonCounters(Daemon &D);

/// Value of a top-level string field of a reply ("" when absent).
std::string replyField(const std::string &Reply, const std::string &Field);

/// The part of a reply that must be identical for every answer to one
/// canonical key: everything except request_id and the dedup outcome.
std::string replyPayload(const std::string &Reply);

/// The timed part of warm_serve: a seeded duplicate-only replay of
/// \p Pool for \p Seconds. Every reply must be a dedup-table hit with
/// exactly the payload the warm-up recorded for its key.
Phase replayWarm(Daemon &D, const std::vector<StreamRequest> &Pool,
                 const std::vector<std::string> &Payloads, uint64_t Seed,
                 double Seconds, Result &R);

/// Serves the warm_serve pool once (untimed; every key misses, compile
/// on) and records each key's reply payload. Returns its seconds, or -1.
double warmUp(Daemon &D, const std::vector<StreamRequest> &Pool,
              std::vector<std::string> &Payloads, Result &R);

} // namespace perfbench

#endif // LTP_PERFBENCH_SERVING_H
