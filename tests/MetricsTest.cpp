//===- MetricsTest.cpp - metrics, logs, flight recorder, request IDs ------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The production-observability layer end to end: log-linear histogram
// bucket/merge/quantile invariants (including under concurrent
// observation), gauge semantics, the Prometheus exposition against its
// own checker (well-formed output passes, seeded corruptions fail), the
// structured JSON logger's line well-formedness, flight-recorder ring
// wraparound, and request-ID propagation through a real socket round
// trip — the response, the flight-recorder digest and the log line of
// one request must all carry the same server-minted ID.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/MetricsCheck.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ltp;
using namespace ltp::obs;

namespace {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundsContainTheirObservations) {
  // Every bucket's [lower, upper) range must contain the values that
  // index into it, across the sub-millisecond and the large octaves.
  for (uint64_t Nanos :
       {uint64_t(0), uint64_t(1), uint64_t(7), uint64_t(8), uint64_t(1000),
        uint64_t(999999), uint64_t(1000000), uint64_t(123456789),
        uint64_t(1) << 40, uint64_t(1) << 62}) {
    size_t Index = Histogram::bucketIndex(Nanos);
    ASSERT_LT(Index, Histogram::NumBuckets);
    double Millis = static_cast<double>(Nanos) / 1e6;
    EXPECT_GE(Millis, Histogram::bucketLowerMillis(Index))
        << "nanos=" << Nanos;
    EXPECT_LT(Millis, Histogram::bucketUpperMillis(Index))
        << "nanos=" << Nanos;
  }
}

TEST(Histogram, QuantilesAreMonotonicAndBracketed) {
  Histogram H;
  for (int I = 1; I <= 1000; ++I)
    H.observe(I * 0.1); // 0.1 .. 100 ms
  Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1000u);
  double Previous = 0.0;
  for (double Q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    double V = S.quantile(Q);
    EXPECT_GE(V, Previous) << "quantile " << Q;
    Previous = V;
  }
  // The log-linear buckets bound relative error at 12.5% before
  // interpolation; allow a loose factor-of-two window around truth.
  EXPECT_NEAR(S.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(S.quantile(0.99), 99.0, 15.0);
  EXPECT_LE(S.quantile(1.0), 112.0);
}

TEST(Histogram, EmptySnapshotHasNegativeQuantile) {
  Histogram H;
  EXPECT_LT(H.snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, MergeEqualsUnionOfObservations) {
  Histogram A, B, Union;
  for (int I = 0; I != 500; ++I) {
    double MsA = 0.05 * (I + 1);
    double MsB = 2.0 * (I + 1);
    A.observe(MsA);
    Union.observe(MsA);
    B.observe(MsB);
    Union.observe(MsB);
  }
  Histogram::Snapshot Merged = A.snapshot();
  Merged.merge(B.snapshot());
  Histogram::Snapshot Expected = Union.snapshot();
  EXPECT_EQ(Merged.Count, Expected.Count);
  EXPECT_DOUBLE_EQ(Merged.SumMillis, Expected.SumMillis);
  ASSERT_EQ(Merged.Counts.size(), Expected.Counts.size());
  for (size_t I = 0; I != Merged.Counts.size(); ++I)
    EXPECT_EQ(Merged.Counts[I], Expected.Counts[I]) << "bucket " << I;
  for (double Q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(Merged.quantile(Q), Expected.quantile(Q));
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  Histogram H;
  constexpr int Threads = 8;
  constexpr int PerThread = 20000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (int I = 0; I != PerThread; ++I)
        H.observe(0.01 * ((T * PerThread + I) % 997 + 1));
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(H.snapshot().Count,
            static_cast<uint64_t>(Threads) * PerThread);
}

TEST(Histogram, ExtremeObservationsClampInsteadOfCrashing) {
  Histogram H;
  H.observe(-5.0);            // clamps to 0
  H.observe(0.0);
  H.observe(1e300);           // clamps to the top bucket
  Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_GE(S.quantile(1.0), 0.0);
}

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

TEST(Gauge, SetAddAndRegistryIdentity) {
  Gauge &G = gauge("test.metrics_gauge");
  G.set(5);
  G.add(3);
  G.add(-4);
  EXPECT_EQ(G.value(), 4);
  // The registry hands back the same instance for the same name.
  EXPECT_EQ(&G, &gauge("test.metrics_gauge"));
  bool Found = false;
  for (const auto &[Name, Value] : snapshotMetrics().Gauges)
    if (Name == "test.metrics_gauge") {
      Found = true;
      EXPECT_EQ(Value, 4);
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition and its checker
//===----------------------------------------------------------------------===//

TEST(Exposition, RenderedTextPassesTheChecker) {
  // Populate at least one of each family kind, bypassing the
  // metricsEnabled gate by writing to the registry objects directly
  // (which is what instrumented call sites do once the guard passes).
  histogram("test.render_ms").observe(1.25);
  histogram("test.render_ms").observe(40.0);
  gauge("test.render_gauge").set(7);

  std::string Text = renderPrometheusText(snapshotMetrics());
  std::string Summary, Error;
  EXPECT_TRUE(checkMetricsText(Text, &Summary, &Error)) << Error;

  bool SawHistogram = false;
  for (const std::string &Name : metricFamilyNames(Text))
    if (Name == "ltp_test_render_ms")
      SawHistogram = true;
  EXPECT_TRUE(SawHistogram) << Text;
}

// Every surface renders the one snapshot: each counter and gauge must
// show the same value in the Prometheus text, the stats JSON and the
// footer, and no surface may list a metric the snapshot lacks.
TEST(Exposition, RenderersAgreeOnOneSnapshot) {
  counter("test.agree_counter").add(5);
  gauge("test.agree_gauge").set(-3);
  histogram("test.agree_ms").observe(2.0);
  const MetricsSnapshot S = snapshotMetrics();
  ASSERT_FALSE(S.Counters.empty());
  ASSERT_FALSE(S.Gauges.empty());

  // Prometheus: the `name value` sample of each counter/gauge family.
  std::map<std::string, std::string> Prom;
  std::istringstream Lines(renderPrometheusText(S));
  std::string Kind;
  for (std::string Line; std::getline(Lines, Line);) {
    std::istringstream Fields(Line);
    std::string First, Second, Family;
    Fields >> First >> Second;
    if (First == "#")
      Fields >> Family >> Kind; // `# TYPE <family> <kind>`
    else if (Kind != "histogram")
      Prom[First] = Second;
  }

  std::string Error;
  std::unique_ptr<JsonValue> Stats =
      parseJson("{\"ok\": true, " + renderStatsJson(S) + "}", &Error);
  ASSERT_TRUE(Stats) << Error;

  const std::string FooterLine = renderFooter(S);
  ASSERT_EQ(FooterLine.rfind("telemetry        :", 0), 0u) << FooterLine;
  std::map<std::string, std::string> Footer;
  std::istringstream Tokens(FooterLine.substr(FooterLine.find(':') + 1));
  for (std::string Token; Tokens >> Token;)
    Footer[Token.substr(0, Token.find('='))] =
        Token.substr(Token.find('=') + 1);

  size_t Listed = 0;
  for (const auto &[Block, Values] : {std::make_pair("counters", &S.Counters),
                                      std::make_pair("gauges", &S.Gauges)}) {
    const JsonValue *Object = Stats->find(Block);
    ASSERT_NE(Object, nullptr) << Block;
    EXPECT_EQ(Object->Members.size(), Values->size()) << Block;
    for (const auto &[Name, Value] : *Values) {
      const std::string Want = std::to_string(Value);
      EXPECT_EQ(Prom[prometheusName(Name)], Want) << Name;
      const JsonValue *Member = Object->find(Name);
      ASSERT_NE(Member, nullptr) << Name;
      EXPECT_EQ(Member->NumberValue, static_cast<double>(Value)) << Name;
      EXPECT_EQ(Footer[Name], Want) << Name;
    }
    Listed += Values->size();
  }
  EXPECT_EQ(Prom.size(), Listed);
  EXPECT_EQ(Footer.size(), Listed);
}

TEST(Exposition, CheckerRejectsSeededCorruptions) {
  const std::string Good = "# TYPE ltp_x_ms histogram\n"
                           "ltp_x_ms_bucket{le=\"1\"} 2\n"
                           "ltp_x_ms_bucket{le=\"2\"} 3\n"
                           "ltp_x_ms_bucket{le=\"+Inf\"} 4\n"
                           "ltp_x_ms_sum 5.5\n"
                           "ltp_x_ms_count 4\n";
  std::string Error;
  ASSERT_TRUE(checkMetricsText(Good, nullptr, &Error)) << Error;

  struct Corruption {
    const char *Name;
    std::string Text;
  } Cases[] = {
      {"sample without TYPE", "ltp_y_total 3\n"},
      {"non-cumulative buckets",
       "# TYPE ltp_x_ms histogram\n"
       "ltp_x_ms_bucket{le=\"1\"} 5\n"
       "ltp_x_ms_bucket{le=\"2\"} 3\n"
       "ltp_x_ms_bucket{le=\"+Inf\"} 5\n"
       "ltp_x_ms_sum 5.5\nltp_x_ms_count 5\n"},
      {"+Inf != count",
       "# TYPE ltp_x_ms histogram\n"
       "ltp_x_ms_bucket{le=\"1\"} 2\n"
       "ltp_x_ms_bucket{le=\"+Inf\"} 4\n"
       "ltp_x_ms_sum 5.5\nltp_x_ms_count 9\n"},
      {"missing +Inf",
       "# TYPE ltp_x_ms histogram\n"
       "ltp_x_ms_bucket{le=\"1\"} 2\n"
       "ltp_x_ms_sum 5.5\nltp_x_ms_count 2\n"},
      {"le bounds not increasing",
       "# TYPE ltp_x_ms histogram\n"
       "ltp_x_ms_bucket{le=\"2\"} 2\n"
       "ltp_x_ms_bucket{le=\"1\"} 3\n"
       "ltp_x_ms_bucket{le=\"+Inf\"} 3\n"
       "ltp_x_ms_sum 5.5\nltp_x_ms_count 3\n"},
      {"negative counter", "# TYPE ltp_y_total counter\nltp_y_total -3\n"},
      {"duplicate sample",
       "# TYPE ltp_y_total counter\nltp_y_total 3\nltp_y_total 4\n"},
      {"garbage value", "# TYPE ltp_y_total counter\nltp_y_total banana\n"},
  };
  for (const Corruption &C : Cases)
    EXPECT_FALSE(checkMetricsText(C.Text, nullptr, nullptr)) << C.Name;
}

//===----------------------------------------------------------------------===//
// Structured JSON logs
//===----------------------------------------------------------------------===//

class TempFile {
public:
  explicit TempFile(const char *Tag)
      : Path("/tmp/ltp-metrics-test-" + std::string(Tag) + "-" +
             std::to_string(static_cast<long>(::getpid()))) {}
  ~TempFile() { ::unlink(Path.c_str()); }
  const std::string Path;
};

[[maybe_unused]] std::vector<std::string>
fileLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

TEST(Log, EmitsWellFormedJsonLines) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "logging compiled out";
#else
  TempFile Tmp("log");
  ASSERT_TRUE(setLogFile(Tmp.Path));
  setLogLevel(LogLevel::Info);

  logEvent(LogLevel::Info, "test", "plain message");
  logEvent(LogLevel::Warn, "test", "escaping \"quotes\"\nnewlines\tand\\",
           {{"str", "va\"lue"},
            {"num", 1.5},
            {"int", int64_t(42)},
            {"flag", true},
            LogField::raw("nested", "{\"a\":[1,2]}")});
  logEvent(LogLevel::Debug, "test", "below threshold — must not appear");

  setLogLevel(LogLevel::Off);
  ASSERT_TRUE(setLogFile(""));

  std::vector<std::string> Lines = fileLines(Tmp.Path);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &Line : Lines) {
    std::string Error;
    std::unique_ptr<JsonValue> Doc = parseJson(Line, &Error);
    ASSERT_TRUE(Doc) << Error << "\nline: " << Line;
    ASSERT_TRUE(Doc->isObject());
    EXPECT_TRUE(Doc->find("ts_ms") && Doc->find("ts_ms")->isNumber());
    EXPECT_TRUE(Doc->find("level") && Doc->find("level")->isString());
    EXPECT_TRUE(Doc->find("component"));
    EXPECT_TRUE(Doc->find("msg"));
  }
  std::unique_ptr<JsonValue> Second = parseJson(Lines[1], nullptr);
  const JsonValue *Msg = Second->find("msg");
  ASSERT_TRUE(Msg);
  EXPECT_EQ(Msg->StringValue, "escaping \"quotes\"\nnewlines\tand\\");
  EXPECT_EQ(Second->find("str")->StringValue, "va\"lue");
  EXPECT_DOUBLE_EQ(Second->find("num")->NumberValue, 1.5);
  EXPECT_TRUE(Second->find("flag")->BoolValue);
  ASSERT_TRUE(Second->find("nested")->isObject());
#endif
}

TEST(Log, RequestIdScopeStampsAndRestores) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "logging compiled out";
#else
  TempFile Tmp("ridlog");
  ASSERT_TRUE(setLogFile(Tmp.Path));
  setLogLevel(LogLevel::Info);
  EXPECT_EQ(currentRequestId(), "");
  {
    RequestIdScope Outer("r-outer");
    EXPECT_EQ(currentRequestId(), "r-outer");
    {
      RequestIdScope Inner("r-inner");
      logEvent(LogLevel::Info, "test", "inner");
    }
    EXPECT_EQ(currentRequestId(), "r-outer");
  }
  EXPECT_EQ(currentRequestId(), "");
  setLogLevel(LogLevel::Off);
  ASSERT_TRUE(setLogFile(""));

  std::vector<std::string> Lines = fileLines(Tmp.Path);
  ASSERT_EQ(Lines.size(), 1u);
  std::unique_ptr<JsonValue> Doc = parseJson(Lines[0], nullptr);
  ASSERT_TRUE(Doc && Doc->find("request_id"));
  EXPECT_EQ(Doc->find("request_id")->StringValue, "r-inner");
#endif
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, RingWrapsKeepingTheNewest) {
  FlightRecorder Ring(4);
  for (int I = 0; I != 10; ++I) {
    RequestDigest D;
    D.RequestId = "r-" + std::to_string(I);
    D.Ok = true;
    Ring.record(std::move(D));
  }
  EXPECT_EQ(Ring.capacity(), 4u);
  EXPECT_EQ(Ring.totalRecorded(), 10u);
  std::vector<RequestDigest> Digests = Ring.snapshot();
  ASSERT_EQ(Digests.size(), 4u);
  // Oldest first: 6, 7, 8, 9.
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Digests[I].RequestId, "r-" + std::to_string(6 + I));
}

TEST(FlightRecorderTest, DumpJsonIsParseableAndComplete) {
  FlightRecorder Ring(3);
  RequestDigest D;
  D.RequestId = "r-x";
  D.Op = "optimize";
  D.Kernel = "copy";
  D.Dedup = "miss";
  D.Error = "needs \"escaping\"\n";
  D.TotalMillis = 1.5;
  D.StageMillis = {{"opt.stage0", 0.5}, {"compile", 1.0}};
  Ring.record(D);

  std::string Error;
  std::unique_ptr<JsonValue> Doc = parseJson(Ring.dumpJson(), &Error);
  ASSERT_TRUE(Doc) << Error;
  const JsonValue *Requests = Doc->find("flight_recorder");
  ASSERT_TRUE(Requests && Requests->isArray());
  ASSERT_EQ(Requests->Elements.size(), 1u);
  const JsonValue &R = Requests->Elements[0];
  EXPECT_EQ(R.find("request_id")->StringValue, "r-x");
  EXPECT_EQ(R.find("error")->StringValue, "needs \"escaping\"\n");
  ASSERT_TRUE(R.find("stages") && R.find("stages")->isObject());
  EXPECT_DOUBLE_EQ(R.find("stages")->find("compile")->NumberValue, 1.0);
  EXPECT_DOUBLE_EQ(Doc->find("capacity")->NumberValue, 3.0);
  EXPECT_DOUBLE_EQ(Doc->find("recorded")->NumberValue, 1.0);
}

//===----------------------------------------------------------------------===//
// End-to-end: request IDs through a socket round trip
//===----------------------------------------------------------------------===//

class ClientConn {
public:
  explicit ClientConn(const std::string &Path) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ClientConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  std::string roundTrip(const std::string &Request) {
    std::string Out = Request + "\n";
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return "";
      }
      Off += static_cast<size_t>(N);
    }
    size_t Pos;
    while ((Pos = Buffer.find('\n')) == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return "";
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, Pos);
    Buffer.erase(0, Pos + 1);
    return Line;
  }

private:
  int Fd = -1;
  std::string Buffer;
};

std::string requestIdOf(const std::string &ResponseLine) {
  std::unique_ptr<JsonValue> Doc = parseJson(ResponseLine, nullptr);
  const JsonValue *Rid = Doc ? Doc->find("request_id") : nullptr;
  return Rid && Rid->isString() ? Rid->StringValue : "";
}

TEST(RequestIdEndToEnd, ResponseFlightDigestAndMetricsAgree) {
  std::string Path = "/tmp/ltp-metrics-e2e-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  serve::Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());

    // Every response carries a distinct server-minted request ID.
    std::string Ping = Conn.roundTrip("{\"op\": \"ping\"}");
    std::string PingRid = requestIdOf(Ping);
    EXPECT_EQ(PingRid.rfind("r-", 0), 0u) << Ping;

    std::string Opt = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": 64, "
        "\"arch\": \"6700\", \"compile\": false}");
    ASSERT_NE(Opt.find("\"ok\": true"), std::string::npos) << Opt;
    std::string OptRid = requestIdOf(Opt);
    EXPECT_EQ(OptRid.rfind("r-", 0), 0u) << Opt;
    EXPECT_NE(OptRid, PingRid);

    // The flight recorder's digest of that request carries the same ID
    // (the recorder is process-global; search rather than assume index).
    std::string Dump = Conn.roundTrip("{\"op\": \"dump\"}");
    std::unique_ptr<JsonValue> Doc = parseJson(Dump, &Error);
    ASSERT_TRUE(Doc) << Error << "\n" << Dump;
    const JsonValue *Requests = Doc->find("flight_recorder");
    ASSERT_TRUE(Requests && Requests->isArray()) << Dump;
    bool Found = false;
    for (const JsonValue &D : Requests->Elements)
      if (const JsonValue *Rid = D.find("request_id"))
        if (Rid->StringValue == OptRid) {
          Found = true;
          EXPECT_EQ(D.find("op")->StringValue, "optimize");
          EXPECT_EQ(D.find("kernel")->StringValue, "copy");
          EXPECT_TRUE(D.find("ok")->BoolValue);
        }
    EXPECT_TRUE(Found) << "no digest for " << OptRid << " in " << Dump;

    // The metrics op returns a checker-clean exposition.
    std::string Metrics = Conn.roundTrip("{\"op\": \"metrics\"}");
    std::unique_ptr<JsonValue> MetricsDoc = parseJson(Metrics, &Error);
    ASSERT_TRUE(MetricsDoc) << Error;
    const JsonValue *Text = MetricsDoc->find("metrics");
    ASSERT_TRUE(Text && Text->isString()) << Metrics;
    std::string Summary, CheckError;
    EXPECT_TRUE(checkMetricsText(Text->StringValue, &Summary, &CheckError))
        << CheckError;
#ifndef LTP_OBS_DISABLED
    // With metrics on, the request latency histogram must be present.
    bool SawLatency = false;
    for (const std::string &Name : metricFamilyNames(Text->StringValue))
      if (Name == "ltp_serve_request_ms")
        SawLatency = true;
    EXPECT_TRUE(SawLatency) << Text->StringValue;
#endif

    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

} // namespace
