//===- ObsTest.cpp - telemetry layer unit tests ---------------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Pins the contracts the instrumented layers rely on: spans nest and are
// safe to record from many threads, counters are atomic, the exported
// trace is valid Chrome-trace JSON by our own checker, and a *disabled*
// span performs no allocation at all — the property that makes it safe
// to leave instrumentation in hot paths.
//
//===----------------------------------------------------------------------===//

#include "obs/JsonCheck.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

using namespace ltp;

//===----------------------------------------------------------------------===//
// Global allocation counter (for the disabled-mode zero-allocation test)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<size_t> LiveAllocCount{0};
} // namespace

void *operator new(size_t Size) {
  LiveAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

namespace {

/// Resets the toggles and buffers every test depends on.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setTracingEnabled(false);
    obs::clearTrace();
  }
  void TearDown() override {
    obs::setTracingEnabled(false);
    obs::clearTrace();
  }
};

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, CounterHandlesAreStable) {
  obs::Counter &A = obs::counter("test.stable");
  obs::Counter &B = obs::counter("test.stable");
  EXPECT_EQ(&A, &B);
  int64_t Base = A.value();
  A.add();
  A.add(41);
  EXPECT_EQ(B.value(), Base + 42);
}

TEST_F(ObsTest, CounterSnapshotIsSortedAndComplete) {
  obs::resetCounters();
  obs::counter("test.zz").add(7);
  obs::counter("test.aa").add(3);
  const obs::NamedValues Snapshot = obs::snapshotMetrics().Counters;
  ASSERT_GE(Snapshot.size(), 2u);
  for (size_t I = 1; I != Snapshot.size(); ++I)
    EXPECT_LT(Snapshot[I - 1].first, Snapshot[I].first);
  bool SawAa = false, SawZz = false;
  for (const auto &[Name, Value] : Snapshot) {
    SawAa |= Name == "test.aa" && Value == 3;
    SawZz |= Name == "test.zz" && Value == 7;
  }
  EXPECT_TRUE(SawAa);
  EXPECT_TRUE(SawZz);
}

TEST_F(ObsTest, CounterIsAtomicUnderContention) {
  obs::Counter &C = obs::counter("test.contended");
  int64_t Base = C.value();
  constexpr int NumThreads = 8;
  constexpr int BumpsPerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I != BumpsPerThread; ++I)
        C.add();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), Base + int64_t(NumThreads) * BumpsPerThread);
}

TEST_F(ObsTest, ResetCountersZeroesValuesKeepsHandles) {
  obs::Counter &C = obs::counter("test.reset");
  C.add(5);
  obs::resetCounters();
  EXPECT_EQ(C.value(), 0);
  C.add(2); // the handle must stay usable after a reset
  EXPECT_EQ(obs::counter("test.reset").value(), 2);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpansNestAndRecordWhenEnabled) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "span recording compiled out";
#endif
  obs::setTracingEnabled(true);
  {
    obs::ScopedSpan Outer("test.outer");
    EXPECT_TRUE(Outer.active());
    {
      obs::ScopedSpan Inner("test.inner",
                            [] { return std::string("depth=2"); });
      EXPECT_TRUE(Inner.active());
    }
  }
  EXPECT_EQ(obs::traceEventCount(), 2u);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  {
    obs::ScopedSpan Span("test.off");
    EXPECT_FALSE(Span.active());
  }
  EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(ObsTest, DeferredArgsOnlyInvokedWhenEnabled) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "span recording compiled out";
#endif
  bool Invoked = false;
  {
    obs::ScopedSpan Span("test.deferred", [&Invoked] {
      Invoked = true;
      return std::string("x");
    });
  }
  EXPECT_FALSE(Invoked);

  obs::setTracingEnabled(true);
  {
    obs::ScopedSpan Span("test.deferred", [&Invoked] {
      Invoked = true;
      return std::string("x");
    });
  }
  EXPECT_TRUE(Invoked);
}

TEST_F(ObsTest, SpansAreThreadSafe) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "span recording compiled out";
#endif
  obs::setTracingEnabled(true);
  constexpr int NumThreads = 8;
  constexpr int SpansPerThread = 500;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I != SpansPerThread; ++I)
        obs::ScopedSpan Span("test.mt");
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(obs::traceEventCount(),
            size_t(NumThreads) * SpansPerThread);
}

TEST_F(ObsTest, DisabledSpanAllocatesNothing) {
  // The property that makes it safe to instrument hot loops: with
  // tracing off, constructing and destroying a span — including the
  // deferred-args form — must not touch the heap. Only this thread
  // runs during the measured window. Late-args call sites must use the
  // active() guard (as the instrumented layers do): setArgs takes the
  // string by value, so building the argument unconditionally would
  // allocate even when the span is inactive.
  ASSERT_FALSE(obs::tracingEnabled());
  size_t Before = LiveAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I != 1000; ++I) {
    obs::ScopedSpan Plain("test.noalloc");
    obs::ScopedSpan Deferred("test.noalloc.args", [] {
      return std::string("never built never built never built");
    });
    if (Plain.active())
      Plain.setArgs("never reached when tracing is disabled");
  }
  size_t After = LiveAllocCount.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
}

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, WrittenTraceIsValidAndContainsSpans) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "span recording compiled out";
#endif
  obs::setTracingEnabled(true);
  {
    obs::ScopedSpan Outer("test.export.outer",
                          [] { return std::string("k=1 name=\"quoted\""); });
    obs::ScopedSpan Inner("test.export.inner");
    Inner.setArgs("late args\nwith newline");
  }
  obs::counter("test.export.counter").add(3);

  const std::string Path =
      ::testing::TempDir() + "/ObsTest-trace.json";
  std::string Error;
  ASSERT_TRUE(obs::writeTrace(Path, &Error)) << Error;

  std::string Summary;
  EXPECT_TRUE(obs::checkTraceFile(Path, &Summary, &Error)) << Error;

  // Re-parse and verify our spans survived the JSON round trip with
  // escaping intact.
  std::ifstream In(Path);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  std::unique_ptr<obs::JsonValue> Root = obs::parseJson(Text, &Error);
  ASSERT_NE(Root, nullptr) << Error;
  const obs::JsonValue *Events = Root->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawOuter = false, SawInner = false;
  for (const obs::JsonValue &E : Events->Elements) {
    const obs::JsonValue *Name = E.find("name");
    const obs::JsonValue *Ph = E.find("ph");
    if (!Name || !Ph || Ph->StringValue != "X")
      continue;
    if (Name->StringValue == "test.export.outer") {
      SawOuter = true;
      const obs::JsonValue *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      const obs::JsonValue *Detail = Args->find("detail");
      ASSERT_NE(Detail, nullptr);
      EXPECT_EQ(Detail->StringValue, "k=1 name=\"quoted\"");
    }
    if (Name->StringValue == "test.export.inner") {
      SawInner = true;
      const obs::JsonValue *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      const obs::JsonValue *Detail = Args->find("detail");
      ASSERT_NE(Detail, nullptr);
      EXPECT_EQ(Detail->StringValue, "late args\nwith newline");
    }
  }
  EXPECT_TRUE(SawOuter);
  EXPECT_TRUE(SawInner);
  std::remove(Path.c_str());
}

TEST_F(ObsTest, ClearTraceDiscardsBufferedSpans) {
#ifdef LTP_OBS_DISABLED
  GTEST_SKIP() << "span recording compiled out";
#endif
  obs::setTracingEnabled(true);
  { obs::ScopedSpan Span("test.cleared"); }
  EXPECT_GT(obs::traceEventCount(), 0u);
  obs::clearTrace();
  EXPECT_EQ(obs::traceEventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// JSON parser negative cases
//===----------------------------------------------------------------------===//

TEST(JsonCheckTest, ParsesBasicDocuments) {
  std::string Error;
  auto Root = obs::parseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\ny\"}, "
      "\"t\": true, \"n\": null}",
      &Error);
  ASSERT_NE(Root, nullptr) << Error;
  const obs::JsonValue *A = Root->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->Elements.size(), 3u);
  EXPECT_DOUBLE_EQ(A->Elements[2].NumberValue, -300.0);
  const obs::JsonValue *B = Root->find("b");
  ASSERT_NE(B, nullptr);
  const obs::JsonValue *C = B->find("c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->StringValue, "x\ny");
}

TEST(JsonCheckTest, RejectsMalformedDocuments) {
  const char *Bad[] = {
      "",                   // empty
      "{",                  // unterminated object
      "[1, 2",              // unterminated array
      "{\"a\" 1}",          // missing colon
      "\"abc",              // unterminated string
      "tru",                // truncated literal
      "{\"a\": 1} x",       // trailing garbage
      "{\"a\": 1,}",        // trailing comma (strict)
      "\"a\\qb\"",          // unknown escape
      "01a",                // malformed number
  };
  for (const char *Text : Bad) {
    std::string Error;
    EXPECT_EQ(obs::parseJson(Text, &Error), nullptr)
        << "accepted: " << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(JsonCheckTest, RejectsNestingBeyondTheDepthLimit) {
  // The daemon parses every request line with parseJson: a deeply nested
  // line is an error, not a stack overflow.
  std::string Error;
  EXPECT_EQ(obs::parseJson(std::string(1000000, '['), &Error), nullptr);
  EXPECT_NE(Error.find("nesting deeper than 256 levels"), std::string::npos)
      << Error;
  std::string Deep = std::string(256, '[') + std::string(256, ']');
  EXPECT_NE(obs::parseJson(Deep, &Error), nullptr);
}

TEST(JsonCheckTest, RejectsNonTraceFiles) {
  const std::string Path =
      ::testing::TempDir() + "/ObsTest-not-a-trace.json";
  std::ofstream(Path) << "{\"traceEvents\": [{\"name\": \"x\"}]}";
  std::string Summary, Error;
  EXPECT_FALSE(obs::checkTraceFile(Path, &Summary, &Error));
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

} // namespace
