//===- Common.cpp - shared pieces of the benchmark runner -----------------===//

#include "Common.h"

#include "obs/JsonCheck.h"
#include "obs/Log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return -1.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return -1.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!std::isfinite(Value)) {
    // A metric that could not be measured makes the run unusable rather
    // than silently reporting a placeholder.
    Broken = true;
    FailureNotes.push_back("metric " + Name + " is not finite");
    Value = -1.0;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Result::attempt(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (FailureNotes.size() < 20 && !What.empty())
      FailureNotes.push_back(What);
  }
}

void Result::attempts(int64_t N, int64_t NumFailed, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  Attempted += N;
  Failed += NumFailed;
  if (NumFailed > 0 && FailureNotes.size() < 20)
    FailureNotes.push_back(std::to_string(NumFailed) + " x " + What);
}

void Result::fail(const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  Broken = true;
  if (FailureNotes.size() < 20)
    FailureNotes.push_back(What);
}

void Result::printTable(const Options &Opts) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(stderr, "\n%s (seed %llu, %s run): %lld attempted, %lld "
                       "failed, fail_ratio %.6f\n",
               Opts.Workload.c_str(),
               static_cast<unsigned long long>(Opts.Seed),
               Opts.Trace ? "traced" : "untraced",
               static_cast<long long>(Attempted),
               static_cast<long long>(Failed),
               Attempted ? static_cast<double>(Failed) / Attempted : 0.0);
  for (const std::string &Note : FailureNotes)
    std::fprintf(stderr, "  failure: %s\n", Note.c_str());
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-36s %14.6f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
}

std::string Result::jsonLine() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"correct\": ";
  Out += (Failed == 0 && !Broken && Attempted > 0) ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, Attempted));
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + ltp::obs::jsonEscape(Metrics[I].Name) +
           "\": {\"value\": " + Num + ", \"unit\": \"" +
           ltp::obs::jsonEscape(Metrics[I].Unit) + "\"}";
  }
  Out += "}}";
  return Out;
}

int SpanRecorder::begin(const char *Name, int Parent,
                        const std::string &RequestId) {
  Spans.push_back(Span{Name, Parent, RequestId, nowSeconds()});
  return static_cast<int>(Spans.size()); // ids start at 1; 0 = no parent
}

double SpanRecorder::end(int Id) {
  Span &S = Spans[static_cast<size_t>(Id - 1)];
  S.End = nowSeconds();
  return (S.End - S.Start) * 1e3;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out.good())
    return false;
  double Epoch = Spans.empty() ? 0.0 : Spans.front().Start;
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double End = S.End < 0 ? S.Start : S.End;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                  (S.Start - Epoch) * 1e6, (End - S.Start) * 1e6);
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name << "\"," << Buf
        << ",\"args\":{\"id\":" << I + 1 << ",\"parent\":" << S.Parent
        << ",\"request_id\":\"" << ltp::obs::jsonEscape(S.RequestId)
        << "\"}}";
  }
  Out << "\n]}\n";
  return Out.good();
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return "";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
