//===- Protocol.cpp - ltp-serve wire protocol -----------------------------===//

#include "serve/Protocol.h"

#include "arch/ArchFile.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "support/Format.h"

#include <atomic>
#include <cmath>
#include <unistd.h>

using namespace ltp;
using namespace ltp::serve;

namespace {

using obs::jsonEscape;

/// Reads an integral JSON number; rejects fractions (a fractional size
/// is a client bug, not something to round silently).
bool asInt(const obs::JsonValue &V, int64_t &Out) {
  if (!V.isNumber())
    return false;
  double D = V.NumberValue;
  if (D != std::floor(D))
    return false;
  Out = static_cast<int64_t>(D);
  return true;
}

} // namespace

ErrorOr<Request> ltp::serve::parseRequest(const std::string &Line) {
  std::string Error;
  std::unique_ptr<obs::JsonValue> Root = obs::parseJson(Line, &Error);
  if (!Root)
    return ErrorOr<Request>::makeError("malformed request JSON: " + Error);
  if (!Root->isObject())
    return ErrorOr<Request>::makeError("request must be a JSON object");

  Request Req;
  for (const auto &[Name, Value] : Root->Members) {
    if (Name == "op" && Value.isString()) {
      Req.Op = Value.StringValue;
    } else if (Name == "id" && Value.isString()) {
      Req.Id = Value.StringValue;
    } else if (Name == "kernel" && Value.isString()) {
      Req.Kernel = Value.StringValue;
    } else if (Name == "size") {
      if (!asInt(Value, Req.Size) || Req.Size < 0)
        return ErrorOr<Request>::makeError(
            "field 'size' must be a non-negative integer");
    } else if (Name == "schedule" && Value.isString()) {
      Req.Schedule = Value.StringValue;
    } else if (Name == "arch" && Value.isString()) {
      Req.ArchName = Value.StringValue;
    } else if (Name == "arch_text" && Value.isString()) {
      Req.ArchText = Value.StringValue;
    } else if (Name == "nti" && Value.K == obs::JsonValue::Kind::Bool) {
      Req.EnableNTI = Value.BoolValue;
    } else if (Name == "compile" && Value.K == obs::JsonValue::Kind::Bool) {
      Req.Compile = Value.BoolValue;
    } else {
      return ErrorOr<Request>::makeError(
          "unknown or mistyped request field '" + Name + "'");
    }
  }
  if (Req.Op != "optimize" && Req.Op != "lint" && Req.Op != "stats" &&
      Req.Op != "metrics" && Req.Op != "dump" && Req.Op != "ping" &&
      Req.Op != "shutdown")
    return ErrorOr<Request>::makeError("unknown op '" + Req.Op + "'");
  if ((Req.Op == "optimize" || Req.Op == "lint") && Req.Kernel.empty())
    return ErrorOr<Request>::makeError(Req.Op +
                                       " request is missing 'kernel'");
  return Req;
}

std::string ltp::serve::mintRequestId() {
  static std::atomic<uint64_t> NextSeq{1};
  static const long Pid = static_cast<long>(::getpid());
  return strFormat("r-%ld-%llu", Pid,
                   static_cast<unsigned long long>(
                       NextSeq.fetch_add(1, std::memory_order_relaxed)));
}

ErrorOr<ArchParams> ltp::serve::resolveArch(const Request &Req) {
  if (!Req.ArchText.empty())
    return parseArchParams(Req.ArchText);
  return archByName(Req.ArchName);
}

std::string ltp::serve::canonicalKey(const Request &Req,
                                     const ArchParams &Arch) {
  // archParamsToText round-trips through the parser, so any two
  // descriptions of the same platform render identically; everything
  // else is normalized scalar fields. The schedule text participates
  // verbatim: textual differences conservatively miss the dedup table
  // and still land on the content-addressed kernel store underneath.
  return "op=" + Req.Op + "\nkernel=" + Req.Kernel +
         "\nsize=" + std::to_string(Req.Size) +
         "\nschedule=" + Req.Schedule + "\nnti=" + (Req.EnableNTI ? "1" : "0") +
         "\ncompile=" + (Req.Compile ? "1" : "0") + "\narch{\n" +
         archParamsToText(Arch) + "}\n";
}

std::string ltp::serve::keyHash(const std::string &Key) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Key) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

const char *ltp::serve::dedupOutcomeName(DedupOutcome O) {
  switch (O) {
  case DedupOutcome::Miss:
    return "miss";
  case DedupOutcome::Inflight:
    return "inflight";
  case DedupOutcome::Cached:
    return "cached";
  }
  return "?";
}

const char *ltp::serve::errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::None:
    return "none";
  case ErrorKind::BadRequest:
    return "bad_request";
  case ErrorKind::IllegalSchedule:
    return "illegal_schedule";
  case ErrorKind::Internal:
    return "internal";
  }
  return "?";
}

std::string ltp::serve::renderResponse(const Response &R) {
  std::string Out = "{";
  Out += strFormat("\"ok\": %s", R.Ok ? "true" : "false");
  if (!R.Id.empty())
    Out += ", \"id\": \"" + jsonEscape(R.Id) + "\"";
  if (!R.RequestId.empty())
    Out += ", \"request_id\": \"" + jsonEscape(R.RequestId) + "\"";
  if (!R.Ok) {
    Out += ", \"kind\": \"" + std::string(errorKindName(R.Kind)) + "\"";
    Out += ", \"error\": \"" + jsonEscape(R.Error) + "\"";
  }
  if (!R.Kernel.empty())
    Out += ", \"kernel\": \"" + jsonEscape(R.Kernel) + "\"";
  if (!R.Class.empty())
    Out += ", \"class\": \"" + jsonEscape(R.Class) + "\"";
  if (!R.Schedule.empty())
    Out += ", \"schedule\": \"" + jsonEscape(R.Schedule) + "\"";
  if (!R.Description.empty())
    Out += ", \"description\": \"" + jsonEscape(R.Description) + "\"";
  if (!R.SoPaths.empty()) {
    Out += ", \"so\": [";
    for (size_t I = 0; I != R.SoPaths.size(); ++I)
      Out += (I ? ", \"" : "\"") + jsonEscape(R.SoPaths[I]) + "\"";
    Out += "]";
  }
  if (R.LintRan) {
    // Members are pre-rendered JSON objects; an empty array means the
    // linted schedules are clean.
    Out += ", \"diagnostics\": [";
    for (size_t I = 0; I != R.DiagnosticsJson.size(); ++I)
      Out += (I ? ", " : "") + R.DiagnosticsJson[I];
    Out += "]";
  }
  if (R.Ok || R.Kind == ErrorKind::IllegalSchedule ||
      R.Kind == ErrorKind::Internal) {
    Out += ", \"dedup\": \"" +
           std::string(dedupOutcomeName(R.Dedup)) + "\"";
    Out += ", \"key\": \"" + R.KeyHash + "\"";
    Out += strFormat(", \"opt_ms\": %.4f, \"compile_ms\": %.4f",
                     R.OptMillis, R.CompileMillis);
  }
  Out += "}";
  return Out;
}
