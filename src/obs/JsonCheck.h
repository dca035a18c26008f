//===- JsonCheck.h - minimal JSON parser for trace validation ---*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small recursive-descent JSON parser. It validates the
/// telemetry layer's own output (trace files, BENCH_*.json results) in
/// tests and in the `ltp-trace-check` CI tool, and it is also the
/// daemon's request parser: `serve::parseRequest` parses every NDJSON
/// line a client sends with parseJson. That makes it a trust boundary:
/// its input may be arbitrary bytes from any process that can reach the
/// socket, and malformed input must come back as an error, never a crash
/// (nesting is capped at 256 levels, so recursion depth is bounded).
/// It parses the full JSON grammar into a tree of JsonValue nodes; it is
/// not a general-purpose JSON library (no streaming, no incremental
/// parse).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_JSONCHECK_H
#define LTP_OBS_JSONCHECK_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ltp {
namespace obs {

/// One parsed JSON node.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool BoolValue = false;
  double NumberValue = 0.0;
  std::string StringValue;
  std::vector<JsonValue> Elements;            // Kind::Array
  std::map<std::string, JsonValue> Members;   // Kind::Object

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(const std::string &Name) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Members.find(Name);
    return It == Members.end() ? nullptr : &It->second;
  }
};

/// Parses \p Text as one JSON document. Returns null and fills \p Error
/// (with offset context) on malformed input; trailing garbage is an
/// error.
std::unique_ptr<JsonValue> parseJson(const std::string &Text,
                                     std::string *Error);

/// Validates \p Path as a Chrome-trace-event file the telemetry layer
/// wrote: a top-level object with a `traceEvents` array whose complete
/// ("X") events each carry name/ph/ts/dur/pid/tid with sane types and
/// non-negative times. Fills \p Summary with a one-line description
/// (event counts) on success and \p Error on failure.
bool checkTraceFile(const std::string &Path, std::string *Summary,
                    std::string *Error);

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_JSONCHECK_H
