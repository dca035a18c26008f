//===- JsonCheck.cpp - minimal JSON parser for trace validation ----------===//

#include "obs/JsonCheck.h"

#include "support/Format.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace ltp;
using namespace ltp::obs;

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  std::unique_ptr<JsonValue> run() {
    auto Value = std::make_unique<JsonValue>();
    if (!parseValue(*Value))
      return nullptr;
    skipSpace();
    if (Pos != Text.size()) {
      fail("trailing garbage after document");
      return nullptr;
    }
    return Value;
  }

private:
  void fail(const std::string &Message) {
    if (Error && Error->empty())
      *Error = strFormat("JSON error at offset %zu: %s", Pos,
                         Message.c_str());
  }

  void skipSpace() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0) {
      fail(std::string("expected '") + Word + "'");
      return false;
    }
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Text[Pos] != '"') {
      fail("expected string");
      return false;
    }
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\') {
        if (Pos + 1 >= Text.size()) {
          fail("unterminated escape");
          return false;
        }
        char E = Text[Pos + 1];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 5 >= Text.size()) {
            fail("truncated \\u escape");
            return false;
          }
          // Validate the four hex digits; decode as Latin-1 for the
          // control-character range this writer emits.
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos + 2 + I];
            if (!std::isxdigit(static_cast<unsigned char>(H))) {
              fail("bad \\u escape digit");
              return false;
            }
            Code = Code * 16 +
                   (std::isdigit(static_cast<unsigned char>(H))
                        ? static_cast<unsigned>(H - '0')
                        : static_cast<unsigned>(
                              std::tolower(H) - 'a' + 10));
          }
          Out += Code < 256 ? static_cast<char>(Code) : '?';
          Pos += 4;
          break;
        }
        default:
          fail("unknown escape");
          return false;
        }
        Pos += 2;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        fail("raw control character in string");
        return false;
      } else {
        Out += C;
        ++Pos;
      }
    }
    if (Pos >= Text.size()) {
      fail("unterminated string");
      return false;
    }
    ++Pos; // closing quote
    return true;
  }

  bool parseValue(JsonValue &Out) {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return false;
    }
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      // The parse recurses once per level: bound it so a hostile document
      // is an error, not a stack overflow.
      if (Depth == MaxDepth) {
        fail(strFormat("nesting deeper than %d levels", MaxDepth));
        return false;
      }
      ++Depth;
      bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StringValue);
    }
    if (C == 't') {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolValue = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolValue = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    }
    return parseNumber(Out);
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a value");
      return false;
    }
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    Out.NumberValue = std::strtod(Token.c_str(), &End);
    if (!End || *End != '\0') {
      Pos = Start;
      fail("malformed number");
      return false;
    }
    Out.K = JsonValue::Kind::Number;
    return true;
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      Out.Elements.emplace_back();
      if (!parseValue(Out.Elements.back()))
        return false;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipSpace();
      if (Pos >= Text.size()) {
        fail("unterminated object");
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':') {
        fail("expected ':' in object");
        return false;
      }
      ++Pos;
      if (!parseValue(Out.Members[Key]))
        return false;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  static constexpr int MaxDepth = 256;

  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
  int Depth = 0;
};

} // namespace

std::unique_ptr<JsonValue> ltp::obs::parseJson(const std::string &Text,
                                               std::string *Error) {
  if (Error)
    Error->clear();
  return Parser(Text, Error).run();
}

bool ltp::obs::checkTraceFile(const std::string &Path, std::string *Summary,
                              std::string *Error) {
  std::ifstream In(Path);
  if (!In.good()) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  std::unique_ptr<JsonValue> Root = parseJson(Text, Error);
  if (!Root)
    return false;
  if (!Root->isObject()) {
    if (Error)
      *Error = "top level is not an object";
    return false;
  }
  const JsonValue *Events = Root->find("traceEvents");
  if (!Events || !Events->isArray()) {
    if (Error)
      *Error = "missing traceEvents array";
    return false;
  }

  size_t SpanCount = 0, CounterCount = 0, MetaCount = 0;
  for (size_t I = 0; I != Events->Elements.size(); ++I) {
    const JsonValue &E = Events->Elements[I];
    auto Bad = [&](const char *What) {
      if (Error)
        *Error = strFormat("event %zu: %s", I, What);
      return false;
    };
    if (!E.isObject())
      return Bad("not an object");
    const JsonValue *Name = E.find("name");
    const JsonValue *Ph = E.find("ph");
    if (!Name || !Name->isString() || Name->StringValue.empty())
      return Bad("missing or empty name");
    if (!Ph || !Ph->isString())
      return Bad("missing ph");
    const std::string &Phase = Ph->StringValue;
    if (Phase == "X") {
      ++SpanCount;
      const JsonValue *Ts = E.find("ts");
      const JsonValue *Dur = E.find("dur");
      const JsonValue *Pid = E.find("pid");
      const JsonValue *Tid = E.find("tid");
      if (!Ts || !Ts->isNumber() || Ts->NumberValue < 0.0)
        return Bad("complete event without a non-negative ts");
      if (!Dur || !Dur->isNumber() || Dur->NumberValue < 0.0)
        return Bad("complete event without a non-negative dur");
      if (!Pid || !Pid->isNumber() || !Tid || !Tid->isNumber())
        return Bad("complete event without pid/tid");
    } else if (Phase == "C") {
      ++CounterCount;
      const JsonValue *Args = E.find("args");
      if (!Args || !Args->isObject())
        return Bad("counter event without args");
    } else if (Phase == "M") {
      ++MetaCount;
    } else {
      return Bad("unexpected phase (writer only emits X/C/M)");
    }
  }
  if (SpanCount == 0) {
    if (Error)
      *Error = "trace contains no span (\"X\") events";
    return false;
  }
  if (Summary)
    *Summary = strFormat("%zu span, %zu counter, %zu metadata events",
                         SpanCount, CounterCount, MetaCount);
  return true;
}
