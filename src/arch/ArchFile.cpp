//===- ArchFile.cpp - platform description files --------------------------===//

#include "arch/ArchFile.h"

#include "support/Format.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

using namespace ltp;

namespace {

std::string trim(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin != End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End != Begin &&
         std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

/// Parses "64", "32K", "8M" into bytes; negative on error.
int64_t parseSize(const std::string &Text) {
  char *End = nullptr;
  long long Value = std::strtoll(Text.c_str(), &End, 10);
  if (End == Text.c_str() || Value < 0)
    return -1;
  std::string Suffix = trim(End);
  if (Suffix.empty())
    return Value;
  int64_t Scale = 0;
  if (Suffix == "K" || Suffix == "k")
    Scale = 1024;
  else if (Suffix == "M" || Suffix == "m")
    Scale = 1024 * 1024;
  if (Scale == 0 || Value > INT64_MAX / Scale)
    return -1;
  return Value * Scale;
}

/// Parses a boolean spelled true/false/1/0; -1 on error.
int parseBool(const std::string &Text) {
  if (Text == "true" || Text == "1")
    return 1;
  if (Text == "false" || Text == "0")
    return 0;
  return -1;
}

} // namespace

ErrorOr<ArchParams> ltp::parseArchParams(const std::string &Text) {
  ArchParams Arch = intelI7_6700();
  Arch.Name = "custom";

  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t Comment = Line.find('#');
    if (Comment != std::string::npos)
      Line = Line.substr(0, Comment);
    Line = trim(Line);
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return ErrorOr<ArchParams>::makeError(
          strFormat("line %d: expected 'key = value'", LineNo));
    std::string Key = trim(Line.substr(0, Eq));
    std::string Value = trim(Line.substr(Eq + 1));
    auto Fail = [&](const char *Why) {
      return ErrorOr<ArchParams>::makeError(
          strFormat("line %d: %s for key '%s': '%s'", LineNo, Why,
                    Key.c_str(), Value.c_str()));
    };

    if (Key == "name") {
      Arch.Name = Value;
    } else if (Key == "l1.size" || Key == "l2.size" || Key == "l3.size") {
      int64_t Bytes = parseSize(Value);
      if (Bytes < 0)
        return Fail("bad size");
      (Key[1] == '1' ? Arch.L1 : Key[1] == '2' ? Arch.L2 : Arch.L3)
          .SizeBytes = Bytes;
    } else if (Key == "l1.ways" || Key == "l2.ways" || Key == "l3.ways") {
      int64_t Ways = parseSize(Value);
      if (Ways <= 0)
        return Fail("bad way count");
      (Key[1] == '1' ? Arch.L1 : Key[1] == '2' ? Arch.L2 : Arch.L3).Ways =
          Ways;
    } else if (Key == "l1.line" || Key == "l2.line" || Key == "l3.line") {
      int64_t LineBytes = parseSize(Value);
      if (LineBytes <= 0)
        return Fail("bad line size");
      (Key[1] == '1' ? Arch.L1 : Key[1] == '2' ? Arch.L2 : Arch.L3)
          .LineBytes = LineBytes;
    } else if (Key == "cores") {
      Arch.NCores = static_cast<int>(parseSize(Value));
      if (Arch.NCores <= 0)
        return Fail("bad core count");
    } else if (Key == "threads_per_core") {
      Arch.NThreadsPerCore = static_cast<int>(parseSize(Value));
      if (Arch.NThreadsPerCore <= 0)
        return Fail("bad thread count");
    } else if (Key == "vector_width") {
      Arch.VectorWidth = static_cast<int>(parseSize(Value));
      if (Arch.VectorWidth <= 0)
        return Fail("bad vector width");
    } else if (Key == "nt_stores") {
      int B = parseBool(Value);
      if (B < 0)
        return Fail("bad boolean");
      Arch.HasNonTemporalStores = B != 0;
    } else if (Key == "shared_l2") {
      int B = parseBool(Value);
      if (B < 0)
        return Fail("bad boolean");
      Arch.SharedL2 = B != 0;
    } else if (Key == "l1_next_line_prefetcher") {
      int B = parseBool(Value);
      if (B < 0)
        return Fail("bad boolean");
      Arch.L1NextLinePrefetcher = B != 0;
    } else if (Key == "l2_prefetch_degree") {
      Arch.L2PrefetchDegree = static_cast<int>(parseSize(Value));
      if (Arch.L2PrefetchDegree < 0)
        return Fail("bad prefetch degree");
    } else if (Key == "l2_max_prefetch_distance") {
      Arch.L2MaxPrefetchDistance = static_cast<int>(parseSize(Value));
      if (Arch.L2MaxPrefetchDistance < 0)
        return Fail("bad prefetch distance");
    } else if (Key == "l2_streamer_trains") {
      Arch.L2StreamerTrains = static_cast<int>(parseSize(Value));
      if (Arch.L2StreamerTrains <= 0)
        return Fail("bad streamer train count");
    } else if (Key == "vector_registers") {
      Arch.VectorRegisters = static_cast<int>(parseSize(Value));
      if (Arch.VectorRegisters <= 0)
        return Fail("bad vector register count");
    } else if (Key == "a2" || Key == "a3") {
      char *End = nullptr;
      double Number = std::strtod(Value.c_str(), &End);
      if (End == Value.c_str() || *End != '\0')
        return Fail("bad number");
      (Key == "a2" ? Arch.A2 : Arch.A3) = Number;
    } else {
      return ErrorOr<ArchParams>::makeError(
          strFormat("line %d: unknown key '%s'", LineNo, Key.c_str()));
    }
  }
  if (Arch.L1.SizeBytes <= 0 || Arch.L2.SizeBytes <= 0)
    return ErrorOr<ArchParams>::makeError(
        "platform requires non-empty l1.size and l2.size");
  // Geometry the cache emulation (Algorithm 1) and the simulator can
  // model: at least one set per level, lines that hold the largest
  // element, and emulated L1/L2 slot spaces of bounded size.
  constexpr int64_t MaxElementBytes = 8;
  constexpr int64_t MaxEmulatedBytes = int64_t(1) << 30;
  const std::pair<const char *, const CacheParams *> Levels[] = {
      {"l1", &Arch.L1}, {"l2", &Arch.L2}, {"l3", &Arch.L3}};
  for (const auto &[Name, Level] : Levels) {
    if (Level->SizeBytes == 0)
      continue; // an absent level (only the L3 may be)
    if (Level->LineBytes < MaxElementBytes)
      return ErrorOr<ArchParams>::makeError(strFormat(
          "%s.line = %lld is below %lld bytes, the largest element", Name,
          static_cast<long long>(Level->LineBytes),
          static_cast<long long>(MaxElementBytes)));
    if (Level->SizeBytes / Level->Ways < Level->LineBytes)
      return ErrorOr<ArchParams>::makeError(strFormat(
          "%s.size = %lld is below %s.ways x %s.line (%lld x %lld)", Name,
          static_cast<long long>(Level->SizeBytes), Name, Name,
          static_cast<long long>(Level->Ways),
          static_cast<long long>(Level->LineBytes)));
    if (Level != &Arch.L3 && Level->SizeBytes > MaxEmulatedBytes)
      return ErrorOr<ArchParams>::makeError(
          strFormat("%s.size = %lld is above 1 GiB", Name,
                    static_cast<long long>(Level->SizeBytes)));
  }
  return Arch;
}

ErrorOr<ArchParams> ltp::loadArchParams(const std::string &Path) {
  std::ifstream In(Path);
  if (!In.good())
    return ErrorOr<ArchParams>::makeError("cannot open '" + Path + "'");
  std::ostringstream Text;
  Text << In.rdbuf();
  return parseArchParams(Text.str());
}

std::string ltp::archParamsToText(const ArchParams &Arch) {
  // Exact byte sizes, every field, and each double in the shortest form
  // that parses back to it: two platforms render alike only when they
  // parse alike. Built with to_chars, not printf: every serve request,
  // a dedup hit included, renders this text into its key.
  std::string Out = "name = " + Arch.Name + "\n";
  auto Field = [&Out](std::string_view Key, auto Value) {
    Out += Key;
    Out += " = ";
    if constexpr (std::is_same_v<decltype(Value), bool>) {
      Out += Value ? "true" : "false";
    } else {
      char Buf[32];
      Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
    }
    Out += '\n';
  };
  Field("l1.size", Arch.L1.SizeBytes);
  Field("l1.ways", Arch.L1.Ways);
  Field("l1.line", Arch.L1.LineBytes);
  Field("l2.size", Arch.L2.SizeBytes);
  Field("l2.ways", Arch.L2.Ways);
  Field("l2.line", Arch.L2.LineBytes);
  Field("l3.size", Arch.L3.SizeBytes);
  Field("l3.ways", Arch.L3.Ways);
  Field("l3.line", Arch.L3.LineBytes);
  Field("cores", Arch.NCores);
  Field("threads_per_core", Arch.NThreadsPerCore);
  Field("vector_width", Arch.VectorWidth);
  Field("nt_stores", Arch.HasNonTemporalStores);
  Field("shared_l2", Arch.SharedL2);
  Field("l1_next_line_prefetcher", Arch.L1NextLinePrefetcher);
  Field("l2_prefetch_degree", Arch.L2PrefetchDegree);
  Field("l2_max_prefetch_distance", Arch.L2MaxPrefetchDistance);
  Field("l2_streamer_trains", Arch.L2StreamerTrains);
  Field("vector_registers", Arch.VectorRegisters);
  Field("a2", Arch.A2);
  Field("a3", Arch.A3);
  return Out;
}
