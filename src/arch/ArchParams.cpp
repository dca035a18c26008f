//===- ArchParams.cpp - architecture parameters (Tables 1 and 3) ---------===//

#include "arch/ArchParams.h"

#include "support/Format.h"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

using namespace ltp;

ArchParams ltp::intelI7_6700() {
  // Table 3, middle column: Skylake desktop, 4C/8T, 8-way 32K L1D,
  // 8-way 256K L2, (8M shared L3).
  ArchParams Arch;
  Arch.Name = "Intel i7-6700";
  Arch.L1 = CacheParams{32 * 1024, 64, 8};
  Arch.L2 = CacheParams{256 * 1024, 64, 8};
  Arch.L3 = CacheParams{8 * 1024 * 1024, 64, 16};
  Arch.NCores = 4;
  Arch.NThreadsPerCore = 2;
  Arch.VectorWidth = 8;
  Arch.HasNonTemporalStores = true;
  Arch.SharedL2 = false;
  Arch.L2PrefetchDegree = 2;
  Arch.L2MaxPrefetchDistance = 20;
  Arch.L2StreamerTrains = 32;
  Arch.VectorRegisters = 16;
  Arch.A2 = 1.0;
  Arch.A3 = 4.0;
  return Arch;
}

ArchParams ltp::intelI7_5930K() {
  // Table 3, left column: Haswell-E, 6C/12T, 8-way 32K L1D, 8-way 256K L2,
  // (15M shared L3).
  ArchParams Arch = intelI7_6700();
  Arch.Name = "Intel i7-5930K";
  Arch.L3 = CacheParams{15 * 1024 * 1024, 64, 20};
  Arch.NCores = 6;
  return Arch;
}

ArchParams ltp::armCortexA15() {
  // Table 3, right column: 2-way 32K L1D, 16-way 512K shared L2, no L3,
  // one thread per core, NEON (4-wide float), no vector NT stores.
  ArchParams Arch;
  Arch.Name = "ARM Cortex-A15";
  Arch.L1 = CacheParams{32 * 1024, 64, 2};
  Arch.L2 = CacheParams{512 * 1024, 64, 16};
  Arch.L3 = CacheParams{0, 64, 1};
  Arch.NCores = 4;
  Arch.NThreadsPerCore = 1;
  Arch.VectorWidth = 4;
  Arch.HasNonTemporalStores = false;
  Arch.SharedL2 = true;
  // The A15 L2 prefetcher tracks fewer streams at a shorter distance than
  // the Intel streamer.
  Arch.L2PrefetchDegree = 1;
  Arch.L2MaxPrefetchDistance = 8;
  Arch.L2StreamerTrains = 8;
  Arch.VectorRegisters = 16;
  Arch.A2 = 1.0;
  // No L3: the a3 weight prices misses that go straight to DRAM.
  Arch.A3 = 8.0;
  return Arch;
}

namespace {

/// Reads a sysfs cache attribute; returns an empty string when absent.
std::string readSysfs(const std::string &Path) {
  std::ifstream In(Path);
  if (!In.good())
    return "";
  std::string Line;
  std::getline(In, Line);
  return Line;
}

/// Parses "32K" / "2048K" / "8M" size spellings.
int64_t parseSize(const std::string &Text) {
  if (Text.empty())
    return 0;
  std::istringstream In(Text);
  int64_t Value = 0;
  In >> Value;
  char Suffix = 0;
  In >> Suffix;
  if (Suffix == 'K' || Suffix == 'k')
    Value *= 1024;
  else if (Suffix == 'M' || Suffix == 'm')
    Value *= 1024 * 1024;
  return Value;
}

} // namespace

ErrorOr<ArchParams> ltp::archByName(const std::string &Name) {
  if (Name == "5930k")
    return intelI7_5930K();
  if (Name == "6700")
    return intelI7_6700();
  if (Name == "a15" || Name == "arm")
    return armCortexA15();
  if (Name == "host" || Name.empty())
    return detectHost();
  return ErrorOr<ArchParams>::makeError(
      "unknown arch '" + Name + "' (want 5930k|6700|a15|host)");
}

namespace {

/// Reads the host's cache hierarchy from sysfs (about 20 small files).
ArchParams probeHost() {
  ArchParams Arch = intelI7_6700();
  Arch.Name = "host";
  unsigned HW = std::thread::hardware_concurrency();
  if (HW > 0) {
    Arch.NCores = static_cast<int>(HW);
    Arch.NThreadsPerCore = 1;
  }

  const std::string Base = "/sys/devices/system/cpu/cpu0/cache/";
  bool SawL3 = false;
  for (int Index = 0; Index < 8; ++Index) {
    std::string Dir = Base + "index" + std::to_string(Index) + "/";
    std::string LevelText = readSysfs(Dir + "level");
    if (LevelText.empty())
      break;
    std::string TypeText = readSysfs(Dir + "type");
    if (TypeText == "Instruction")
      continue;
    CacheParams C;
    C.SizeBytes = parseSize(readSysfs(Dir + "size"));
    std::string WaysText = readSysfs(Dir + "ways_of_associativity");
    std::string LineText = readSysfs(Dir + "coherency_line_size");
    if (!WaysText.empty())
      C.Ways = std::stoll(WaysText);
    if (!LineText.empty())
      C.LineBytes = std::stoll(LineText);
    if (C.SizeBytes <= 0 || C.Ways <= 0 || C.LineBytes <= 0)
      continue;
    int Level = std::stoi(LevelText);
    if (Level == 1)
      Arch.L1 = C;
    else if (Level == 2)
      Arch.L2 = C;
    else if (Level == 3) {
      Arch.L3 = C;
      SawL3 = true;
    }
  }
  if (!SawL3)
    Arch.L3 = CacheParams{0, Arch.L2.LineBytes, 1};
  return Arch;
}

} // namespace

const ArchParams &ltp::detectHost() {
  static const ArchParams Host = probeHost();
  return Host;
}

std::string ltp::describe(const ArchParams &Arch) {
  std::string L3Text =
      Arch.L3.SizeBytes > 0
          ? strFormat("L3 %lldK/%lld-way",
                      static_cast<long long>(Arch.L3.SizeBytes / 1024),
                      static_cast<long long>(Arch.L3.Ways))
          : std::string("no L3");
  return strFormat(
      "%s: L1 %lldK/%lld-way, L2 %lldK/%lld-way%s, %s, %dC/%dT, vec %d, "
      "NT stores %s, L2 pref degree %d dist %d",
      Arch.Name.c_str(), static_cast<long long>(Arch.L1.SizeBytes / 1024),
      static_cast<long long>(Arch.L1.Ways),
      static_cast<long long>(Arch.L2.SizeBytes / 1024),
      static_cast<long long>(Arch.L2.Ways),
      Arch.SharedL2 ? " (shared)" : "", L3Text.c_str(), Arch.NCores,
      Arch.NThreadsPerCore, Arch.VectorWidth,
      Arch.HasNonTemporalStores ? "yes" : "no", Arch.L2PrefetchDegree,
      Arch.L2MaxPrefetchDistance);
}
