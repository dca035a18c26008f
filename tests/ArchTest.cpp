//===- ArchTest.cpp - platform parameters and description files ------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "arch/ArchParams.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace ltp;

namespace {

TEST(ArchParamsTest, Table3PresetsMatchPaper) {
  ArchParams I6700 = intelI7_6700();
  EXPECT_EQ(I6700.L1.SizeBytes, 32 * 1024);
  EXPECT_EQ(I6700.L1.Ways, 8);
  EXPECT_EQ(I6700.L2.SizeBytes, 256 * 1024);
  EXPECT_EQ(I6700.L2.Ways, 8);
  EXPECT_EQ(I6700.NCores, 4);
  EXPECT_EQ(I6700.NThreadsPerCore, 2);
  EXPECT_EQ(I6700.totalThreads(), 8);

  ArchParams I5930 = intelI7_5930K();
  EXPECT_EQ(I5930.NCores, 6);
  EXPECT_EQ(I5930.totalThreads(), 12);
  EXPECT_EQ(I5930.L1.SizeBytes, I6700.L1.SizeBytes);

  ArchParams A15 = armCortexA15();
  EXPECT_EQ(A15.L1.Ways, 2);
  EXPECT_EQ(A15.L2.SizeBytes, 512 * 1024);
  EXPECT_EQ(A15.L2.Ways, 16);
  EXPECT_EQ(A15.L3.SizeBytes, 0) << "the A15 has no L3";
  EXPECT_TRUE(A15.SharedL2);
  EXPECT_FALSE(A15.HasNonTemporalStores);
  EXPECT_EQ(A15.NThreadsPerCore, 1);
}

TEST(ArchParamsTest, SetCounts) {
  // 32KB / (8 ways * 64B) = 64 sets.
  EXPECT_EQ(intelI7_6700().L1.numSets(), 64);
  EXPECT_EQ(intelI7_6700().L2.numSets(), 512);
}

TEST(ArchParamsTest, HostDetectionProducesSaneValues) {
  ArchParams Host = detectHost();
  EXPECT_GT(Host.L1.SizeBytes, 0);
  EXPECT_GT(Host.L2.SizeBytes, Host.L1.SizeBytes);
  EXPECT_GT(Host.NCores, 0);
  EXPECT_GT(Host.L1.Ways, 0);
  EXPECT_EQ(Host.L1.LineBytes % 32, 0);
}

TEST(ArchParamsTest, HostSnapshotIsProbedOncePerProcess) {
  // Eight threads race the first call (this test runs in a process of
  // its own): each must get the one snapshot, fully initialized.
  constexpr int NumThreads = 8;
  std::atomic<bool> Go{false};
  std::vector<const ArchParams *> Seen(NumThreads, nullptr);
  std::vector<std::string> Rendered(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      Seen[T] = &detectHost();
      Rendered[T] = archParamsToText(*Seen[T]);
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  const ArchParams &Host = detectHost();
  EXPECT_EQ(&Host, &detectHost());
  EXPECT_EQ(Host.Name, "host");
  for (int T = 0; T != NumThreads; ++T) {
    EXPECT_EQ(Seen[T], &Host) << "thread " << T;
    EXPECT_EQ(Rendered[T], archParamsToText(Host)) << "thread " << T;
  }
  // "host" (and the empty name) resolve to a copy of the same snapshot.
  for (const char *Name : {"host", ""}) {
    ErrorOr<ArchParams> Named = archByName(Name);
    ASSERT_TRUE(static_cast<bool>(Named)) << Named.getError();
    EXPECT_EQ(archParamsToText(*Named), archParamsToText(Host)) << Name;
  }
}

TEST(ArchParamsTest, DescribeMentionsKeyFacts) {
  std::string Text = describe(armCortexA15());
  EXPECT_NE(Text.find("no L3"), std::string::npos);
  EXPECT_NE(Text.find("shared"), std::string::npos);
  EXPECT_NE(Text.find("NT stores no"), std::string::npos);
}

/// Every field of \p Parsed equals \p Arch: the round trip loses nothing.
void expectSameArch(const ArchParams &Parsed, const ArchParams &Arch) {
  EXPECT_EQ(Parsed.Name, Arch.Name);
  for (const auto &[P, A] : {std::make_pair(&Parsed.L1, &Arch.L1),
                             std::make_pair(&Parsed.L2, &Arch.L2),
                             std::make_pair(&Parsed.L3, &Arch.L3)}) {
    EXPECT_EQ(P->SizeBytes, A->SizeBytes);
    EXPECT_EQ(P->Ways, A->Ways);
    EXPECT_EQ(P->LineBytes, A->LineBytes);
  }
  EXPECT_EQ(Parsed.NCores, Arch.NCores);
  EXPECT_EQ(Parsed.NThreadsPerCore, Arch.NThreadsPerCore);
  EXPECT_EQ(Parsed.VectorWidth, Arch.VectorWidth);
  EXPECT_EQ(Parsed.HasNonTemporalStores, Arch.HasNonTemporalStores);
  EXPECT_EQ(Parsed.SharedL2, Arch.SharedL2);
  EXPECT_EQ(Parsed.L1NextLinePrefetcher, Arch.L1NextLinePrefetcher);
  EXPECT_EQ(Parsed.L2PrefetchDegree, Arch.L2PrefetchDegree);
  EXPECT_EQ(Parsed.L2MaxPrefetchDistance, Arch.L2MaxPrefetchDistance);
  EXPECT_EQ(Parsed.L2StreamerTrains, Arch.L2StreamerTrains);
  EXPECT_EQ(Parsed.VectorRegisters, Arch.VectorRegisters);
  EXPECT_EQ(Parsed.A2, Arch.A2);
  EXPECT_EQ(Parsed.A3, Arch.A3);
}

TEST(ArchFileTest, RoundTripAllPresets) {
  for (const ArchParams &Arch :
       {intelI7_6700(), intelI7_5930K(), armCortexA15()}) {
    auto Parsed = parseArchParams(archParamsToText(Arch));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError();
    expectSameArch(*Parsed, Arch);
  }
}

TEST(ArchFileTest, RoundTripKeepsOddSizesAndFullPrecision) {
  // Sizes that are not whole KiB, an L3 line unlike the L1/L2 default,
  // and model weights with more digits than %g prints: each survives,
  // so two such platforms never share a serve dedup key.
  ArchParams Arch = intelI7_6700();
  Arch.Name = "odd";
  Arch.L1.SizeBytes = 1500;
  Arch.L2.SizeBytes = 262145;
  Arch.L3.SizeBytes = 3 * 1024 * 1024 + 7;
  Arch.L3.LineBytes = 128;
  Arch.A2 = 1.0 / 3.0;
  Arch.A3 = 4.000001234567;
  auto Parsed = parseArchParams(archParamsToText(Arch));
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError();
  expectSameArch(*Parsed, Arch);

  ArchParams Other = Arch;
  Other.L1.SizeBytes = 1024;
  EXPECT_NE(archParamsToText(Other), archParamsToText(Arch));
}

TEST(ArchFileTest, RejectsTrailingTextAfterANumber) {
  for (const char *Text : {"a2 = 1.5x\n", "a3 = 4 4\n", "a2 = \n",
                           "a3 = fast\n"}) {
    auto R = parseArchParams(Text);
    ASSERT_FALSE(static_cast<bool>(R)) << Text;
    EXPECT_NE(R.getError().find("bad number"), std::string::npos)
        << R.getError();
  }
  auto Ok = parseArchParams("a2 = 1.25\na3 = 2e0  # comment\n");
  ASSERT_TRUE(static_cast<bool>(Ok)) << Ok.getError();
  EXPECT_EQ(Ok->A2, 1.25);
  EXPECT_EQ(Ok->A3, 2.0);
}

TEST(ArchFileTest, ParsesSizesAndComments) {
  auto Parsed = parseArchParams(
      "# my machine\n"
      "name = box\n"
      "l1.size = 48K   # per core\n"
      "l2.size = 1M\n"
      "cores = 16\n");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError();
  EXPECT_EQ(Parsed->L1.SizeBytes, 48 * 1024);
  EXPECT_EQ(Parsed->L2.SizeBytes, 1024 * 1024);
  EXPECT_EQ(Parsed->NCores, 16);
  // Unset keys keep defaults.
  EXPECT_EQ(Parsed->L1.Ways, 8);
}

TEST(ArchFileTest, RejectsUnknownKeysAndBadValues) {
  auto R1 = parseArchParams("l1.sise = 32K\n");
  EXPECT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.getError().find("unknown key"), std::string::npos);

  auto R2 = parseArchParams("cores = banana\n");
  EXPECT_FALSE(static_cast<bool>(R2));

  auto R3 = parseArchParams("l1.size = 0\nl2.size = 0\n");
  EXPECT_FALSE(static_cast<bool>(R3));

  auto R4 = parseArchParams("just some text\n");
  EXPECT_FALSE(static_cast<bool>(R4));
  EXPECT_NE(R4.getError().find("line 1"), std::string::npos);
}

TEST(ArchFileTest, RejectsGeometryAlgorithm1CannotEmulate) {
  for (const char *Text :
       {"l1.line = 2\n", "l2.line = 4\n", "l3.line = 4\n",
        "l1.ways = 16384\n", "l3.size = 64\nl3.ways = 2\n",
        "l2.size = 1099511627776\n", "l1.size = 1025M\n",
        "l2.size = 9000000000000000M\n"}) {
    auto R = parseArchParams(Text);
    EXPECT_FALSE(static_cast<bool>(R)) << Text;
  }
  // The limits themselves are accepted, as is an absent L3.
  for (const char *Text :
       {"l1.line = 8\n", "l1.size = 512\nl1.ways = 8\n",
        "l2.size = 1024M\nl2.ways = 1\n", "l3.size = 0\nl3.ways = 64\n"}) {
    auto R = parseArchParams(Text);
    EXPECT_TRUE(static_cast<bool>(R)) << Text << ": " << R.getError();
  }
}

TEST(ArchFileTest, LoadReportsMissingFile) {
  auto R = loadArchParams("/nonexistent/arch.conf");
  EXPECT_FALSE(static_cast<bool>(R));
}

} // namespace
