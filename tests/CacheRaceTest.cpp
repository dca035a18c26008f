//===- CacheRaceTest.cpp - cross-process kernel-store race test ------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Two processes racing to compile the same kernel against a fresh
// content-addressed store must end up with exactly one `.so` on disk —
// the flock serializes the build, the loser loads the winner's artifact —
// and both must be able to dlopen and run it. This is the cross-process
// contract tools/ltp-serve's shared kernel store depends on. Concurrent
// sessions also race the one-time compiler probe (jitAvailable).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "jit/JIT.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ltp;

namespace {

/// Shared objects currently in \p Dir (the store also holds lock files
/// and the winner's temp artifacts mid-build; only ltp-*.so count).
std::vector<std::string> sharedObjectsIn(const std::string &Dir) {
  std::vector<std::string> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".so") == 0)
      Out.push_back(Name);
  }
  ::closedir(D);
  return Out;
}

/// Child body: compile the benchmark pipeline against the fresh store and
/// run the result once. Must use _exit so gtest/atexit state of the
/// parent is not torn down twice.
[[noreturn]] void childCompileAndRun(int ReadyFd) {
  // Block until the parent releases both children at once — maximal
  // overlap between the two builds.
  char Go = 0;
  while (::read(ReadyFd, &Go, 1) < 0 && errno == EINTR) {
  }
  ::close(ReadyFd);

  JITCompiler Compiler; // picks up LTP_JIT_CACHE_DIR set by the parent
  BenchmarkInstance Instance = findBenchmark("copy")->Create(64);
  auto Pipeline = compilePipeline(Instance, Compiler);
  if (!Pipeline) {
    std::fprintf(stderr, "child: compile failed: %s\n",
                 Pipeline.getError().c_str());
    ::_exit(1);
  }
  Pipeline->run(Instance); // dlopened artifact actually executes
  if (!verifyOutput(Instance)) {
    std::fprintf(stderr, "child: wrong output\n");
    ::_exit(2);
  }
  ::_exit(0);
}

TEST(CacheRace, TwoProcessesOneSharedObject) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";

  char Template[] = "/tmp/ltp-cache-race-XXXXXX";
  char *Dir = ::mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);
  // Both children (and only they) use the fresh store; the parent never
  // constructs a JITCompiler after this point.
  ASSERT_EQ(::setenv("LTP_JIT_CACHE_DIR", Dir, 1), 0);
  ASSERT_EQ(::unsetenv("LTP_JIT_DISK_CACHE"), 0);

  int Pipes[2][2];
  pid_t Pids[2];
  for (int C = 0; C != 2; ++C) {
    ASSERT_EQ(::pipe(Pipes[C]), 0);
    Pids[C] = ::fork();
    ASSERT_GE(Pids[C], 0);
    if (Pids[C] == 0) {
      ::close(Pipes[C][1]);
      childCompileAndRun(Pipes[C][0]);
    }
    ::close(Pipes[C][0]);
  }

  // Release both children back-to-back.
  for (int C = 0; C != 2; ++C) {
    char Go = 1;
    ASSERT_EQ(::write(Pipes[C][1], &Go, 1), 1);
    ::close(Pipes[C][1]);
  }

  for (int C = 0; C != 2; ++C) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pids[C], &Status, 0), Pids[C]);
    EXPECT_TRUE(WIFEXITED(Status));
    EXPECT_EQ(WEXITSTATUS(Status), 0) << "child " << C;
  }

  // The race produced exactly one artifact per kernel: copy is a single
  // stage, so exactly one ltp-*.so in the store.
  std::vector<std::string> SharedObjects = sharedObjectsIn(Dir);
  EXPECT_EQ(SharedObjects.size(), 1u)
      << "store " << Dir << " holds " << SharedObjects.size() << " .so files";

  ASSERT_EQ(::unsetenv("LTP_JIT_CACHE_DIR"), 0);
  std::string Cleanup = std::string("rm -rf '") + Dir + "'";
  ASSERT_EQ(std::system(Cleanup.c_str()), 0);
}

/// Serving sessions ask whether a compiler exists on their first request,
/// possibly all at once: the probe must run once, without a data race
/// (the thread-sanitized serve leg checks), and give every caller the
/// same answer.
TEST(CacheRace, JitAvailableFromConcurrentThreads) {
  std::atomic<bool> Go{false};
  std::vector<char> Answers(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Answers.size(); ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load())
        std::this_thread::yield();
      Answers[I] = jitAvailable();
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  for (char Answer : Answers)
    EXPECT_EQ(Answer, Answers.front());
}

} // namespace
