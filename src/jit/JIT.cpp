//===- JIT.cpp - compile generated C and load kernels ---------------------===//

#include "jit/JIT.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "runtime/ThreadPool.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <semaphore>
#include <sstream>
#include <string_view>

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ltp;

namespace {

/// Host-side mirror of the runtime struct emitted into generated code; the
/// layouts must match (a single function pointer).
struct LtpJitRuntime {
  void (*ParallelFor)(const LtpJitRuntime *Rt, int64_t Min, int64_t Extent,
                      void (*Body)(int64_t, void *), void *Closure);
};

void hostParallelFor(const LtpJitRuntime *, int64_t Min, int64_t Extent,
                     void (*Body)(int64_t, void *), void *Closure) {
  ThreadPool::global().parallelFor(
      Min, Extent, [&](int64_t I) { Body(I, Closure); });
}

using KernelFn = void (*)(void *const *, const LtpJitRuntime *);

std::atomic<int> ModuleCounter{0};

/// Reads a whole file into a string (tool diagnostics).
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// -O3 with GCC's loop-nest restructuring disabled: the schedule encoded
/// in the generated source (tiling, interchange, jamming) is the
/// experiment; the back-end compiler must vectorize and register-allocate
/// it, not re-tile it. The SIMD level comes from the codegen target ISA
/// (never -march=native) so a cached object is valid on any host that
/// runs it and the cache key fully describes the binary. A call to a
/// helper the prelude lacks is a compile error naming it, not an
/// undefined symbol at dlopen.
std::string buildFlags(const CodeGenOptions &Options) {
  return "-O3" + Options.ISA.compilerFlags() +
         " -fno-loop-interchange -fno-loop-unroll-and-jam"
         " -Werror=implicit-function-declaration -fPIC -shared";
}

/// 64-bit FNV-1a of \p Data as fixed-width hex; names disk-cache entries.
std::string fnv1aHex(const std::string &Data) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Registry counters mirroring the per-compiler statistics so every
/// bench prints one consistent telemetry footer (and traces carry the
/// totals). Handles are cached; the registry lookup happens once.
/// `jit.memo.{hit,miss}` split every memo-map probe so serving-path hit
/// rates are observable without differencing other counters.
obs::Counter &ccInvocationsCounter() {
  static obs::Counter &C = obs::counter("jit.cc_invocations");
  return C;
}
obs::Counter &memoHitsCounter() {
  static obs::Counter &C = obs::counter("jit.memo.hit");
  return C;
}
obs::Counter &memoMissesCounter() {
  static obs::Counter &C = obs::counter("jit.memo.miss");
  return C;
}
obs::Counter &diskHitsCounter() {
  static obs::Counter &C = obs::counter("jit.disk_hits");
  return C;
}
obs::Histogram &ccWaitHistogram() {
  static obs::Histogram &H = obs::histogram("jit.cc_wait_ms");
  return H;
}

/// Bounds the `cc` processes this process runs at once to the pool width.
/// One compileMany never fans out wider than the pool, so only concurrent
/// callers (serve sessions) ever wait for a slot.
std::counting_semaphore<> &ccSlots() {
  static std::counting_semaphore<> Slots(
      static_cast<std::ptrdiff_t>(ThreadPool::global().size()));
  return Slots;
}

/// Holds one `cc` slot for its lifetime; the wait for it is a span and a
/// histogram of its own, apart from `jit.cc`.
struct CcSlot {
  CcSlot() {
    obs::ScopedSpan Span("jit.cc_wait");
    Timer Wait;
    ccSlots().acquire();
    if (obs::metricsEnabled())
      ccWaitHistogram().observe(Wait.elapsedMillis());
  }
  ~CcSlot() { ccSlots().release(); }
  CcSlot(const CcSlot &) = delete;
  CcSlot &operator=(const CcSlot &) = delete;
};

} // namespace

//===----------------------------------------------------------------------===//
// CompiledKernel
//===----------------------------------------------------------------------===//

struct CompiledKernel::Module {
  void *Handle = nullptr; // dlopen handle
  void *Entry = nullptr;  // kernel function pointer
  std::string SharedObjectPath;
  /// Disk-cache residents stay on disk for the next process.
  bool Persistent = false;

  ~Module() {
    if (Handle)
      dlclose(Handle);
    if (!SharedObjectPath.empty() && !Persistent)
      ::unlink(SharedObjectPath.c_str());
  }
};

void CompiledKernel::runRaw(const std::vector<void *> &BufferPointers) const {
  assert(Mod && Mod->Entry && "running a moved-from kernel");
  assert(BufferPointers.size() == Signature.size() &&
         "buffer count does not match the kernel signature");
  LtpJitRuntime Rt{hostParallelFor};
  reinterpret_cast<KernelFn>(Mod->Entry)(BufferPointers.data(), &Rt);
}

const std::string &CompiledKernel::sharedObjectPath() const {
  static const std::string Empty;
  return Mod ? Mod->SharedObjectPath : Empty;
}

void CompiledKernel::run(
    const std::map<std::string, BufferRef> &Buffers) const {
  std::vector<void *> Pointers;
  Pointers.reserve(Signature.size());
  for (const BufferBinding &Binding : Signature) {
    auto It = Buffers.find(Binding.Name);
    assert(It != Buffers.end() && "kernel buffer not bound");
    const BufferRef &Ref = It->second;
    assert(Ref.ElemType == Binding.ElemType &&
           "buffer element type does not match the compiled signature");
    assert(Ref.Extents == Binding.Extents &&
           "buffer extents do not match the compiled signature");
    assert(Ref.Strides == Binding.Strides &&
           "buffer strides do not match the compiled signature");
    Pointers.push_back(Ref.Data);
  }
  runRaw(Pointers);
}

//===----------------------------------------------------------------------===//
// JITCompiler
//===----------------------------------------------------------------------===//

JITCompiler::JITCompiler(std::string CompilerPath)
    : Compiler(std::move(CompilerPath)) {
  if (Compiler.empty()) {
    if (const char *FromEnv = std::getenv("LTP_CC")) // NOLINT(concurrency-mt-unsafe)
      Compiler = FromEnv;
    else
      Compiler = "cc";
  }
  // Private module directory under TMPDIR.
  const char *Tmp = std::getenv("TMPDIR"); // NOLINT(concurrency-mt-unsafe)
  std::string Base = Tmp ? Tmp : "/tmp";
  WorkDir = Base + strFormat("/ltp-jit-%d", static_cast<int>(::getpid()));
  ::mkdir(WorkDir.c_str(), 0700);

  if (const char *Env = std::getenv("LTP_JIT_DISK_CACHE")) // NOLINT(concurrency-mt-unsafe)
    DiskCacheEnabled = std::string(Env) != "0";
  if (const char *Dir = std::getenv("LTP_JIT_CACHE_DIR")) // NOLINT(concurrency-mt-unsafe)
    CacheDirPath = Dir;
  else if (const char *Xdg = std::getenv("XDG_CACHE_HOME")) // NOLINT(concurrency-mt-unsafe)
    CacheDirPath = std::string(Xdg) + "/ltp-jit";
  else
    CacheDirPath = Base + "/ltp-jit-cache";
  ::mkdir(CacheDirPath.c_str(), 0755);
  // Registered up front, so a daemon whose kernels all come from the
  // store still exports the wait family.
  ccWaitHistogram();
}

std::string JITCompiler::runCompiler(const std::string &Flags,
                                     const std::string &Source,
                                     const std::string &SoPath, int Id) {
  CcSlot Slot;
  obs::ScopedSpan Span("jit.cc");
  std::string CPath = WorkDir + strFormat("/mod_%d.c", Id);
  std::string ErrPath = WorkDir + strFormat("/mod_%d.err", Id);
  {
    std::ofstream Out(CPath);
    if (!Out.good())
      return "cannot write JIT source to " + CPath;
    Out << Source;
  }
  std::string Command =
      strFormat("%s %s -o '%s' '%s' 2> '%s'", Compiler.c_str(),
                Flags.c_str(), SoPath.c_str(), CPath.c_str(),
                ErrPath.c_str());
  int Status = std::system(Command.c_str());
  std::string Diag;
  if (Status != 0)
    Diag = "JIT compilation failed (" + Command + "):\n" + slurp(ErrPath);
  ::unlink(CPath.c_str());
  ::unlink(ErrPath.c_str());
  return Diag;
}

JITCompiler::Build
JITCompiler::loadSharedObject(const std::string &SoPath,
                              const std::string &KernelName,
                              bool Persistent) {
  obs::ScopedSpan Span("jit.load_so");
  Build B;
  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    B.Error = std::string("dlopen failed: ") + dlerror();
    return B;
  }
  void *Entry = dlsym(Handle, KernelName.c_str());
  if (!Entry) {
    dlclose(Handle);
    B.Error = "kernel symbol missing from JIT module";
    return B;
  }
  auto Mod = std::make_shared<CompiledKernel::Module>();
  Mod->Handle = Handle;
  Mod->Entry = Entry;
  Mod->SharedObjectPath = SoPath;
  Mod->Persistent = Persistent;
  B.Mod = std::move(Mod);
  return B;
}

JITCompiler::Build JITCompiler::buildModule(const std::string &Flags,
                                            const std::string &Source,
                                            const std::string &KernelName) {
  int Id = ModuleCounter.fetch_add(1);
  if (!DiskCacheEnabled) {
    std::string SoPath = WorkDir + strFormat("/mod_%d.so", Id);
    std::string Err = runCompiler(Flags, Source, SoPath, Id);
    if (!Err.empty()) {
      Build B;
      B.Error = std::move(Err);
      return B;
    }
    Build B = loadSharedObject(SoPath, KernelName, /*Persistent=*/false);
    B.RanCompiler = B.Error.empty();
    return B;
  }

  std::string SoPath =
      CacheDirPath + "/ltp-" + fnv1aHex(Flags + '\n' + Source) + ".so";
  if (fileExists(SoPath)) {
    Build B = loadSharedObject(SoPath, KernelName, /*Persistent=*/true);
    B.DiskHit = B.Error.empty();
    return B;
  }

  // Cold everywhere: serialize concurrent builders (other benchmark
  // processes sharing the cache directory) on a file lock, and re-check
  // after acquiring it — the winner compiles, the rest load its result.
  std::string LockPath = SoPath + ".lock";
  int Fd = ::open(LockPath.c_str(), O_CREAT | O_RDWR, 0644);
  if (Fd >= 0)
    ::flock(Fd, LOCK_EX);
  auto Unlock = [&] {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  };
  if (fileExists(SoPath)) {
    Unlock();
    Build B = loadSharedObject(SoPath, KernelName, /*Persistent=*/true);
    B.DiskHit = B.Error.empty();
    return B;
  }
  // Compile to a private temp name, then atomically publish: readers
  // only ever see complete shared objects.
  std::string TmpPath =
      CacheDirPath + strFormat("/.tmp-%d-%d.so",
                               static_cast<int>(::getpid()), Id);
  std::string Err = runCompiler(Flags, Source, TmpPath, Id);
  if (Err.empty() && ::rename(TmpPath.c_str(), SoPath.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    Err = "cannot publish compiled module into the kernel cache: " + SoPath;
  }
  Unlock();
  if (!Err.empty()) {
    Build B;
    B.Error = std::move(Err);
    return B;
  }
  Build B = loadSharedObject(SoPath, KernelName, /*Persistent=*/true);
  B.RanCompiler = B.Error.empty();
  return B;
}

JITCompiler::MemoShard &JITCompiler::shardFor(const std::string &Key) {
  // FNV-1a over the key; any stable distribution works, the shards only
  // spread lock contention.
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Key) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return MemoShards[H % NumMemoShards];
}

ErrorOr<CompiledKernel>
JITCompiler::compile(const ir::StmtPtr &S,
                     const std::vector<BufferBinding> &Signature,
                     const CodeGenOptions &Options) {
  return std::move(compileMany({CompileJob{S, Signature, Options}}).front());
}

std::vector<ErrorOr<CompiledKernel>>
JITCompiler::compileMany(const std::vector<CompileJob> &Jobs) {
  if (Jobs.empty())
    return {};
  obs::ScopedSpan Span("jit.compile");
  Timer Latency;
  const std::string KernelName = "ltp_kernel";

  // Memoize on (flags, source): a job whose key is memoized, or repeats
  // the key of an earlier job in this call, is a memo hit; the first job
  // of every other key builds it.
  struct Prep {
    std::string Source;
    std::string Flags;
    std::string Key;
    /// The memoized module, or null until the job's build publishes.
    std::shared_ptr<const CompiledKernel::Module> Mod;
    size_t BuildIdx = 0;
    bool Builder = false;
  };
  std::vector<Prep> Preps(Jobs.size());
  std::vector<size_t> Builders; // job index of each build
  std::map<std::string_view, size_t> BuildOfKey;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const CompileJob &Job = Jobs[I];
    Prep &P = Preps[I];
    P.Source = generateC(Job.S, Job.Signature, KernelName, Job.Options);
    P.Flags = buildFlags(Job.Options);
    P.Key = P.Flags + '\n' + P.Source;
    {
      MemoShard &Shard = shardFor(P.Key);
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      auto It = Shard.Map.find(P.Key);
      if (It != Shard.Map.end()) {
        P.Mod = It->second;
        continue;
      }
    }
    auto [It, New] = BuildOfKey.emplace(P.Key, Builders.size());
    P.BuildIdx = It->second;
    P.Builder = New;
    if (New)
      Builders.push_back(I);
  }
  memoMissesCounter().add(static_cast<int64_t>(Builders.size()));

  if (Span.active())
    Span.setArgs(
        strFormat("jobs=%zu cold=%zu", Jobs.size(), Builders.size()));

  // A single build runs inline; more fan across the pool.
  std::vector<Build> Builds(Builders.size());
  ThreadPool::global().parallelFor(
      0, static_cast<int64_t>(Builders.size()), [&](int64_t B) {
        // Per-build spans expose the pool's grain-claiming skew: each
        // build's duration lands on the worker thread that claimed it.
        obs::ScopedSpan BuildSpan("jit.build", [&] {
          return strFormat("job=%lld", static_cast<long long>(B));
        });
        const Prep &P = Preps[Builders[static_cast<size_t>(B)]];
        Builds[static_cast<size_t>(B)] =
            buildModule(P.Flags, P.Source, KernelName);
      });

  // Count each build as what it did, then publish. A concurrent caller
  // may have published the same key since the probe; its module wins and
  // this one is dropped, but the cc run or disk load still happened.
  for (size_t B = 0; B != Builds.size(); ++B) {
    Build &Bd = Builds[B];
    if (!Bd.Error.empty())
      continue;
    if (Bd.RanCompiler) {
      ++CompileCount;
      ccInvocationsCounter().add();
    }
    if (Bd.DiskHit) {
      ++DiskHits;
      diskHitsCounter().add();
    }
    const std::string &Key = Preps[Builders[B]].Key;
    MemoShard &Shard = shardFor(Key);
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    Bd.Mod = Shard.Map.emplace(Key, std::move(Bd.Mod)).first->second;
  }

  std::vector<ErrorOr<CompiledKernel>> Results;
  Results.reserve(Jobs.size());
  int Hits = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    Prep &P = Preps[I];
    if (!P.Mod) {
      const Build &Bd = Builds[P.BuildIdx];
      if (!Bd.Error.empty()) {
        Results.push_back(ErrorOr<CompiledKernel>::makeError(Bd.Error));
        continue;
      }
      P.Mod = Bd.Mod;
    }
    if (!P.Builder)
      ++Hits;
    CompiledKernel Kernel;
    Kernel.Mod = std::move(P.Mod);
    Kernel.Signature = Jobs[I].Signature;
    Kernel.Source = std::move(P.Source);
    Results.push_back(std::move(Kernel));
  }
  CacheHits += Hits;
  memoHitsCounter().add(Hits);
  if (obs::metricsEnabled()) {
    static obs::Histogram &H = obs::histogram("jit.compile_ms");
    H.observe(Latency.elapsedMillis());
  }
  return Results;
}

bool ltp::jitAvailable() {
  // Probed once; a function-local static is initialized exactly once even
  // when concurrent serving sessions ask at the same time.
  static const bool Available = [] {
    const char *FromEnv = std::getenv("LTP_CC"); // NOLINT(concurrency-mt-unsafe)
    std::string Compiler = FromEnv ? FromEnv : "cc";
    std::string Command = Compiler + " --version > /dev/null 2>&1";
    return std::system(Command.c_str()) == 0;
  }();
  return Available;
}
