//===- JIT.h - compile generated C and load kernels -------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the host C compiler over generated source (codegen/CodeGenC.h),
/// loads the resulting shared object and hands out callable kernels. This
/// plays the role of Halide's JIT: schedules produced by the optimizer (or
/// by the autotuner's search loop) become natively compiled functions
/// within a fraction of a second.
///
/// Kernel ABI: `void kernel(void *const *bufs, const ltp_jit_runtime *rt)`
/// where `rt->parallel_for` dispatches parallel loops; the host binds it to
/// the process thread pool.
///
/// Compiled modules are cached at two levels:
///  - an in-process memo on (flags, source) sharing loaded modules, and
///  - a content-addressed on-disk cache of shared objects keyed by the
///    FNV-1a hash of (flags, source), surviving across processes (warm
///    benchmark reruns spend zero time in the C compiler).
///
/// `compileMany` is the one build path: it probes the memo, builds the
/// missing keys under the disk cache's file lock (fanned across the
/// process thread pool when there are several), publishes them, and
/// counts. `compile` forwards a single job to it.
///
/// Concurrency: any number of threads may call compileMany at once (the
/// daemon's session threads each compile their own request). A process
/// runs at most `ThreadPool::global().size()` `cc` processes at a time:
/// each run takes a slot of one process-wide semaphore, and the wait for
/// it is the `jit.cc_wait` span and `jit.cc_wait_ms` histogram. One
/// caller's fan-out never exceeds the pool width, so a lone caller
/// (`ltp-opt`, the benches) never waits.
///
/// Accounting: every job that yields a kernel counts exactly once, as
/// what happened to it. A job whose key was memoized, or repeats an
/// earlier job's key in the same call, is a memo hit. Every other key is
/// built once and counts as a cc run or a disk hit, even when a
/// concurrent caller published the same key first (the loser's module is
/// dropped, but its work was done). So `jit.memo.hit` +
/// `jit.cc_invocations` + `jit.disk_hits` equals the successful jobs.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_JIT_JIT_H
#define LTP_JIT_JIT_H

#include "codegen/CodeGenC.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"
#include "support/ErrorOr.h"

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ltp {

/// A loaded, callable kernel. Movable; the underlying shared object is
/// reference-counted (the compiler's memoization cache may hand the same
/// module to several kernels) and unloaded when the last user goes away.
class CompiledKernel {
public:
  CompiledKernel(CompiledKernel &&Other) noexcept = default;
  CompiledKernel &operator=(CompiledKernel &&Other) noexcept = default;
  CompiledKernel(const CompiledKernel &) = delete;
  CompiledKernel &operator=(const CompiledKernel &) = delete;
  ~CompiledKernel() = default;

  /// Runs the kernel. \p Buffers are matched to the compile-time signature
  /// by name; extents and strides must equal the compile-time shapes.
  /// Parallel loops run on the process thread pool.
  void run(const std::map<std::string, BufferRef> &Buffers) const;

  /// Runs with raw pointers in signature order (no shape checking).
  void runRaw(const std::vector<void *> &BufferPointers) const;

  /// The signature the kernel was compiled against.
  const std::vector<BufferBinding> &signature() const { return Signature; }

  /// The generated C source (useful for inspection and golden tests).
  const std::string &source() const { return Source; }

  /// Path of the loaded shared object. For disk-cache residents this is
  /// the content-addressed `.so` in the kernel store, valid across
  /// processes for as long as the cache entry survives (tools/ltp-serve
  /// hands it to clients for dlopen). Empty only for moved-from kernels.
  const std::string &sharedObjectPath() const;

private:
  friend class JITCompiler;
  CompiledKernel() = default;

  /// The loaded shared object; dlcloses and unlinks on destruction.
  struct Module;

  std::shared_ptr<const Module> Mod;
  std::vector<BufferBinding> Signature;
  std::string Source;
};

/// One compilation request for JITCompiler::compileMany.
struct CompileJob {
  ir::StmtPtr S;
  std::vector<BufferBinding> Signature;
  CodeGenOptions Options;
};

/// Compiles lowered statements into callable kernels via the host C
/// compiler.
class JITCompiler {
public:
  /// Uses \p CompilerPath, the LTP_CC environment variable, or "cc".
  ///
  /// The on-disk kernel cache lives in $LTP_JIT_CACHE_DIR, else
  /// $XDG_CACHE_HOME/ltp-jit, else $TMPDIR/ltp-jit-cache; setting
  /// LTP_JIT_DISK_CACHE=0 disables it (the memo cache stays active).
  explicit JITCompiler(std::string CompilerPath = "");

  /// True when a working C compiler was found (checked lazily on first
  /// compile).
  const std::string &compilerPath() const { return Compiler; }

  /// Compiles \p S against \p Signature: compileMany of one job.
  ErrorOr<CompiledKernel>
  compile(const ir::StmtPtr &S, const std::vector<BufferBinding> &Signature,
          const CodeGenOptions &Options = CodeGenOptions());

  /// Compiles a batch of kernels. Returns each kernel or a diagnostic
  /// (compiler missing / compile error with the tool output), positionally
  /// matched to \p Jobs. Results are memoized on (generated C source,
  /// compiler flags) — the flags embed the target ISA, so the same
  /// schedule compiled for AVX2 and for SSE2 occupies distinct cache
  /// entries — and persisted to the on-disk cache: a schedule any earlier
  /// process compiled skips the cc round-trip entirely. Cold builds fan
  /// across the process thread pool. Counting follows the file comment,
  /// so a batch counts exactly as compile() called per job in order.
  std::vector<ErrorOr<CompiledKernel>>
  compileMany(const std::vector<CompileJob> &Jobs);

  /// Number of actual compiler invocations that succeeded (cache hits
  /// excluded; used by autotuner statistics and the warm-cache check in
  /// the benchmark harnesses).
  int compileCount() const { return CompileCount.load(); }

  /// Number of jobs served from the in-process memo cache.
  int cacheHitCount() const { return CacheHits.load(); }

  /// Number of modules loaded from the on-disk cache (no cc invocation).
  int diskHitCount() const { return DiskHits.load(); }

  /// Overrides the LTP_JIT_DISK_CACHE environment setting; tests use
  /// this to pin counter expectations regardless of prior cache state.
  void setDiskCacheEnabled(bool Enabled) { DiskCacheEnabled = Enabled; }

  /// Directory holding the content-addressed shared objects.
  const std::string &cacheDir() const { return CacheDirPath; }

private:
  /// Result of producing a loaded module for one (flags, source) key.
  struct Build {
    std::shared_ptr<const CompiledKernel::Module> Mod;
    bool RanCompiler = false; ///< cc actually ran (cold everywhere)
    bool DiskHit = false;     ///< loaded from the on-disk cache
    std::string Error;        ///< non-empty on failure
  };

  /// Produces a module for the key outside any cache lock: disk lookup,
  /// then (under a file lock, so concurrent benchmark processes build a
  /// given kernel once) compile + atomic rename into the cache.
  Build buildModule(const std::string &Flags, const std::string &Source,
                    const std::string &KernelName);

  /// dlopens \p SoPath and resolves the kernel entry point. Persistent
  /// modules (disk-cache residents) are not unlinked on unload.
  static Build loadSharedObject(const std::string &SoPath,
                                const std::string &KernelName,
                                bool Persistent);

  /// Writes \p Source and runs the host compiler producing \p SoPath.
  /// Returns an empty string on success, the diagnostic otherwise.
  std::string runCompiler(const std::string &Flags,
                          const std::string &Source,
                          const std::string &SoPath, int Id);

  /// One shard of the in-process memo map. The map is sharded by key
  /// hash so concurrent serving sessions compiling unrelated kernels do
  /// not serialize on a single mutex; a key's shard is stable, so the
  /// per-key lookup/insert protocol is unchanged. Concurrent builders of
  /// the *same* key are further serialized by the disk cache's file lock
  /// (one cc run; the losers load the winner's `.so` as a disk hit).
  struct MemoShard {
    std::mutex Mu;
    std::map<std::string, std::shared_ptr<const CompiledKernel::Module>>
        Map;
  };
  static constexpr size_t NumMemoShards = 16;

  MemoShard &shardFor(const std::string &Key);

  std::string Compiler;
  std::string WorkDir;
  std::string CacheDirPath;
  bool DiskCacheEnabled = true;
  /// Statistics are atomics (not shard-lock-protected) so hit/miss
  /// accounting from concurrent sessions never contends on the maps.
  std::atomic<int> CompileCount{0};
  std::atomic<int> CacheHits{0};
  std::atomic<int> DiskHits{0};
  std::array<MemoShard, NumMemoShards> MemoShards;
};

/// Returns true when JIT compilation is expected to work on this host.
bool jitAvailable();

} // namespace ltp

#endif // LTP_JIT_JIT_H
