/**
 * @file
 * Native-codegen JIT execution tier: compile generated C kernels with
 * the system compiler, cache the shared objects, and hand back
 * callable function pointers. The engine-selecting executors
 * (tensor/reference.hh, mapping/execute.hh) are defined in this
 * library and call runJitKernel() directly for ExecEngine::Jit.
 *
 * Cache design mirrors the tuning cache: the key is a content hash
 * (FNV-1a over compiler + flags + generated source), so identical
 * plans share one kernel across runs and across processes. Each
 * engine keeps an in-memory handle table (dlopen'd libraries +
 * resolved entry points, with in-flight compile coalescing and
 * negative-result caching) over an on-disk .so store; installs are
 * crash-safe (compile to a temp path, rename() into place), and a
 * corrupt or truncated .so is deleted and recompiled instead of
 * crashing the process.
 *
 * Environment knobs:
 *  - AMOS_JIT_CC        compiler driver (default "cc"); pointing this
 *                       at a nonexistent path exercises the fallback
 *  - AMOS_JIT_CFLAGS    optimisation flags (default
 *                       "-O3 -march=native -ffp-contract=off"; never
 *                       -ffast-math or FMA contraction — the
 *                       kernels' accumulation is bit-exact)
 *  - AMOS_JIT_CACHE_DIR on-disk store (default
 *                       $TMPDIR/amos-jit-cache)
 */

#ifndef AMOS_JIT_JIT_HH
#define AMOS_JIT_JIT_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/exec_c.hh"
#include "tensor/tensor.hh"

namespace amos {

/** Compiler / cache configuration of one JIT engine. */
struct JitOptions
{
    std::string compiler = "cc";
    std::string flags = "-O3 -march=native";
    std::string cacheDir;

    /** Defaults overridden by the AMOS_JIT_* environment knobs. */
    static JitOptions fromEnv();
};

/** Monotonic counters of one engine (snapshot, test-visible). */
struct JitStats
{
    std::int64_t compiles = 0;    ///< real compiler invocations
    std::int64_t memoryHits = 0;  ///< served from the handle table
    std::int64_t diskHits = 0;    ///< dlopen'd a previously built .so
    std::int64_t failures = 0;    ///< compile or load failures
};

/**
 * A kernel cache + compiler driver. Thread-safe; concurrent requests
 * for the same source coalesce onto one compile. Most callers use
 * global(); tests construct private engines over scratch cache
 * directories.
 */
class JitEngine
{
  public:
    explicit JitEngine(JitOptions opts = JitOptions::fromEnv());
    ~JitEngine();

    JitEngine(const JitEngine &) = delete;
    JitEngine &operator=(const JitEngine &) = delete;

    /** The process-wide engine the executors compile through. */
    static JitEngine &global();

    /**
     * Return the entry point of the kernel for `source`, compiling
     * and/or loading it if needed. Returns nullptr — with `why` —
     * when no compiler is available, compilation fails, or the built
     * object cannot be loaded; failures are cached so a broken
     * kernel is diagnosed once, not per execution.
     */
    ExecKernelFn getOrCompile(const std::string &source,
                              std::string *why);

    /** Probe (once) whether the configured compiler can run. */
    bool compilerAvailable(std::string *why = nullptr);

    const JitOptions &options() const { return _opts; }
    JitStats stats() const;

    /** Content hash of a kernel under this engine's configuration. */
    std::uint64_t keyFor(const std::string &source) const;
    /** On-disk .so path for `source` (test hook: corruption etc.). */
    std::string cachePathFor(const std::string &source) const;

  private:
    struct Entry;

    std::shared_ptr<Entry> build(std::uint64_t key,
                                 const std::string &source);

    JitOptions _opts;
    mutable std::mutex _mutex;
    std::condition_variable _ready;
    std::map<std::uint64_t, std::shared_ptr<Entry>> _table;
    JitStats _stats;
    bool _probed = false;
    bool _compilerOk = false;
};

/**
 * Compile `source` (an exec kernel from codegen/exec_c.hh) through
 * the global engine and run it on the operand buffers: `inputs` in
 * order, then `output`. Returns false — with `why` — when the engine
 * declines or the output aliases an input (the kernels declare their
 * operands restrict, so aliasing would be undefined behaviour); the
 * executors then fall back to the alias-safe stride walk.
 */
bool runJitKernel(const std::string &source,
                  const std::vector<const Buffer *> &inputs,
                  Buffer &output, std::string *why);

} // namespace amos

#endif // AMOS_JIT_JIT_HH
