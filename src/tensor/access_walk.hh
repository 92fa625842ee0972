/**
 * @file
 * Affine access-plan compiler and stride-walk runner.
 *
 * The functional simulators historically evaluated every tensor
 * access per scalar element with a recursive evalExpr() tree walk
 * over a hash-map variable binding — the dominant cost of the
 * differential correctness suites. Since every access index of a
 * TensorComputation is affine in the loop iterators, the flat
 * address of each operand is
 *
 *     addr = base + sum_l stride_l * idx_l
 *
 * over the loop-nest counters. An AccessWalkPlan precomputes those
 * per-level strides once; runAccessWalk() then advances every
 * operand address incrementally — add one stride on an increment,
 * subtract a precomputed rollback on a carry — with zero hash
 * lookups, zero evalExpr calls, and zero allocations in the inner
 * loop. Execution order is identical to the interpreter's odometer
 * (last level innermost), so floating-point accumulation is
 * bit-identical.
 *
 * Parallel sweeps: pickSplitLevel() finds a loop level whose values
 * provably touch disjoint addresses of the accumulated operand (the
 * per-step address jump dominates the combined span of every other
 * level). Restricting that level to per-thread sub-ranges keeps each
 * output element's updates on one thread, in serial order — so the
 * result is bit-identical for every thread count, and data-race-free
 * by construction.
 */

#ifndef AMOS_TENSOR_ACCESS_WALK_HH
#define AMOS_TENSOR_ACCESS_WALK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "tensor/computation.hh"

namespace amos {

/**
 * Execution tiers of the functional simulators, fastest first. Every
 * tier produces bit-identical results; each lower tier is the
 * transparent fallback for what the tier above it cannot run.
 */
enum class ExecEngine
{
    /// Scalar interpreter only (baseline / differential testing).
    Interpreter,
    /// Stride-walk engine, interpreter fallback (the default).
    Walk,
    /// Native-codegen JIT tier: lower the plan to C, compile with the
    /// system compiler, dlopen, run. Falls back to the stride walk
    /// (then the interpreter) when no compiler or kernel is
    /// available.
    Jit,
};

/** Stable lowercase name ("interpreter", "walk", "jit"). */
const char *execEngineName(ExecEngine engine);

/** Parse an engine name; nullopt on unknown names. */
std::optional<ExecEngine> parseExecEngine(const std::string &name);

/** Knobs shared by every functional executor. */
struct ExecOptions
{
    /// Worker count for the outer sweep: 1 = serial, 0 = one per
    /// hardware thread. Results are bit-identical for every value.
    /// The JIT tier always runs its kernel serially.
    int numThreads = 1;
    /// Requested execution tier; lower tiers are fallbacks.
    ExecEngine engine = ExecEngine::Walk;
};

/**
 * How an execution actually ran: the tier that produced the result
 * and, when the JIT tier was requested but could not run, why it
 * fell back. Returned by every executor entry point.
 */
struct ExecReport
{
    /// "jit", "walk", or "interpreter".
    std::string engine = "interpreter";
    /// Why the JIT tier fell back (empty unless it was requested and
    /// declined); also surfaced on the trace span and the
    /// exec.jit_fallback metric.
    std::string jitFallback;
    int threadsUsed = 1;
};

/// Executors handle at most inputs + output operands; the packing
/// stages pair each input with its packed destination stream.
constexpr std::size_t kMaxWalkOperands = 6;
/// Loop nests are software iterators or outer axes + intrinsic
/// iterations — far below this cap.
constexpr std::size_t kMaxWalkLevels = 32;

/** One operand's compiled address stream over the loop nest. */
struct WalkOperand
{
    std::int64_t base = 0;                ///< address at all-zero idx
    std::vector<std::int64_t> stride;     ///< per level
    std::vector<std::int64_t> rollback;   ///< stride_l * (extent_l-1)
    std::int64_t minAddr = 0;             ///< over the full level box
    std::int64_t maxAddr = 0;
};

/** A compiled loop nest: level extents + per-operand strides. */
struct AccessWalkPlan
{
    std::vector<std::int64_t> extents;    ///< last level is innermost
    std::vector<WalkOperand> operands;

    /** Fill rollbacks and min/max addresses from base/stride. */
    void finalize();

    /** Total number of inner-loop iterations. */
    std::int64_t totalSteps() const;
};

/**
 * Compile the reference interpreter's loop nest (one level per
 * software iterator, operands = inputs then output) into a stride
 * walk. Returns nullopt — and the reason, if requested — when any
 * access is non-affine or any operand's address box leaves its
 * declared tensor, so the walk itself needs no bounds checks.
 */
std::optional<AccessWalkPlan>
compileReferenceWalk(const TensorComputation &comp,
                     std::string *reason = nullptr);

/**
 * True iff the address box [minAddr, maxAddr] an operand covers over
 * the whole loop nest lies inside [0, size). Otherwise sets
 * `*reason` to "<what>: address box [lo, hi] exceeds <sizeName> N".
 * The compiled engines prove this once per plan instead of checking
 * every access.
 */
bool addressBoxFits(std::int64_t minAddr, std::int64_t maxAddr,
                    std::int64_t size, const std::string &what,
                    const char *sizeName, std::string *reason);

/**
 * True iff the runtime buffers have exactly the shapes and storage
 * lanes of `decls` (inputs in order, then the output) — the layout a
 * compiled stride table and its address boxes were proven against.
 * Otherwise sets `*why` when given.
 */
bool buffersMatchDecls(const std::vector<TensorDecl> &decls,
                       const std::vector<const Buffer *> &inputs,
                       const Buffer &output, std::string *why = nullptr);

/**
 * The first level (below levelLimit) whose per-step address jump on
 * `operand` dominates the combined span of all other levels — so
 * distinct values of that level touch provably disjoint addresses.
 * Returns -1 when no level qualifies (the sweep must stay serial).
 */
int pickSplitLevel(const AccessWalkPlan &plan, std::size_t operand,
                   std::size_t levelLimit);

/**
 * Serial stride walk with one level optionally restricted to
 * [lo, hi). Body is called once per index tuple, in interpreter
 * (odometer) order, with the operand address array.
 */
template <typename Body>
inline void
runAccessWalkRange(const AccessWalkPlan &plan, int restrictLevel,
                   std::int64_t lo, std::int64_t hi, Body &&body)
{
    const std::size_t nlev = plan.extents.size();
    const std::size_t nops = plan.operands.size();
    require(nlev <= kMaxWalkLevels && nops <= kMaxWalkOperands,
            "runAccessWalkRange: plan too large (", nlev, " levels, ",
            nops, " operands)");

    std::int64_t addr[kMaxWalkOperands] = {0};
    std::int64_t ext[kMaxWalkLevels];
    std::int64_t idx[kMaxWalkLevels];
    std::int64_t str[kMaxWalkLevels * kMaxWalkOperands];
    std::int64_t rb[kMaxWalkLevels * kMaxWalkOperands];

    for (std::size_t l = 0; l < nlev; ++l) {
        ext[l] = static_cast<int>(l) == restrictLevel
                     ? hi - lo
                     : plan.extents[l];
        if (ext[l] <= 0)
            return;
        idx[l] = 0;
        for (std::size_t m = 0; m < nops; ++m) {
            str[l * nops + m] = plan.operands[m].stride[l];
            rb[l * nops + m] = str[l * nops + m] * (ext[l] - 1);
        }
    }
    for (std::size_t m = 0; m < nops; ++m) {
        addr[m] = plan.operands[m].base;
        if (restrictLevel >= 0)
            addr[m] += lo * plan.operands[m].stride[restrictLevel];
    }
    if (nlev == 0) {
        body(addr);
        return;
    }
    while (true) {
        body(addr);
        std::size_t d = nlev;
        while (true) {
            --d;
            if (++idx[d] < ext[d]) {
                const std::int64_t *s = str + d * nops;
                for (std::size_t m = 0; m < nops; ++m)
                    addr[m] += s[m];
                break;
            }
            idx[d] = 0;
            const std::int64_t *r = rb + d * nops;
            for (std::size_t m = 0; m < nops; ++m)
                addr[m] -= r[m];
            if (d == 0)
                return;
        }
    }
}

/** Full serial stride walk. */
template <typename Body>
inline void
runAccessWalk(const AccessWalkPlan &plan, Body &&body)
{
    runAccessWalkRange(plan, -1, 0, 0, body);
}

/**
 * Interpreter-side odometer: calls fn(idx, dirtyFrom) for every
 * index tuple, where levels dirtyFrom..end are exactly the ones that
 * changed since the previous call (dirtyFrom == 0 on the first).
 * Lets interpreter fallbacks rebind only the coordinates that moved
 * instead of rebuilding the whole variable binding per iteration.
 */
template <typename Fn>
inline void
forEachIndexDelta(const std::vector<std::int64_t> &extents, Fn &&fn)
{
    for (auto e : extents)
        if (e <= 0)
            return;
    std::vector<std::int64_t> idx(extents.size(), 0);
    std::size_t dirty = 0;
    if (extents.empty()) {
        fn(idx, dirty);
        return;
    }
    while (true) {
        fn(idx, dirty);
        std::size_t d = extents.size();
        while (true) {
            --d;
            if (++idx[d] < extents[d]) {
                dirty = d;
                break;
            }
            idx[d] = 0;
            if (d == 0)
                return;
        }
    }
}

/** How a walk actually ran (for metrics / trace annotations). */
struct WalkRunStats
{
    int threadsUsed = 1;
    int splitLevel = -1; ///< -1 when the sweep ran serially
};

class TraceSpan;

/**
 * Record a compiled run on the executor's trace span and the exec.*
 * metrics: engine/thread annotations, exec.compiled_runs, and either
 * exec.parallel_runs or — when more than one thread was requested but
 * no provably disjoint split level exists — exec.parallel_unsplittable.
 */
void noteWalkRun(TraceSpan &span, const WalkRunStats &stats,
                 int requestedThreads);

/**
 * Parallel stride walk: splits `disjointOperand`'s provably disjoint
 * level (searched below splitLimit) into contiguous chunks, one walk
 * per chunk. Falls back to a serial walk when no level qualifies or
 * one thread is requested. Bit-identical for every thread count.
 */
template <typename Body>
inline WalkRunStats
runAccessWalkParallel(const AccessWalkPlan &plan,
                      std::size_t disjointOperand,
                      std::size_t splitLimit, int numThreads,
                      Body &&body)
{
    WalkRunStats stats;
    std::size_t threads = ThreadPool::resolveThreads(numThreads);
    int level = -1;
    if (threads > 1)
        level = pickSplitLevel(plan, disjointOperand, splitLimit);
    if (threads <= 1 || level < 0) {
        runAccessWalk(plan, body);
        return stats;
    }
    std::int64_t extent = plan.extents[static_cast<std::size_t>(level)];
    std::size_t chunks =
        std::min<std::size_t>(threads,
                              static_cast<std::size_t>(extent));
    stats.threadsUsed = static_cast<int>(chunks);
    stats.splitLevel = level;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            std::int64_t lo = extent * static_cast<std::int64_t>(c) /
                              static_cast<std::int64_t>(chunks);
            std::int64_t hi =
                extent * static_cast<std::int64_t>(c + 1) /
                static_cast<std::int64_t>(chunks);
            runAccessWalkRange(plan, level, lo, hi, body);
        },
        static_cast<int>(chunks));
    return stats;
}

} // namespace amos

#endif // AMOS_TENSOR_ACCESS_WALK_HH
