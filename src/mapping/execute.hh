/**
 * @file
 * Functional execution of a mapped computation.
 *
 * Two independent paths, both checked against the reference
 * interpreter in tests:
 *
 *  - executeMappedDirect: walks outer axes x intrinsic iterations,
 *    inverts the fused flat indices back to software coordinates,
 *    skips trailing-padding slots, and applies the update at the
 *    software addresses. Verifies the compute mapping.
 *
 *  - executeMappedPacked: first *stages* every operand into the tiled
 *    layout dictated by the memory mapping (base address + stride
 *    expressions, zero padding in the tails), then executes intrinsic
 *    calls purely on the packed buffers, and finally unpacks the
 *    output. Verifies the memory mapping: any error in the base
 *    address or stride arithmetic breaks the result.
 *
 * Both paths, and referenceExecute (tensor/reference.hh), climb one
 * execution tier ladder: with ExecEngine::Jit the plan is lowered to
 * native code by codegen/exec_c.hh and compiled through the JIT
 * engine (jit/jit.hh); the stride-walk engine (mapping/exec_plan.hh,
 * the default) runs the plan as precomputed per-operand address
 * stride tables without per-element expression evaluation; the
 * scalar interpreters are the baseline. Each tier falls back to the
 * next when it declines (counted as exec.jit_fallback and
 * exec.fallback), and every tier is bit-identical to the
 * interpreters. ExecOptions selects the tier and the thread count of
 * the outer-tile sweep; results are identical for every thread count.
 * All executors return an ExecReport naming the tier that actually
 * ran. They are defined in the amos_jit library, which sits above
 * codegen and the JIT engine they dispatch to.
 *
 * The one differential harness, engineVsInterpreterCompare, runs both
 * paths on a requested tier and on the interpreter and compares the
 * outputs under a tolerance spec; mappedVsReferenceError compares
 * both paths against the reference interpreter.
 */

#ifndef AMOS_MAPPING_EXECUTE_HH
#define AMOS_MAPPING_EXECUTE_HH

#include <vector>

#include "mapping/mapping.hh"
#include "quant/compare.hh"
#include "tensor/access_walk.hh"
#include "tensor/tensor.hh"

namespace amos {

/** Execute via index-remapping (compute-mapping check). */
ExecReport executeMappedDirect(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output,
                               const ExecOptions &opts = {});

/** Execute via packed tiles (memory-mapping check). */
ExecReport executeMappedPacked(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output,
                               const ExecOptions &opts = {});

/**
 * Convenience used by tests: run both mapped paths on pattern inputs
 * and return the largest deviation from the reference interpreter.
 */
float mappedVsReferenceError(const MappingPlan &plan,
                             std::uint64_t seed = 7);

/**
 * Tolerance-aware differential harness: run both mapped paths with
 * the interpreter forced and with the requested engine at
 * `numThreads`, on identical pattern inputs, and compare each pair
 * of outputs under `spec` (quant/compare.hh). Integer outputs are
 * compared bit-exactly by default; the returned result is the worst
 * of the direct and packed comparisons. The optional reports record
 * which tier each path actually used.
 */
quant::CompareResult
engineVsInterpreterCompare(const MappingPlan &plan, ExecEngine engine,
                           const quant::ToleranceSpec &spec,
                           std::uint64_t seed = 7, int numThreads = 1,
                           ExecReport *directReport = nullptr,
                           ExecReport *packedReport = nullptr);

} // namespace amos

#endif // AMOS_MAPPING_EXECUTE_HH
