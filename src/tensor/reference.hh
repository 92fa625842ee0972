/**
 * @file
 * Reference interpreter: executes a TensorComputation directly as the
 * nested scalar loop it denotes. This is the semantic ground truth
 * that mapped/tiled executions are checked against. Defined in the
 * amos_jit library, which owns the engine dispatch.
 */

#ifndef AMOS_TENSOR_REFERENCE_HH
#define AMOS_TENSOR_REFERENCE_HH

#include <vector>

#include "tensor/access_walk.hh"
#include "tensor/computation.hh"
#include "tensor/tensor.hh"

namespace amos {

/**
 * Execute the computation over the given input buffers, accumulating
 * into (pre-zeroed or pre-initialised) output.
 *
 * Climbs the same tier ladder as the mapped executors
 * (mapping/execute.hh). By default every access is lowered to
 * precomputed affine stride form and run on the stride-walk engine
 * (see tensor/access_walk.hh) — bit-identical to the scalar
 * interpreter, which remains as the transparent fallback for
 * non-affine accesses, address boxes outside the declared tensors or
 * mismatched buffer shapes (logged via the exec.fallback metric).
 * With ExecEngine::Jit the nest is lowered to native code by
 * codegen/exec_c.hh and compiled through jit/jit.hh, falling back to
 * the stride walk — and then the interpreter — when the tier
 * declines (logged via exec.jit_fallback).
 *
 * @param comp The computation to interpret.
 * @param inputs One buffer per computation input, in order.
 * @param output Buffer matching the computation's output declaration.
 * @param opts Thread count for the outer sweep and engine selection.
 * @return The tier that actually ran (and any JIT fallback reason).
 */
ExecReport referenceExecute(const TensorComputation &comp,
                            const std::vector<const Buffer *> &inputs,
                            Buffer &output,
                            const ExecOptions &opts = {});

/** Allocate and pattern-fill input buffers for a computation. */
std::vector<Buffer> makePatternInputs(const TensorComputation &comp,
                                      std::uint64_t seed = 7);

} // namespace amos

#endif // AMOS_TENSOR_REFERENCE_HH
