/**
 * @file
 * Tolerance-aware buffer comparison for the differential suites.
 *
 * Two regimes:
 *
 *  - Exact: integer accumulation (and any engine-vs-engine check) is
 *    deterministic, so the comparison is per-lane bit equality — a
 *    single flipped bit fails.
 *  - Bounded: value-changing paths (bf16 input rounding) are
 *    compared against a float reference within
 *    |got - want| <= absTol + relTol * |want|.
 *
 * defaultToleranceFor() picks the regime from the output dtype:
 * integer outputs are exact, float-class outputs get the documented
 * bounds (docs/execution.md).
 */

#ifndef AMOS_QUANT_COMPARE_HH
#define AMOS_QUANT_COMPARE_HH

#include <cstdint>
#include <string>

#include "tensor/dtype.hh"
#include "tensor/tensor.hh"

namespace amos {
namespace quant {

/** Comparison regime + bounds. */
struct ToleranceSpec
{
    bool exact = true;   ///< bit equality per lane
    double absTol = 0.0; ///< bounded regime: absolute term
    double relTol = 0.0; ///< bounded regime: relative term

    static ToleranceSpec exactly() { return ToleranceSpec{}; }
    static ToleranceSpec
    bounded(double absTol, double relTol)
    {
        return ToleranceSpec{false, absTol, relTol};
    }
};

/**
 * Default regime per output dtype: exact for integer lanes, bounded
 * (1e-5 abs, 1e-4 rel) for f16/f32, and a looser 1e-2 relative bound
 * for bf16's 8-bit mantissa.
 */
ToleranceSpec defaultToleranceFor(DataType outputDtype);

/** Outcome of one comparison. */
struct CompareResult
{
    bool pass = false;
    std::int64_t failures = 0;    ///< lanes out of tolerance
    std::int64_t worstIndex = -1; ///< flat index of the worst lane
    double maxAbsErr = 0.0;
    double maxRelErr = 0.0;

    /** One-line human summary for test failure messages. */
    std::string summary() const;
};

/**
 * Compare `got` against `want` under `spec`. Sizes must match; under
 * the exact regime the storage lanes must match too (comparing an
 * i32 buffer against a float buffer bit-exactly is a harness bug).
 */
CompareResult compareBuffers(const Buffer &got, const Buffer &want,
                             const ToleranceSpec &spec);

} // namespace quant
} // namespace amos

#endif // AMOS_QUANT_COMPARE_HH
