/**
 * @file
 * Unit tests for the quantized / mixed-precision subsystem
 * (src/quant): bf16 conversion goldens, dtype legality, semantics
 * classification, the tolerance-aware comparator, and the typed
 * Buffer storage lanes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "quant/bf16.hh"
#include "quant/compare.hh"
#include "quant/legality.hh"
#include "quant/semantics.hh"
#include "isa/intrinsics.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "tensor/tensor.hh"

namespace amos {
namespace {

using quant::KernelSemantics;

// ---------------------------------------------------------------
// bf16 conversion goldens.
// ---------------------------------------------------------------

TEST(Bf16, WideningIsExact)
{
    // bf16 bits are the top half of the binary32; widening shifts.
    EXPECT_EQ(quant::floatFromBf16(0x3F80), 1.0f);
    EXPECT_EQ(quant::floatFromBf16(0xBF80), -1.0f);
    EXPECT_EQ(quant::floatFromBf16(0x4000), 2.0f);
    EXPECT_EQ(quant::floatFromBf16(0x0000), 0.0f);
    EXPECT_EQ(quant::floatFromBf16(0x7F80),
              std::numeric_limits<float>::infinity());
}

TEST(Bf16, NarrowingRoundsToNearestEven)
{
    // Exactly representable values pass through.
    EXPECT_EQ(quant::bf16FromFloat(1.0f), 0x3F80);
    EXPECT_EQ(quant::bf16FromFloat(-2.0f), 0xC000);

    // 1 + 2^-8 sits exactly halfway between 1.0 (mantissa 0x00,
    // even) and the next bf16 (mantissa 0x01, odd): ties to even.
    EXPECT_EQ(quant::bf16FromFloat(1.00390625f), 0x3F80);
    // 1 + 3*2^-8 is halfway between 0x01 and 0x02: rounds up to
    // the even mantissa 0x02.
    EXPECT_EQ(quant::bf16FromFloat(1.01171875f), 0x3F82);
    // Just above the tie rounds up.
    EXPECT_EQ(quant::bf16FromFloat(1.00390637f), 0x3F81);

    // Rounding can carry into the exponent: the largest float below
    // 2.0 rounds to exactly 2.0.
    EXPECT_EQ(quant::bf16FromFloat(std::nextafter(2.0f, 0.0f)),
              0x4000);
}

TEST(Bf16, NaNIsQuietedAndInfinityPreserved)
{
    const std::uint16_t qnan = quant::bf16FromFloat(
        std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(std::isnan(quant::floatFromBf16(qnan)));
    // The quiet bit is forced so a payload-less NaN cannot collapse
    // to infinity.
    EXPECT_NE(qnan & 0x0040, 0);

    // A signalling-style NaN with a tiny payload must stay NaN too.
    std::uint32_t snan_bits = 0x7F800001u;
    float snan;
    std::memcpy(&snan, &snan_bits, sizeof(snan));
    EXPECT_TRUE(
        std::isnan(quant::floatFromBf16(quant::bf16FromFloat(snan))));

    EXPECT_EQ(quant::bf16FromFloat(
                  std::numeric_limits<float>::infinity()),
              0x7F80);
    EXPECT_EQ(quant::bf16FromFloat(
                  -std::numeric_limits<float>::infinity()),
              0xFF80);
}

TEST(Bf16, RoundTripErrorWithinHalfUlp)
{
    // |x - bf16Round(x)| <= 2^-8 * |x| for normal values (7 mantissa
    // bits -> half-ulp relative error 2^-8).
    for (float x : {0.1f, 0.3333333f, 1.5f, 3.14159265f, 1000.25f,
                    -7.77f, 1e-3f, 1e20f}) {
        const float r = quant::bf16Round(x);
        EXPECT_LE(std::abs(x - r), std::abs(x) * 0x1p-8f) << x;
    }
}

// ---------------------------------------------------------------
// Dtype legality.
// ---------------------------------------------------------------

TEST(Legality, WidthClassesNotExactDtypes)
{
    using quant::operandDtypeCompatible;
    // Float class is interchangeable.
    EXPECT_TRUE(operandDtypeCompatible(DataType::F32, DataType::F16));
    EXPECT_TRUE(operandDtypeCompatible(DataType::BF16, DataType::F16));
    EXPECT_TRUE(operandDtypeCompatible(DataType::F16, DataType::F32));
    // Int8 class ignores signedness.
    EXPECT_TRUE(operandDtypeCompatible(DataType::I8, DataType::U8));
    EXPECT_TRUE(operandDtypeCompatible(DataType::U8, DataType::I8));
    // Classes do not mix.
    EXPECT_FALSE(operandDtypeCompatible(DataType::F32, DataType::I8));
    EXPECT_FALSE(operandDtypeCompatible(DataType::I8, DataType::F16));
    EXPECT_FALSE(operandDtypeCompatible(DataType::I32, DataType::I8));
    EXPECT_FALSE(operandDtypeCompatible(DataType::F32,
                                        DataType::I32));
}

TEST(Legality, FloatGemmIllegalOnVnniWithReason)
{
    auto gemm = ops::makeGemm(4, 4, 8);
    auto legal =
        quant::checkDtypeLegality(gemm, isa::avx512Vnni().compute);
    EXPECT_FALSE(legal.legal);
    EXPECT_NE(legal.reason.find("f16"), std::string::npos)
        << legal.reason;

    auto qgemm = ops::makeQuantizedGemm(4, 4, 8);
    EXPECT_TRUE(
        quant::checkDtypeLegality(qgemm, isa::avx512Vnni().compute)
            .legal);
    // And the reverse: the quantized GEMM cannot feed a float unit.
    EXPECT_FALSE(
        quant::checkDtypeLegality(qgemm, isa::wmmaTiny().compute)
            .legal);
}

// ---------------------------------------------------------------
// Semantics classification.
// ---------------------------------------------------------------

TEST(Semantics, ClassifiesAllThreeDisciplines)
{
    auto f = quant::classifyComputation(ops::makeGemm(2, 2, 2));
    EXPECT_TRUE(f.supported);
    EXPECT_EQ(f.kind, KernelSemantics::F32);

    auto q = quant::classifyComputation(
        ops::makeQuantizedGemm(2, 2, 2));
    EXPECT_TRUE(q.supported);
    EXPECT_EQ(q.kind, KernelSemantics::IntDot);

    auto b = quant::classifyComputation(
        ops::bf16Variant(ops::makeGemm(2, 2, 2)));
    EXPECT_TRUE(b.supported);
    EXPECT_EQ(b.kind, KernelSemantics::Bf16);
}

TEST(Semantics, Bf16AccumulationIsRejected)
{
    // bf16 output would round per engine-dependent intermediate and
    // break cross-engine bit-exactness; the classifier says why.
    auto comp = ops::makeGemm(2, 2, 2).withOperandDtypes(
        {DataType::BF16, DataType::BF16}, DataType::BF16);
    auto sem = quant::classifyComputation(comp);
    EXPECT_FALSE(sem.supported);
    EXPECT_NE(sem.reason.find("bf16 accumulation"),
              std::string::npos)
        << sem.reason;
}

TEST(Semantics, Int8NeedsI32Output)
{
    auto comp = ops::makeGemm(2, 2, 2).withOperandDtypes(
        {DataType::I8, DataType::I8}, DataType::F32);
    auto sem = quant::classifyComputation(comp);
    EXPECT_FALSE(sem.supported);
    EXPECT_NE(sem.reason.find("i32 output"), std::string::npos)
        << sem.reason;
}

TEST(Semantics, IntDotStepWrapsExactly)
{
    EXPECT_EQ(quant::intDotStep(0, 3, 4), 12);
    EXPECT_EQ(quant::intDotStep(10, -2, 5), 0);
    // Saturating nothing: the discipline wraps in two's complement.
    const std::int32_t maxv = std::numeric_limits<std::int32_t>::max();
    EXPECT_EQ(quant::intDotStep(maxv, 1, 1),
              std::numeric_limits<std::int32_t>::min());
}

// ---------------------------------------------------------------
// Tolerance-aware comparator.
// ---------------------------------------------------------------

TEST(Compare, ExactRegimeCatchesOneBit)
{
    TensorDecl decl("t", {8});
    Buffer a(decl.withDtype(DataType::I32));
    Buffer b(decl.withDtype(DataType::I32));
    for (std::size_t i = 0; i < a.size(); ++i) {
        a.intSet(i, static_cast<std::int64_t>(i) * 3 - 5);
        b.intSet(i, static_cast<std::int64_t>(i) * 3 - 5);
    }
    auto ok = quant::compareBuffers(a, b,
                                    quant::ToleranceSpec::exactly());
    EXPECT_TRUE(ok.pass);
    EXPECT_EQ(ok.failures, 0);

    b.intSet(5, b.intAt(5) + 1); // one flipped lane
    auto bad = quant::compareBuffers(
        a, b, quant::ToleranceSpec::exactly());
    EXPECT_FALSE(bad.pass);
    EXPECT_EQ(bad.failures, 1);
    EXPECT_EQ(bad.worstIndex, 5);
    EXPECT_NE(bad.summary().find("5"), std::string::npos);
}

TEST(Compare, BoundedRegimeUsesAbsPlusRel)
{
    TensorDecl decl("t", {4});
    Buffer want(decl.withDtype(DataType::F32));
    Buffer got(decl.withDtype(DataType::F32));
    want.set(0, 100.0f);
    got.set(0, 100.9f); // rel err 0.9% < 1%
    want.set(1, 0.0f);
    got.set(1, 0.005f); // abs err within 0.01
    want.set(2, -50.0f);
    got.set(2, -50.4f);
    want.set(3, 1.0f);
    got.set(3, 1.0f);
    auto spec = quant::ToleranceSpec::bounded(0.01, 0.01);
    EXPECT_TRUE(quant::compareBuffers(got, want, spec).pass);

    got.set(3, 1.5f); // way out
    auto bad = quant::compareBuffers(got, want, spec);
    EXPECT_FALSE(bad.pass);
    EXPECT_EQ(bad.failures, 1);
    EXPECT_EQ(bad.worstIndex, 3); // the failing lane, not lane 0
    // maxAbsErr tracks the largest error over ALL lanes, passing
    // ones included: lane 0's 0.9 beats the failing lane's 0.5.
    EXPECT_NEAR(bad.maxAbsErr, 0.9, 1e-4);
    EXPECT_NE(bad.summary().find("out of tolerance"),
              std::string::npos);
}

TEST(Compare, DefaultRegimeFollowsOutputDtype)
{
    EXPECT_TRUE(quant::defaultToleranceFor(DataType::I32).exact);
    EXPECT_TRUE(quant::defaultToleranceFor(DataType::I8).exact);
    EXPECT_FALSE(quant::defaultToleranceFor(DataType::F32).exact);
    EXPECT_FALSE(quant::defaultToleranceFor(DataType::BF16).exact);
    // bf16's 8-bit mantissa gets the documented looser bound.
    EXPECT_GT(quant::defaultToleranceFor(DataType::BF16).relTol,
              quant::defaultToleranceFor(DataType::F32).relTol);
}

// ---------------------------------------------------------------
// Typed Buffer storage.
// ---------------------------------------------------------------

TEST(TypedBuffer, LanesFollowDtype)
{
    TensorDecl d("t", {4});
    EXPECT_EQ(Buffer(d).storage(), StorageLane::F32); // f16 default
    EXPECT_EQ(Buffer(d.withDtype(DataType::F32)).storage(),
              StorageLane::F32);
    EXPECT_EQ(Buffer(d.withDtype(DataType::BF16)).storage(),
              StorageLane::BF16);
    EXPECT_EQ(Buffer(d.withDtype(DataType::I8)).storage(),
              StorageLane::I8);
    EXPECT_EQ(Buffer(d.withDtype(DataType::U8)).storage(),
              StorageLane::U8);
    EXPECT_EQ(Buffer(d.withDtype(DataType::I32)).storage(),
              StorageLane::I32);

    EXPECT_EQ(Buffer(d.withDtype(DataType::I8)).storageBytes(), 4u);
    EXPECT_EQ(Buffer(d.withDtype(DataType::BF16)).storageBytes(),
              8u);
    EXPECT_EQ(Buffer(d.withDtype(DataType::I32)).storageBytes(),
              16u);
}

TEST(TypedBuffer, WrongLaneAccessorPanics)
{
    Buffer f(TensorDecl("t", {2}));
    EXPECT_THROW(f.i8Data(), PanicError);
    EXPECT_THROW(f.intAt(0), PanicError);
    Buffer q(TensorDecl("t", {2}).withDtype(DataType::I8));
    EXPECT_THROW(q.data(), PanicError);
    EXPECT_THROW(q.accumulate(0, 1.0f), PanicError);
}

TEST(TypedBuffer, ConvertingSetRoundsAndSaturates)
{
    Buffer q(TensorDecl("t", {4}).withDtype(DataType::I8));
    q.set(0, 3.6f);
    q.set(1, -3.6f);
    q.set(2, 1000.0f);
    q.set(3, -1000.0f);
    EXPECT_EQ(q.intAt(0), 4);
    EXPECT_EQ(q.intAt(1), -4);
    EXPECT_EQ(q.intAt(2), 127);
    EXPECT_EQ(q.intAt(3), -128);
    EXPECT_EQ(q.at(2), 127.0f); // converting read

    Buffer b(TensorDecl("t", {1}).withDtype(DataType::BF16));
    b.set(0, 3.14159265f);
    EXPECT_EQ(b.at(0), quant::bf16Round(3.14159265f));
}

TEST(TypedBuffer, FillPatternIsDeterministicPerLane)
{
    TensorDecl d("t", {32});
    Buffer a(d.withDtype(DataType::I8));
    Buffer b(d.withDtype(DataType::I8));
    a.fillPattern(9);
    b.fillPattern(9);
    EXPECT_TRUE(a.bitEqual(b));
    b.fillPattern(10);
    EXPECT_FALSE(a.bitEqual(b));

    // Float lanes keep the historical [-1, 1) pattern; bf16 stores
    // the rounded value of the same stream.
    Buffer f(d.withDtype(DataType::F32));
    Buffer bf(d.withDtype(DataType::BF16));
    f.fillPattern(9);
    bf.fillPattern(9);
    for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_GE(f.at(i), -1.0f);
        EXPECT_LT(f.at(i), 1.0f);
        EXPECT_EQ(bf.at(i), quant::bf16Round(f.at(i)));
    }

    // Integer lanes draw from their whole ranges eventually; at the
    // very least the pattern is not constant.
    bool varies = false;
    for (std::size_t i = 1; i < a.size(); ++i)
        varies = varies || a.intAt(i) != a.intAt(0);
    EXPECT_TRUE(varies);
}

TEST(TypedBuffer, IntAccumulateWrapsLikeIntDotStep)
{
    Buffer acc(TensorDecl("t", {1}).withDtype(DataType::I32));
    const std::int32_t maxv = std::numeric_limits<std::int32_t>::max();
    acc.intSet(0, maxv);
    acc.intAccumulate(0, 1);
    EXPECT_EQ(acc.intAt(0), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(acc.intAt(0), quant::intDotStep(maxv, 1, 1));
}

TEST(TypedBuffer, BitEqualDistinguishesLanes)
{
    TensorDecl d("t", {2});
    Buffer i8(d.withDtype(DataType::I8));
    Buffer u8(d.withDtype(DataType::U8));
    i8.fill(1.0f);
    u8.fill(1.0f);
    EXPECT_FALSE(i8.bitEqual(u8)); // same values, different lanes
    Buffer i8b(d.withDtype(DataType::I8));
    i8b.fill(1.0f);
    EXPECT_TRUE(i8.bitEqual(i8b));
}

} // namespace
} // namespace amos
