/**
 * @file
 * Functional-equivalence tests: every valid mapping, executed both
 * via index remapping and via the packed base/stride address path,
 * must reproduce the reference interpreter exactly. These are the
 * semantic-preservation guarantees of Sec. 5.2 put to work.
 */

#include <gtest/gtest.h>

#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "isa/intrinsics.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/config_suite.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

using ops::ConvParams;

constexpr float kTol = 1e-4f;

ConvParams
tinyConvParams()
{
    ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    return pr;
}

/** Small instance of each operator kind used by the param suites. */
TensorComputation
makeSmallOp(ops::OpKind kind)
{
    ConvParams pr = tinyConvParams();
    switch (kind) {
      case ops::OpKind::GMV: return ops::makeGemv(5, 7);
      case ops::OpKind::GMM: return ops::makeGemm(3, 5, 7);
      case ops::OpKind::C1D: return ops::makeConv1d(2, 3, 4, 5, 3);
      case ops::OpKind::C2D: return ops::makeConv2d(pr);
      case ops::OpKind::C3D: return ops::makeConv3d(pr, 2, 2);
      case ops::OpKind::T2D: {
        ConvParams t2 = pr;
        t2.stride = 2;
        return ops::makeTransposedConv2d(t2);
      }
      case ops::OpKind::GRP: return ops::makeGroupConv2d(pr, 2);
      case ops::OpKind::DIL: {
        ConvParams dil = pr;
        dil.dilation = 2;
        return ops::makeDilatedConv2d(dil);
      }
      case ops::OpKind::DEP: return ops::makeDepthwiseConv2d(pr, 2);
      case ops::OpKind::CAP: {
        ConvParams cap = pr;
        cap.out_h = 2;
        cap.out_w = 2;
        cap.out_channels = 2;
        return ops::makeCapsuleConv2d(cap, 2);
      }
      case ops::OpKind::BCV: return ops::makeBatchedConv2d(pr);
      case ops::OpKind::GFC: return ops::makeGroupedFC(2, 3, 4, 5);
      case ops::OpKind::MEN: return ops::makeMean(5, 6);
      case ops::OpKind::VAR: return ops::makeVariance(5, 6);
      case ops::OpKind::SCN: return ops::makeScan(3, 5);
    }
    panic("unreachable");
}

TEST(Execute, Fig3MappingReproducesReference)
{
    ConvParams pr;
    pr.batch = 1;
    pr.in_channels = 1;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 2;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = ops::makeConv2d(pr);
    ComputeMapping m;
    m.groups = {{0, 2, 3}, {1}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_TRUE(plan.valid());
    EXPECT_LE(mappedVsReferenceError(plan), kTol);
}

TEST(Execute, AllConv2dMappingsPreserveSemantics)
{
    // The central property test: all 35 addressable C2D mappings are
    // functionally exact, trailing padding and empty groups included.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 35u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

TEST(Execute, PermissiveMappingsAlsoPreserveSemantics)
{
    // Addressability is a performance property, not a correctness
    // one: permissive-only mappings are exact too.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::wmmaTiny(),
                                {LegalityPolicy::Permissive, 0});
    ASSERT_EQ(plans.size(), 49u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

class OperatorExecution
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(OperatorExecution, EveryMappingOfEveryOperatorIsExact)
{
    // Small instance of each operator kind; every addressable mapping
    // on the tiny Tensor Core must be exact.
    TensorComputation comp = makeSmallOp(GetParam());

    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u)
        << ops::opKindName(GetParam()) << " has no valid mapping";
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(comp));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, OperatorExecution,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

class TunedOperatorDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(TunedOperatorDifferential, BestTunedPlanMatchesReference)
{
    // End-to-end differential: run the whole exploration pipeline
    // (enumerate -> validate -> GA search over schedules) and check
    // that the *winning* plan still computes the same values as the
    // naive scalar reference. Guards against the tuner preferring a
    // mapping whose execution semantics drifted.
    TensorComputation comp = makeSmallOp(GetParam());

    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);

    TuneOptions options;
    options.generations = 2;
    options.population = 8;
    options.measureTopK = 2;
    options.exploitSteps = 0;
    options.numThreads = 2;
    auto result = tuneWithPlans(plans, hw::v100(), options);
    ASSERT_TRUE(result.tensorizable);
    ASSERT_TRUE(result.bestPlan.has_value());
    ASSERT_LT(result.bestMappingIndex, plans.size());

    SCOPED_TRACE(result.bestPlan->mapping().signature(comp));
    EXPECT_LE(mappedVsReferenceError(*result.bestPlan), kTol);
    // The winner must be one of the enumerated plans, bit-for-bit.
    EXPECT_EQ(result.bestPlan->mapping().signature(comp),
              plans[result.bestMappingIndex]
                  .mapping()
                  .signature(comp));
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, TunedOperatorDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

class CompiledEngineDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(CompiledEngineDifferential, StrideWalkIsBitIdentical)
{
    // The stride-walk engine must reproduce the scalar interpreters
    // *bit for bit* — not within tolerance — on every addressable
    // mapping of every operator kind, serial and parallel.
    TensorComputation comp = makeSmallOp(GetParam());
    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(comp));
        for (int threads : {1, 4}) {
            auto res = engineVsInterpreterCompare(
                plan, ExecEngine::Walk, quant::ToleranceSpec::exactly(),
                7, threads);
            EXPECT_TRUE(res.pass) << threads << " threads: "
                                  << res.summary();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, CompiledEngineDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

TEST(Execute, ThreadCountNeverChangesResults)
{
    // Determinism guarantee of the parallel sweep: any thread count
    // yields the 1-thread bits, for both mapped paths.
    auto gemm = ops::makeGemm(8, 6, 5);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    const auto &plan = plans[0];

    auto inputs = makePatternInputs(gemm, 13);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    Buffer direct1(gemm.output()), packed1(gemm.output());
    executeMappedDirect(plan, ptrs, direct1, ExecOptions{});
    executeMappedPacked(plan, ptrs, packed1, ExecOptions{});
    for (int threads : {2, 3, 4}) {
        ExecOptions opts;
        opts.numThreads = threads;
        Buffer direct(gemm.output()), packed(gemm.output());
        executeMappedDirect(plan, ptrs, direct, opts);
        executeMappedPacked(plan, ptrs, packed, opts);
        EXPECT_EQ(direct1.maxAbsDiff(direct), 0.0f)
            << threads << " threads (direct)";
        EXPECT_EQ(packed1.maxAbsDiff(packed), 0.0f)
            << threads << " threads (packed)";
    }
}

TEST(Execute, FuzzedNonAffineAccessForcesFallback)
{
    // Mutate one access expression into non-affine form (only
    // possible via the fuzz hook — the constructor rejects it) and
    // check the executors transparently fall back to the interpreter
    // with identical results and a logged exec.fallback metric.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);

    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();
    // floorDiv(2k, 2) evaluates like k, so the interpreter result must
    // equal the unmutated plan's — while the engine must refuse the
    // non-affine form rather than silently miscompiling it.
    auto res = engineVsInterpreterCompare(
        plan, ExecEngine::Walk, quant::ToleranceSpec::exactly());
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_EQ(fallback.value(), before + 2); // direct + packed

    Buffer viaMutated(mutated.output());
    Buffer viaOriginal(gemm.output());
    auto inputs = makePatternInputs(gemm, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    executeMappedDirect(plan, ptrs, viaMutated);
    executeMappedDirect(plans[0], ptrs, viaOriginal);
    EXPECT_EQ(viaMutated.maxAbsDiff(viaOriginal), 0.0f);
}

TEST(Execute, OtherIntrinsicsPreserveSemantics)
{
    // Same property on structurally different intrinsics: VNNI
    // (matrix-vector), Mali dot (scalar output), and the virtual
    // 4-iteration CONV accelerator. The int8 intrinsics run the
    // quantized conv — their dtype-legal operand typing.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto qconv = ops::makeQuantizedConv2d(tinyConvParams());
    for (const auto &intr :
         {isa::avx512Vnni(), isa::maliDot(),
          isa::virtualConv(2, 2, 2, 2), isa::virtualGemv(2, 4),
          isa::virtualAxpy(4)}) {
        const bool int8 =
            intr.compute.dst().dtype == DataType::I32;
        const auto &comp = int8 ? qconv : conv;
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_GT(plans.size(), 0u) << intr.name();
        for (const auto &plan : plans) {
            SCOPED_TRACE(intr.name() + " " +
                         plan.mapping().signature(comp));
            EXPECT_LE(mappedVsReferenceError(plan), kTol);
        }
    }
}

TEST(Execute, LargeIntrinsicPaddingIsExact)
{
    // Extents far below the intrinsic problem size: everything is
    // padding-dominated, results must still be exact.
    auto gemm = ops::makeGemm(3, 2, 5);
    auto plans = enumeratePlans(gemm, isa::wmma(16, 16, 16), {});
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_GT(plans[0].paddingWasteFactor(), 10.0);
    EXPECT_LE(mappedVsReferenceError(plans[0]), kTol);
}

TEST(Execute, RejectsInvalidPlan)
{
    auto conv = ops::makeConv2d(tinyConvParams());
    ComputeMapping m;
    m.groups = {{0, 1}, {}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_FALSE(plan.valid());
    auto inputs = makePatternInputs(conv, 3);
    std::vector<const Buffer *> ptrs = {&inputs[0], &inputs[1]};
    Buffer out(conv.output());
    EXPECT_THROW(executeMappedDirect(plan, ptrs, out), PanicError);
    EXPECT_THROW(executeMappedPacked(plan, ptrs, out), PanicError);
}

TEST(Execute, SeedVariationStaysExact)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    for (std::uint64_t seed : {1ULL, 42ULL, 1234567ULL})
        EXPECT_LE(mappedVsReferenceError(plans[0], seed), kTol);
}

// ---------------------------------------------------------------
// Quantized / mixed-precision differentials (quant/compare.hh).
// ---------------------------------------------------------------

/**
 * Quantized operator variants at small extents, paired with an int8
 * intrinsic whose mapping space is non-empty for that operator.
 */
std::vector<std::pair<TensorComputation, Intrinsic>>
quantizedSuite()
{
    std::vector<std::pair<TensorComputation, Intrinsic>> suite;
    suite.emplace_back(ops::makeQuantizedGemm(3, 5, 8),
                       isa::avx512Vnni());
    suite.emplace_back(ops::makeQuantizedGemm(4, 4, 8),
                       isa::maliDot());
    suite.emplace_back(ops::makeQuantizedConv2d(tinyConvParams()),
                       isa::avx512Vnni());
    suite.emplace_back(ops::makeQuantizedConv2d(tinyConvParams()),
                       isa::maliDot());
    // Symmetric i8 x i8 exercises the second loader combination.
    suite.emplace_back(ops::makeQuantizedGemm(3, 5, 8, DataType::I8,
                                              DataType::I8),
                       isa::maliDot());
    return suite;
}

TEST(QuantExecute, Int8EnginesBitExactAcrossThreadCounts)
{
    // int8 accumulation is exact int32 arithmetic, so every engine
    // must agree with the scalar interpreter bit for bit — at every
    // thread count, on both mapped paths.
    for (const auto &[comp, intr] : quantizedSuite()) {
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_GT(plans.size(), 0u)
            << comp.name() << " x " << intr.name();
        for (ExecEngine engine : {ExecEngine::Walk, ExecEngine::Jit}) {
            for (int threads : {1, 4}) {
                SCOPED_TRACE(comp.name() + " x " + intr.name() +
                             " engine=" + execEngineName(engine) +
                             " threads=" + std::to_string(threads));
                auto res = engineVsInterpreterCompare(
                    plans[0], engine,
                    quant::ToleranceSpec::exactly(), 7, threads);
                EXPECT_TRUE(res.pass) << res.summary();
            }
        }
    }
}

TEST(QuantExecute, Int8EveryMappingBitExact)
{
    // Not just the first plan: every enumerated quantized mapping
    // must survive the exact differential on the walk engine.
    auto conv = ops::makeQuantizedConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        auto res = engineVsInterpreterCompare(
            plan, ExecEngine::Walk, quant::ToleranceSpec::exactly());
        EXPECT_TRUE(res.pass) << res.summary();
    }
}

TEST(QuantExecute, Bf16WithinDocumentedBounds)
{
    // bf16 inputs round to an 8-bit mantissa before the exact f32
    // accumulation; engines still agree bit-for-bit with each other,
    // and the result tracks the f32 reference within the documented
    // bf16 bound (docs/execution.md).
    auto b = ops::bf16Variant(ops::makeGemm(4, 5, 8));
    auto plans = enumeratePlans(b, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    for (int threads : {1, 4}) {
        auto res = engineVsInterpreterCompare(
            plans[0], ExecEngine::Walk,
            quant::ToleranceSpec::exactly(), 7, threads);
        EXPECT_TRUE(res.pass) << res.summary();
    }

    // Against the float reference the comparison is bounded, not
    // exact: run the bf16 interpreter and the f32 interpreter on the
    // same pattern values and compare under the bf16 tolerance.
    auto f = ops::makeGemm(4, 5, 8,
                           DataType::F32); // same shape, f32 operands
    auto binputs = makePatternInputs(b, 7);
    std::vector<const Buffer *> bptrs;
    for (const auto &buf : binputs)
        bptrs.push_back(&buf);
    Buffer bout(b.output());
    referenceExecute(b, bptrs, bout);

    // The f32 run sees the bf16-rounded values, dequantized: that is
    // the reference the tolerance bound is defined against.
    std::vector<Buffer> finputs;
    for (const auto &buf : binputs) {
        Buffer fb(buf.decl().withDtype(DataType::F32));
        for (std::size_t i = 0; i < fb.size(); ++i)
            fb.set(i, buf.at(i));
        finputs.push_back(std::move(fb));
    }
    std::vector<const Buffer *> fptrs;
    for (const auto &buf : finputs)
        fptrs.push_back(&buf);
    Buffer fout(f.output());
    referenceExecute(f, fptrs, fout);

    auto res = quant::compareBuffers(
        bout, fout, quant::defaultToleranceFor(DataType::BF16));
    EXPECT_TRUE(res.pass) << res.summary();
}

TEST(QuantExecute, DtypeIllegalPlanIsInvalid)
{
    // A hand-built mapping of a float conv onto the int8 VNNI
    // intrinsic passes the structural Algorithm-1 check but fails
    // dtype legality, so the plan is invalid with a "dtype:" reason
    // and the executors refuse it.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto qconv = ops::makeQuantizedConv2d(tinyConvParams());
    auto qplans = enumeratePlans(qconv, isa::avx512Vnni(), {});
    ASSERT_GT(qplans.size(), 0u);
    MappingPlan plan(conv, isa::avx512Vnni(),
                     qplans[0].mapping());
    EXPECT_FALSE(plan.valid());
    EXPECT_EQ(plan.validation().failure.rfind("dtype: ", 0), 0u)
        << plan.validation().failure;
    auto inputs = makePatternInputs(conv, 3);
    std::vector<const Buffer *> ptrs = {&inputs[0], &inputs[1]};
    Buffer out(conv.output());
    EXPECT_THROW(executeMappedDirect(plan, ptrs, out), PanicError);
}

TEST(Execute, AccessPastDeclaredExtentIsDeclinedThenPanics)
{
    // An access one past its declared extent: both compiled engines
    // must decline it at compile time by proving its address box,
    // and the interpreter every tier then falls back to must raise
    // instead of touching memory outside the tensor.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        0, 1, gemm.iters()[2].var + 1);

    std::string reason;
    EXPECT_FALSE(compileReferenceWalk(mutated, &reason).has_value());
    EXPECT_NE(reason.find("address box"), std::string::npos) << reason;

    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());
    ExecPlan ep(plan);
    EXPECT_FALSE(ep.compiled());
    EXPECT_NE(ep.fallbackReason().find("address box"),
              std::string::npos)
        << ep.fallbackReason();

    auto inputs = makePatternInputs(mutated, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    for (ExecEngine engine : {ExecEngine::Interpreter, ExecEngine::Walk,
                              ExecEngine::Jit}) {
        SCOPED_TRACE(execEngineName(engine));
        ExecOptions opts;
        opts.engine = engine;
        Buffer out(mutated.output());
        EXPECT_THROW(referenceExecute(mutated, ptrs, out, opts),
                     PanicError);
        EXPECT_THROW(executeMappedDirect(plan, ptrs, out, opts),
                     PanicError);
        EXPECT_THROW(executeMappedPacked(plan, ptrs, out, opts),
                     PanicError);
    }
}

TEST(Bounds, EveryC2DMappingProvablyInBounds)
{
    // ExecPlan's compile step proves every direct operand's and every
    // packed stream's address box over the whole iteration box, so a
    // plan that compiles cannot address outside its buffers.
    auto conv = ops::makeConv2d(tinyConvParams());
    for (const auto &plan :
         enumeratePlans(conv, isa::wmmaTiny(),
                        {LegalityPolicy::Permissive, 0})) {
        ExecPlan ep(plan);
        EXPECT_TRUE(ep.compiled()) << plan.mapping().signature(conv)
                                   << ": " << ep.fallbackReason();
    }
}

TEST(Bounds, FullConfigSuiteProvablyInBounds)
{
    // The proof covers the whole iteration domain without executing
    // anything, so the real-size 113-configuration suite is cheap.
    // One mapping per configuration.
    auto intr = isa::wmma(16, 16, 16);
    for (const auto &entry : ops::configSuite()) {
        auto comp = entry.build(1);
        GeneratorOptions one;
        one.maxCandidates = 1;
        auto mappings = enumerateMappings(comp, intr, one);
        ASSERT_FALSE(mappings.empty()) << entry.label;
        MappingPlan plan(comp, intr, mappings.front());
        ASSERT_TRUE(plan.valid()) << entry.label;
        ExecPlan ep(plan);
        EXPECT_TRUE(ep.compiled())
            << entry.label << ": " << ep.fallbackReason();
    }
}

} // namespace
} // namespace amos
