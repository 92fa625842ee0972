/**
 * @file
 * Unit tests for the affine access-plan compiler: stride extraction
 * goldens, non-affine diagnosis, rollback math, split-level
 * selection, and the stride-walk engine's bit-identity with the
 * scalar interpreters.
 */

#include <gtest/gtest.h>

#include "ir/affine.hh"
#include "isa/intrinsics.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/metrics.hh"
#include "tensor/access_walk.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

TEST(Affine, AnalyzeExtractsCoefficients)
{
    Var i("i"), j("j");
    auto analysis = analyzeAffine(i * 3 + j + 5);
    ASSERT_TRUE(analysis.ok());
    EXPECT_TRUE(analysis.reason.empty());
    EXPECT_EQ(analysis.form->coeffOf(i.node()), 3);
    EXPECT_EQ(analysis.form->coeffOf(j.node()), 1);
    EXPECT_EQ(analysis.form->constant(), 5);
}

TEST(Affine, AnalyzeDiagnosesFloorDiv)
{
    Var i("i");
    auto analysis = analyzeAffine(floorDiv(i, 2));
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("FloorDiv"), std::string::npos)
        << analysis.reason;
    EXPECT_NE(analysis.reason.find("not affine"), std::string::npos)
        << analysis.reason;
}

TEST(Affine, AnalyzeDiagnosesVariableProduct)
{
    Var i("i"), j("j");
    auto analysis = analyzeAffine(i * j + 1);
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("product"), std::string::npos)
        << analysis.reason;
}

TEST(Affine, FlatAccessFoldsStrides)
{
    // A GEMM-style access A[i + 2, k + 1] on a [5, 7] tensor:
    // flat = (i + 2) * 7 + (k + 1) = 7 i + k + 15.
    Var i("i"), k("k");
    auto analysis =
        analyzeFlatAccess({i + 2, k + 1}, {7, 1});
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis.form->coeffOf(i.node()), 7);
    EXPECT_EQ(analysis.form->coeffOf(k.node()), 1);
    EXPECT_EQ(analysis.form->constant(), 15);
}

TEST(Affine, FlatAccessNamesOffendingDimension)
{
    Var i("i"), k("k");
    auto analysis =
        analyzeFlatAccess({i, floorDiv(k, 2)}, {7, 1});
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("index dim 1"), std::string::npos)
        << analysis.reason;
}

TEST(Walk, FinalizeComputesRollbacksAndAddressBox)
{
    AccessWalkPlan plan;
    plan.extents = {3, 2, 4};
    WalkOperand op;
    op.base = 5;
    op.stride = {8, -4, 1};
    plan.operands.push_back(op);
    plan.finalize();

    const WalkOperand &f = plan.operands[0];
    EXPECT_EQ(f.rollback, (std::vector<std::int64_t>{16, -4, 3}));
    // min: base + negative spans; max: base + positive spans.
    EXPECT_EQ(f.minAddr, 5 - 4);
    EXPECT_EQ(f.maxAddr, 5 + 16 + 3);
    EXPECT_EQ(plan.totalSteps(), 24);
}

TEST(Walk, CompileReferenceWalkGemmGoldens)
{
    // gemm iterators (i, j, k); A[i,k] on [3,7], B[k,j] on [7,5],
    // out[i,j] on [3,5].
    auto gemm = ops::makeGemm(3, 5, 7);
    std::string reason;
    auto plan = compileReferenceWalk(gemm, &reason);
    ASSERT_TRUE(plan.has_value()) << reason;
    ASSERT_EQ(plan->operands.size(), 3u);
    EXPECT_EQ(plan->extents, (std::vector<std::int64_t>{3, 5, 7}));
    EXPECT_EQ(plan->operands[0].stride,
              (std::vector<std::int64_t>{7, 0, 1})); // A
    EXPECT_EQ(plan->operands[1].stride,
              (std::vector<std::int64_t>{0, 1, 5})); // B
    EXPECT_EQ(plan->operands[2].stride,
              (std::vector<std::int64_t>{5, 1, 0})); // out
}

TEST(Walk, ReferenceWalkVisitsInterpreterAddressOrder)
{
    // The stride walk must produce exactly the address sequence the
    // interpreter derives via per-element expression evaluation, in
    // the same order.
    auto conv = ops::makeConv1d(2, 3, 4, 5, 3);
    auto plan = compileReferenceWalk(conv);
    ASSERT_TRUE(plan.has_value());

    std::vector<std::vector<std::int64_t>> walked;
    runAccessWalk(*plan, [&](const std::int64_t *a) {
        walked.push_back({a[0], a[1], a[2]});
    });

    std::vector<std::vector<std::int64_t>> interpreted;
    std::vector<std::int64_t> extents;
    for (const auto &iv : conv.iters())
        extents.push_back(iv.extent);
    VarBinding binding;
    forEachIndexDelta(extents, [&](const std::vector<std::int64_t>
                                       &idx,
                                   std::size_t dirty) {
        for (std::size_t s = dirty; s < conv.iters().size(); ++s)
            binding[conv.iters()[s].var.node()] = idx[s];
        auto flatOf = [&](const TensorDecl &decl,
                          const std::vector<Expr> &indices) {
            auto strides = decl.strides();
            std::int64_t flat = 0;
            for (std::size_t d = 0; d < indices.size(); ++d)
                flat += strides[d] * evalExpr(indices[d], binding);
            return flat;
        };
        interpreted.push_back(
            {flatOf(conv.inputs()[0].decl, conv.inputs()[0].indices),
             flatOf(conv.inputs()[1].decl, conv.inputs()[1].indices),
             flatOf(conv.output(), conv.outputIndices())});
    });

    EXPECT_EQ(walked, interpreted);
}

TEST(Walk, PickSplitLevelFindsDominantLevel)
{
    // Output of a GEMM over (m=4, n=5, k=3): strides (5, 1, 0).
    // Level 0's step (5) dominates the span of all other levels (4),
    // so distinct m values touch disjoint output addresses.
    AccessWalkPlan plan;
    plan.extents = {4, 5, 3};
    WalkOperand out;
    out.stride = {5, 1, 0};
    plan.operands.push_back(out);
    plan.finalize();
    EXPECT_EQ(pickSplitLevel(plan, 0, 3), 0);
    // Restricting the search below level 0 leaves nothing: n's step
    // of 1 does not dominate, k has stride 0.
    EXPECT_EQ(pickSplitLevel(plan, 0, 0), -1);
}

TEST(Walk, PickSplitLevelReportsUnsplittable)
{
    // out[i + j] style access: both levels step by 1, neither
    // dominates — the sweep must stay serial.
    AccessWalkPlan plan;
    plan.extents = {4, 4};
    WalkOperand out;
    out.stride = {1, 1};
    plan.operands.push_back(out);
    plan.finalize();
    EXPECT_EQ(pickSplitLevel(plan, 0, 2), -1);
}

TEST(Walk, ReferenceCompiledMatchesInterpreterExactly)
{
    for (auto &comp :
         {ops::makeGemm(6, 5, 4), ops::makeConv1d(2, 3, 4, 5, 3),
          ops::makeMean(5, 6)}) {
        auto inputs = makePatternInputs(comp, 11);
        std::vector<const Buffer *> ptrs;
        for (const auto &b : inputs)
            ptrs.push_back(&b);

        ExecOptions interp;
        interp.engine = ExecEngine::Interpreter;
        Buffer a(comp.output()), b(comp.output());
        referenceExecute(comp, ptrs, a, interp);
        referenceExecute(comp, ptrs, b, ExecOptions{});
        EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << comp.name();

        for (int threads : {2, 3, 4}) {
            ExecOptions par;
            par.numThreads = threads;
            Buffer c(comp.output());
            referenceExecute(comp, ptrs, c, par);
            EXPECT_EQ(a.maxAbsDiff(c), 0.0f)
                << comp.name() << " at " << threads << " threads";
        }
    }
}

TEST(Walk, NonAffineAccessFallsBackAndStaysExact)
{
    // The constructor rejects non-affine accesses, so force one via
    // the fuzz hook; the compiled path must refuse it (with the
    // exec.fallback metric) and the interpreter must take over
    // without changing results.
    auto gemm = ops::makeGemm(4, 6, 4);
    auto mutated = gemm.withMutatedInputIndex(
        0, 0, floorDiv(Expr(gemm.iters()[0].var), 2));

    std::string reason;
    EXPECT_FALSE(compileReferenceWalk(mutated, &reason).has_value());
    EXPECT_NE(reason.find("FloorDiv"), std::string::npos) << reason;

    auto inputs = makePatternInputs(mutated, 3);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    Buffer a(mutated.output()), b(mutated.output());
    referenceExecute(mutated, ptrs, a, interp);
    referenceExecute(mutated, ptrs, b, ExecOptions{});
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f);
    EXPECT_EQ(fallback.value(), before + 1);
}

TEST(ExecPlan, CompilesGemmAndRunsBitIdentical)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);

    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    EXPECT_EQ(ep.directOperands().size(), 3u);
    for (int threads : {1, 2, 4}) {
        auto res = engineVsInterpreterCompare(
            plans[0], ExecEngine::Walk, quant::ToleranceSpec::exactly(),
            7, threads);
        EXPECT_TRUE(res.pass) << threads << " threads: "
                              << res.summary();
    }
}

TEST(ExecPlan, MutatedAccessFallsBackWithReason)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        0, 1, floorDiv(Expr(gemm.iters()[2].var), 2));
    MappingPlan plan(mutated, isa::wmmaTiny(),
                     plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    ExecPlan ep(plan);
    EXPECT_FALSE(ep.compiled());
    EXPECT_NE(ep.fallbackReason().find("FloorDiv"),
              std::string::npos)
        << ep.fallbackReason();

    // The executors transparently interpret the plan instead.
    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();
    auto res = engineVsInterpreterCompare(
        plan, ExecEngine::Walk, quant::ToleranceSpec::exactly());
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_EQ(fallback.value(), before + 2); // direct + packed
}

} // namespace
} // namespace amos
