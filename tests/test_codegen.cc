/**
 * @file
 * Code-generation tests: structural checks of the emitted C and full
 * end-to-end verification — the exec kernels of a mapping's compiled
 * plan (codegen/exec_c.hh) are built by a private JitEngine under
 * -std=c99 -Wall -Wextra -Werror, run on pattern inputs, and compared
 * bit for bit against the interpreter of the same mapped path (and
 * within float reordering error against the reference interpreter).
 */

#include <gtest/gtest.h>

#include "codegen/exec_c.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/schedule.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

/**
 * One engine for the suite with warnings fatal. Its store is shared
 * by concurrently running test processes, which the content-hashed,
 * rename-installed cache supports.
 */
JitEngine &
strictEngine()
{
    static JitEngine engine([] {
        JitOptions opts = JitOptions::fromEnv();
        opts.flags += " -std=c99 -Wall -Wextra -Werror";
        opts.cacheDir = ::testing::TempDir() + "amos-codegen-jit";
        return opts;
    }());
    return engine;
}

/** Build `source` and run it on `inputs`; false if it did not build. */
bool
runKernel(const std::string &source,
          const std::vector<const Buffer *> &inputs, Buffer &output)
{
    std::string why;
    ExecKernelFn fn = strictEngine().getOrCompile(source, &why);
    EXPECT_NE(fn, nullptr) << "kernel failed to build: " << why
                           << "\n"
                           << source.substr(0, 2000);
    if (!fn)
        return false;
    std::vector<const void *> ptrs;
    for (const Buffer *in : inputs)
        ptrs.push_back(in->rawData());
    fn(ptrs.data(), output.rawData());
    return true;
}

/**
 * Emit, compile and run both exec kernels of `plan`; each must be
 * bit-identical to the interpreter of its own mapped path. Returns
 * the largest deviation from the reference interpreter.
 */
float
codegenError(const MappingPlan &plan)
{
    ExecPlan ep(plan);
    EXPECT_TRUE(ep.compiled()) << ep.fallbackReason();
    if (!ep.compiled())
        return 1e9f;

    const auto &comp = plan.computation();
    auto inputs = makePatternInputs(comp, 21);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;

    Buffer ref(comp.output());
    referenceExecute(comp, ptrs, ref, interp);

    Buffer directInterp(comp.output()), direct(comp.output());
    executeMappedDirect(plan, ptrs, directInterp, interp);
    if (!runKernel(generateDirectKernelC(ep, "direct"), ptrs, direct))
        return 1e9f;
    EXPECT_EQ(direct.maxAbsDiff(directInterp), 0.0f);
    EXPECT_TRUE(direct.bitEqual(directInterp));

    Buffer packedInterp(comp.output()), packed(comp.output());
    executeMappedPacked(plan, ptrs, packedInterp, interp);
    if (!runKernel(generatePackedKernelC(ep, "packed"), ptrs, packed))
        return 1e9f;
    EXPECT_EQ(packed.maxAbsDiff(packedInterp), 0.0f);
    EXPECT_TRUE(packed.bitEqual(packedInterp));

    return std::max(ref.maxAbsDiff(direct), ref.maxAbsDiff(packed));
}

ops::ConvParams
tinyConv()
{
    ops::ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 3;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    return pr;
}

TEST(Codegen, EmitsStructuredSource)
{
    auto conv = ops::makeConv2d(tinyConv());
    ComputeMapping m;
    m.groups = {{0, 2, 3}, {1}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ExecPlan ep(plan);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    auto sched = defaultSchedule(plan);
    sched.axes[0].blockFactor = 2;

    // The annotation lines amos_cli --emit-c puts in the header.
    auto source = generatePackedKernelC(
        ep, conv.name() + " via " + plan.intrinsic().compute.name() +
                "\nmapping:  " + plan.mapping().signature(conv) +
                "\ncompute:  " + plan.computeMappingString() +
                "\nschedule: " + sched.toString());
    EXPECT_NE(source.find("void amos_exec_kernel"), std::string::npos);
    EXPECT_NE(source.find("calloc"), std::string::npos);
    EXPECT_NE(source.find("free("), std::string::npos);

    // Every annotation stays inside the header block comment.
    const std::string header = source.substr(0, source.find("*/"));
    EXPECT_NE(header.find(" * mapping:  [n,p,q | k | c,r,s]"),
              std::string::npos);
    EXPECT_NE(header.find(" * schedule: " + sched.toString()),
              std::string::npos);
    EXPECT_NE(sched.toString().find("2b/1w"), std::string::npos);
}

TEST(Codegen, RejectsInvalidPlan)
{
    auto conv = ops::makeConv2d(tinyConv());
    ComputeMapping m;
    m.groups = {{0, 1}, {}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_FALSE(plan.valid());
    ExecPlan ep(plan);
    EXPECT_FALSE(ep.compiled());
    EXPECT_EQ(ep.fallbackReason(), "mapping plan failed validation");
    EXPECT_THROW(generatePackedKernelC(ep, "invalid"), PanicError);
    EXPECT_THROW(generateDirectKernelC(ep, "invalid"), PanicError);
}

TEST(Codegen, CompiledGemmMatchesReference)
{
    auto gemm = ops::makeGemm(5, 6, 7); // padding in every dim
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmmaTiny(), m);
    EXPECT_LE(codegenError(plan), 1e-4f);
}

TEST(Codegen, CompiledConvMappingsMatchReference)
{
    // Every addressable C2D mapping must produce working C code.
    auto conv = ops::makeConv2d(tinyConv());
    auto plans = enumeratePlans(conv, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 35u);
    // Compiling 35 shared objects is slow; verify a spread sample.
    for (std::size_t i = 0; i < plans.size(); i += 6) {
        SCOPED_TRACE(plans[i].mapping().signature(conv));
        EXPECT_LE(codegenError(plans[i]), 1e-4f);
    }
}

TEST(Codegen, CompiledDepthwiseAndGemvMatchReference)
{
    // Degenerate groups (empty i2) and unmapped channel loops.
    auto gemv = ops::makeGemv(5, 9);
    auto gemv_plans = enumeratePlans(gemv, isa::wmmaTiny(), {});
    ASSERT_EQ(gemv_plans.size(), 1u);
    EXPECT_LE(codegenError(gemv_plans[0]), 1e-4f);

    auto dep = ops::makeDepthwiseConv2d(tinyConv(), 2);
    auto dep_plans = enumeratePlans(dep, isa::wmmaTiny(), {});
    ASSERT_GT(dep_plans.size(), 0u);
    EXPECT_LE(codegenError(dep_plans.front()), 1e-4f);
}

TEST(Codegen, SumReduceIntrinsicCode)
{
    // A SumReduce computation on a SumReduce intrinsic.
    IterVar i{Var("i"), 6, IterKind::Spatial};
    IterVar r{Var("k"), 5, IterKind::Reduction};
    TensorDecl a("A", {6, 5});
    TensorDecl out("out", {6});
    TensorComputation rowsum("rowsum", {i, r}, out, {i.var},
                             {{a, {i.var, r.var}}},
                             CombineKind::SumReduce);
    ComputeAbstraction acc("vacc", {{"i1", 4, false}},
                           {{"Src1", {0}, DataType::F32}},
                           {"Dst", {0}, DataType::F32},
                           CombineKind::SumReduce);
    MemoryAbstraction mem({{"Src1", MemScope::Reg, MemScope::Shared},
                           {"Dst", MemScope::Global, MemScope::Reg}});
    Intrinsic intr{std::move(acc), std::move(mem)};
    auto plans = enumeratePlans(rowsum, intr, {});
    ASSERT_GT(plans.size(), 0u);
    EXPECT_LE(codegenError(plans.front()), 1e-4f);
}

} // namespace
} // namespace amos
