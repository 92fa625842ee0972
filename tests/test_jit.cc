/**
 * @file
 * JIT execution tier tests: the native-codegen tier must be
 * bit-identical to the interpreter over every operator kind, the
 * kernel cache must behave (memory hits, restart warm starts from
 * disk, corrupt-object recovery, in-flight compile coalescing,
 * negative caching), and every failure mode must degrade into the
 * stride walk instead of an error.
 *
 * The whole suite is compiler-agnostic: when no system compiler is
 * available (CI runs it once with AMOS_JIT_CC=/nonexistent), the
 * differential checks still pass via the fallback tiers and the
 * cache tests skip. JitTier.MissingCompilerFallsBackToWalk is the
 * converse: it only runs without a compiler, as its own ctest entry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <thread>

#include "codegen/exec_c.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/flight_recorder.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

bool
jitCompilerUsable()
{
    return JitEngine::global().compilerAvailable();
}

/** Fresh scratch cache dir per test (cleared from previous runs). */
JitOptions
scratchOptions(const std::string &tag)
{
    JitOptions opts = JitOptions::fromEnv();
    opts.cacheDir = ::testing::TempDir() + "amos-jit-" + tag;
    std::filesystem::remove_all(opts.cacheDir);
    return opts;
}

/** A tiny valid kernel, salted so each test owns its cache key. */
std::string
tinyKernel(const std::string &salt)
{
    return "/* " + salt + " */\n"
           "void amos_exec_kernel(const void *const *inputs, "
           "void *output)\n"
           "{ *(float *)output = *(const float *)inputs[0] + 1.0f; }\n";
}

/** Small instance of each operator kind used by the param suite. */
TensorComputation
makeSmallOp(ops::OpKind kind)
{
    ops::ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    switch (kind) {
      case ops::OpKind::GMV: return ops::makeGemv(5, 7);
      case ops::OpKind::GMM: return ops::makeGemm(3, 5, 7);
      case ops::OpKind::C1D: return ops::makeConv1d(2, 3, 4, 5, 3);
      case ops::OpKind::C2D: return ops::makeConv2d(pr);
      case ops::OpKind::C3D: return ops::makeConv3d(pr, 2, 2);
      case ops::OpKind::T2D: {
        ops::ConvParams t2 = pr;
        t2.stride = 2;
        return ops::makeTransposedConv2d(t2);
      }
      case ops::OpKind::GRP: return ops::makeGroupConv2d(pr, 2);
      case ops::OpKind::DIL: {
        ops::ConvParams dil = pr;
        dil.dilation = 2;
        return ops::makeDilatedConv2d(dil);
      }
      case ops::OpKind::DEP: return ops::makeDepthwiseConv2d(pr, 2);
      case ops::OpKind::CAP: {
        ops::ConvParams cap = pr;
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

class JitOperatorDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(JitOperatorDifferential, MappedPathsBitIdentical)
{
    // The JIT tier must reproduce the scalar interpreter bit for bit
    // on both mapped paths. Without a compiler the tier degrades to
    // the stride walk — the differential still holds, only the
    // reported engine changes.
    TensorComputation comp = makeSmallOp(GetParam());
    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    SCOPED_TRACE(plans[0].mapping().signature(comp));

    ExecReport direct, packed;
    auto res = engineVsInterpreterCompare(
        plans[0], ExecEngine::Jit, quant::ToleranceSpec::exactly(), 7,
        1, &direct, &packed);
    EXPECT_TRUE(res.pass) << res.summary();
    if (jitCompilerUsable()) {
        EXPECT_EQ(direct.engine, "jit") << direct.jitFallback;
        EXPECT_EQ(packed.engine, "jit") << packed.jitFallback;
    } else {
        EXPECT_EQ(direct.engine, "walk");
        EXPECT_EQ(packed.engine, "walk");
        EXPECT_NE(direct.jitFallback, "");
    }
}

TEST_P(JitOperatorDifferential, ReferencePathBitIdentical)
{
    TensorComputation comp = makeSmallOp(GetParam());
    auto inputs = makePatternInputs(comp, 11);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions jit;
    jit.engine = ExecEngine::Jit;

    Buffer viaInterp(comp.output()), viaJit(comp.output());
    referenceExecute(comp, ptrs, viaInterp, interp);
    ExecReport report = referenceExecute(comp, ptrs, viaJit, jit);

    EXPECT_EQ(viaInterp.maxAbsDiff(viaJit), 0.0f);
    if (jitCompilerUsable())
        EXPECT_EQ(report.engine, "jit") << report.jitFallback;
    else
        EXPECT_EQ(report.engine, "walk");
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, JitOperatorDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

TEST(JitCodegen, KernelsAreVectorizerFriendly)
{
    // Structural checks on the emitted C: restrict-qualified operand
    // pointers, the canonical entry point, hoisted partial addresses
    // (a `const long` above the innermost loop), and no fast-math
    // escape hatch in the packed pipeline.
    auto gemm = ops::makeGemm(3, 5, 7);
    auto plan = compileReferenceWalk(gemm);
    ASSERT_TRUE(plan.has_value());
    std::string src = generateWalkKernelC(*plan, gemm.combine(), 2,
                                          "structural test");
    EXPECT_NE(src.find("amos_exec_kernel"), std::string::npos);
    EXPECT_NE(src.find("const float *restrict in0"),
              std::string::npos);
    EXPECT_NE(src.find("float *restrict out"), std::string::npos);
    EXPECT_NE(src.find("const long"), std::string::npos);
    EXPECT_NE(src.find("for (long"), std::string::npos);

    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    std::string direct = generateDirectKernelC(ep, "structural");
    EXPECT_NE(direct.find("amos_exec_kernel"), std::string::npos);
    EXPECT_NE(direct.find("restrict"), std::string::npos);
    std::string packed = generatePackedKernelC(ep, "structural");
    EXPECT_NE(packed.find("calloc"), std::string::npos);
    EXPECT_NE(packed.find("free(pk0);"), std::string::npos);
    EXPECT_NE(packed.find("stage A"), std::string::npos);
    EXPECT_NE(packed.find("stage B"), std::string::npos);
    EXPECT_NE(packed.find("stage C"), std::string::npos);
}

TEST(JitCodegen, TypedKernelsMatchStorageLanes)
{
    // int8 kernels must bind int8_t/uint8_t/int32_t pointers and
    // accumulate through a wrapping int64 intermediate, with no float
    // anywhere; the packed pipeline widens into int32_t streams.
    auto q = ops::makeQuantizedGemm(3, 5, 8);
    auto walk = compileReferenceWalk(q);
    ASSERT_TRUE(walk.has_value());
    std::vector<DataType> dts;
    for (const auto &in : q.inputs())
        dts.push_back(in.decl.dtype());
    dts.push_back(q.output().dtype());
    std::string src =
        generateWalkKernelC(*walk, q.combine(), 2, "typed", dts);
    EXPECT_NE(src.find("const uint8_t *restrict in0"),
              std::string::npos);
    EXPECT_NE(src.find("const int8_t *restrict in1"),
              std::string::npos);
    EXPECT_NE(src.find("int32_t *restrict out"), std::string::npos);
    EXPECT_NE(src.find("(int64_t)"), std::string::npos);
    // No float anywhere in the code itself (the header comment may
    // mention floating point).
    const std::string body = src.substr(src.find("amos_exec_kernel"));
    EXPECT_EQ(body.find("float"), std::string::npos) << src;

    auto plans = enumeratePlans(q, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    std::string packed = generatePackedKernelC(ep, "typed packed");
    EXPECT_NE(packed.find("int32_t *restrict pk0"), std::string::npos);
    EXPECT_NE(packed.find("sizeof(int32_t)"), std::string::npos);
    EXPECT_EQ(packed.substr(packed.find("amos_exec_kernel"))
                  .find("float"),
              std::string::npos);

    // bf16 kernels widen each load through the emitted helper into
    // float accumulation.
    auto b = ops::bf16Variant(ops::makeGemm(3, 5, 7));
    auto bwalk = compileReferenceWalk(b);
    ASSERT_TRUE(bwalk.has_value());
    std::vector<DataType> bdts;
    for (const auto &in : b.inputs())
        bdts.push_back(in.decl.dtype());
    bdts.push_back(b.output().dtype());
    std::string bsrc =
        generateWalkKernelC(*bwalk, b.combine(), 2, "bf16", bdts);
    EXPECT_NE(bsrc.find("amos_bf16_to_f32"), std::string::npos);
    EXPECT_NE(bsrc.find("const uint16_t *restrict in0"),
              std::string::npos);
    EXPECT_NE(bsrc.find("float *restrict out"), std::string::npos);
}

TEST(JitTier, QuantizedMappedPathsBitExact)
{
    // int8 accumulation is exact, so the JIT tier must agree with the
    // interpreter bit for bit — no tolerance — on both mapped paths.
    auto q = ops::makeQuantizedGemm(4, 5, 8);
    auto plans = enumeratePlans(q, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecReport direct, packed;
    auto res = engineVsInterpreterCompare(
        plans[0], ExecEngine::Jit, quant::ToleranceSpec::exactly(), 7,
        1, &direct, &packed);
    EXPECT_TRUE(res.pass) << res.summary();
    if (jitCompilerUsable()) {
        EXPECT_EQ(direct.engine, "jit") << direct.jitFallback;
        EXPECT_EQ(packed.engine, "jit") << packed.jitFallback;
    }
}

TEST(JitTier, QuantizedReferencePathBitExact)
{
    auto q = ops::makeQuantizedGemm(4, 5, 8);
    auto inputs = makePatternInputs(q, 11);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions jit;
    jit.engine = ExecEngine::Jit;

    Buffer viaInterp(q.output()), viaJit(q.output());
    referenceExecute(q, ptrs, viaInterp, interp);
    ExecReport report = referenceExecute(q, ptrs, viaJit, jit);

    EXPECT_TRUE(viaJit.bitEqual(viaInterp));
    if (jitCompilerUsable()) {
        EXPECT_EQ(report.engine, "jit") << report.jitFallback;
    }
}

TEST(JitCache, MemoryHitAfterFirstCompile)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("memhit"));
    const std::string src = tinyKernel("memhit");

    std::string why;
    ExecKernelFn first = engine.getOrCompile(src, &why);
    ASSERT_NE(first, nullptr) << why;
    ExecKernelFn second = engine.getOrCompile(src, &why);
    EXPECT_EQ(first, second);
    EXPECT_EQ(engine.stats().compiles, 1);
    EXPECT_EQ(engine.stats().memoryHits, 1);
    EXPECT_EQ(engine.stats().diskHits, 0);

    const float one = 41.0f;
    const void *inputs[1] = {&one};
    float out = 0.0f;
    first(inputs, &out);
    EXPECT_EQ(out, 42.0f);
}

TEST(JitCache, RestartWarmStartsFromDisk)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitOptions opts = scratchOptions("warm");
    const std::string src = tinyKernel("warm");
    {
        JitEngine cold(opts);
        std::string why;
        ASSERT_NE(cold.getOrCompile(src, &why), nullptr) << why;
        EXPECT_EQ(cold.stats().compiles, 1);
    }
    // "Restart": a fresh engine over the same cache dir must dlopen
    // the installed object instead of recompiling.
    JitEngine warm(opts);
    std::string why;
    ASSERT_NE(warm.getOrCompile(src, &why), nullptr) << why;
    EXPECT_EQ(warm.stats().compiles, 0);
    EXPECT_EQ(warm.stats().diskHits, 1);
}

TEST(JitCache, CorruptCachedObjectIsRebuilt)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitOptions opts = scratchOptions("corrupt");
    const std::string src = tinyKernel("corrupt");
    JitEngine engine(opts);

    // Plant a truncated/garbage .so where the kernel would live; the
    // engine must evict and recompile, never crash.
    std::filesystem::create_directories(opts.cacheDir);
    {
        std::ofstream garbage(engine.cachePathFor(src));
        garbage << "this is not a shared object";
    }
    std::string why;
    ExecKernelFn fn = engine.getOrCompile(src, &why);
    ASSERT_NE(fn, nullptr) << why;
    EXPECT_EQ(engine.stats().compiles, 1);
    EXPECT_EQ(engine.stats().diskHits, 0);
}

TEST(JitCache, ConcurrentCompilesCoalesce)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("coalesce"));
    const std::string src = tinyKernel("coalesce");

    constexpr int kThreads = 8;
    std::atomic<int> successes{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        workers.emplace_back([&] {
            std::string why;
            if (engine.getOrCompile(src, &why) != nullptr)
                successes.fetch_add(1);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(successes.load(), kThreads);
    // All racing requests must have coalesced onto one compile.
    EXPECT_EQ(engine.stats().compiles, 1);
}

TEST(JitCache, FailedCompileIsCachedNegatively)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("negative"));
    const std::string src = "this is not C at all {{{";

    std::string why1, why2;
    EXPECT_EQ(engine.getOrCompile(src, &why1), nullptr);
    EXPECT_EQ(engine.getOrCompile(src, &why2), nullptr);
    EXPECT_NE(why1, "");
    EXPECT_EQ(why1, why2);
    // Diagnosed once, not per execution.
    EXPECT_EQ(engine.stats().failures, 1);
}

TEST(JitCache, MissingCompilerReportsWhy)
{
    JitOptions opts = scratchOptions("nocc");
    opts.compiler = "/nonexistent/amos-jit-cc";
    JitEngine engine(opts);
    std::string why;
    EXPECT_EQ(engine.getOrCompile(tinyKernel("nocc"), &why), nullptr);
    EXPECT_NE(why.find("not available"), std::string::npos) << why;
    EXPECT_FALSE(engine.compilerAvailable());
}

TEST(JitCache, KeysSeparateConfigurations)
{
    JitOptions a = scratchOptions("keys");
    JitOptions b = a;
    b.flags = a.flags + " -DSOMETHING";
    JitEngine ea(a), eb(b);
    const std::string src = tinyKernel("keys");
    EXPECT_NE(ea.keyFor(src), eb.keyFor(src));
    EXPECT_EQ(ea.keyFor(src), JitEngine(a).keyFor(src));
    EXPECT_NE(ea.keyFor(src), ea.keyFor(src + " "));
}

TEST(JitTier, MissingCompilerFallsBackToWalk)
{
    // Runs as its own ctest entry with AMOS_JIT_CC pointing at a
    // missing compiler: all three JIT paths must decline with a
    // reason naming that compiler, count the fallback, and answer
    // from the stride walk bit-identically to the interpreter.
    if (jitCompilerUsable())
        GTEST_SKIP() << "needs AMOS_JIT_CC naming a missing compiler";
    const std::string cc = JitEngine::global().options().compiler;

    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto inputs = makePatternInputs(gemm, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    auto &fallbacks =
        MetricsRegistry::global().counter("exec.jit_fallback");
    const std::uint64_t before = fallbacks.value();
    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions jit;
    jit.engine = ExecEngine::Jit;

    Buffer refInterp(gemm.output()), ref(gemm.output());
    referenceExecute(gemm, ptrs, refInterp, interp);
    ExecReport refReport = referenceExecute(gemm, ptrs, ref, jit);
    Buffer directInterp(gemm.output()), direct(gemm.output());
    executeMappedDirect(plans[0], ptrs, directInterp, interp);
    ExecReport directReport =
        executeMappedDirect(plans[0], ptrs, direct, jit);
    Buffer packedInterp(gemm.output()), packed(gemm.output());
    executeMappedPacked(plans[0], ptrs, packedInterp, interp);
    ExecReport packedReport =
        executeMappedPacked(plans[0], ptrs, packed, jit);

    for (const ExecReport *r : {&refReport, &directReport,
                                &packedReport}) {
        EXPECT_EQ(r->engine, "walk");
        EXPECT_NE(r->jitFallback.find("'" + cc + "'"),
                  std::string::npos)
            << r->jitFallback;
    }
    EXPECT_EQ(fallbacks.value(), before + 3);
    EXPECT_TRUE(ref.bitEqual(refInterp));
    EXPECT_TRUE(direct.bitEqual(directInterp));
    EXPECT_TRUE(packed.bitEqual(packedInterp));
}

TEST(JitTier, FuzzedNonAffineAccessFallsThrough)
{
    // A non-affine access defeats every compiled tier; with the JIT
    // requested the executors must fall through jit -> walk ->
    // interpreter and still match, bumping exec.jit_fallback for
    // both mapped paths.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    auto &jitFallbacks =
        MetricsRegistry::global().counter("exec.jit_fallback");
    const std::uint64_t before = jitFallbacks.value();
    ExecReport direct, packed;
    auto res = engineVsInterpreterCompare(
        plan, ExecEngine::Jit, quant::ToleranceSpec::exactly(), 7, 1,
        &direct, &packed);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_EQ(jitFallbacks.value(), before + 2);
    EXPECT_EQ(direct.engine, "interpreter");
    EXPECT_EQ(packed.engine, "interpreter");
    EXPECT_NE(direct.jitFallback, "");
}

TEST(JitTier, NonAffineAccessClimbsOneLadderOnEveryEntryPoint)
{
    // The reference and both mapped entry points share one tier
    // ladder: on a non-affine access each declines the JIT and the
    // walk for the same reason, reports the same tier, and bumps
    // the same counters exactly once.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    auto inputs = makePatternInputs(mutated, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    auto &metrics = MetricsRegistry::global();
    const char *names[] = {"exec.jit_runs", "exec.jit_fallback",
                           "exec.fallback", "exec.interpreter_runs",
                           "exec.compiled_runs"};
    using EntryPoint = std::function<ExecReport(Buffer &,
                                                const ExecOptions &)>;
    const std::vector<std::pair<std::string, EntryPoint>> entries = {
        {"reference",
         [&](Buffer &out, const ExecOptions &o) {
             return referenceExecute(mutated, ptrs, out, o);
         }},
        {"direct",
         [&](Buffer &out, const ExecOptions &o) {
             return executeMappedDirect(plan, ptrs, out, o);
         }},
        {"packed",
         [&](Buffer &out, const ExecOptions &o) {
             return executeMappedPacked(plan, ptrs, out, o);
         }},
    };
    for (ExecEngine engine : {ExecEngine::Walk, ExecEngine::Jit}) {
        ExecOptions opts;
        opts.engine = engine;
        std::vector<ExecReport> reports;
        std::vector<std::vector<std::uint64_t>> deltas;
        Buffer first(mutated.output());
        for (const auto &[label, run] : entries) {
            SCOPED_TRACE(label + " engine=" + execEngineName(engine));
            std::vector<std::uint64_t> before;
            for (const char *n : names)
                before.push_back(metrics.counter(n).value());
            Buffer out(mutated.output());
            reports.push_back(run(out, opts));
            std::vector<std::uint64_t> delta;
            for (std::size_t i = 0; i < std::size(names); ++i)
                delta.push_back(metrics.counter(names[i]).value() -
                                before[i]);
            deltas.push_back(delta);
            if (label == "reference")
                first = out;
            else
                EXPECT_TRUE(out.bitEqual(first));
        }
        const bool jit = engine == ExecEngine::Jit;
        const std::vector<std::uint64_t> want = {0, jit ? 1u : 0u, 1,
                                                 1, 0};
        for (std::size_t e = 0; e < entries.size(); ++e) {
            SCOPED_TRACE(entries[e].first + " engine=" +
                         execEngineName(engine));
            EXPECT_EQ(reports[e].engine, "interpreter");
            EXPECT_EQ(reports[e].jitFallback, reports[0].jitFallback);
            EXPECT_EQ(reports[e].threadsUsed, reports[0].threadsUsed);
            EXPECT_EQ(deltas[e], want);
        }
        EXPECT_EQ(reports[0].jitFallback.empty(), !jit)
            << reports[0].jitFallback;
    }
}

TEST(JitTier, EngineNamesRoundTrip)
{
    for (ExecEngine e : {ExecEngine::Interpreter, ExecEngine::Walk,
                         ExecEngine::Jit}) {
        auto parsed = parseExecEngine(execEngineName(e));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, e);
    }
    EXPECT_EQ(ExecOptions{}.engine, ExecEngine::Walk);
    EXPECT_FALSE(parseExecEngine("auto").has_value());
    EXPECT_FALSE(parseExecEngine("turbo").has_value());
}

TEST(JitCache, PipelineStagesEmitTraceSpans)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("spans"));
    const std::string src = tinyKernel("spans");
    const std::string key = engine.cachePathFor(src);

    auto &recorder = FlightRecorder::global();
    const std::uint64_t seq = recorder.beginRequest();
    std::string why;
    ExecKernelFn fn;
    {
        FlightScope scope(seq);
        fn = engine.getOrCompile(src, &why);
    }
    ASSERT_NE(fn, nullptr) << why;

    bool compiled = false, opened = false;
    for (const auto &span : recorder.harvest(seq)) {
        const std::string name = span.name;
        if (name == "jit.compile") {
            compiled = true;
            // Carries the content-hash cache key (its first arg) for
            // correlation with the on-disk object name.
            EXPECT_STREQ(span.args, "key");
            Json args = flightArgsJson(span);
            ASSERT_TRUE(args.has("key"));
            EXPECT_NE(key.find(args.get("key").asString()),
                      std::string::npos);
        }
        if (name == "jit.dlopen")
            opened = true;
    }
    EXPECT_TRUE(compiled);
    EXPECT_TRUE(opened);
}

} // namespace
} // namespace amos
