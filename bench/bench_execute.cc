/**
 * @file
 * Functional-simulator throughput: scalar interpreter vs the compiled
 * stride-walk engine vs the native-codegen JIT tier (see
 * docs/execution.md), on the three executors (reference,
 * mapped-direct, mapped-packed) at 1 and 4 threads.
 *
 * Reports elements/s per workload x engine x thread count plus the
 * headline single-thread speedups into BENCH_execute.json. The
 * gemm_i8/conv2d_i8 workloads run the integer-dot discipline
 * (u8/i8 -> i32) end to end, mapped onto the int8 intrinsics, so the
 * quantized engines are latency-gated alongside the float ones. Every
 * engine gets one untimed warmup run first, so the JIT columns
 * measure kernel execution, not one-off compilation. Run with --tiny
 * for the CI smoke (small shapes, one repetition); CI diffs the
 * resulting *_eps metrics against bench/baselines/ to gate
 * regressions.
 */

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>

#include "bench_common.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

/** Best-of-reps wall-clock seconds of one run of fn. */
double
timeBest(int reps, const std::function<void()> &fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

struct Workload
{
    std::string name;
    TensorComputation comp;
    /// Intrinsic the mapped executors enumerate against; must be
    /// dtype-legal for comp (wmma for float, VNNI/Mali dot for int8).
    Intrinsic intr;
};

int
runBench(bool tiny)
{
    const int reps = tiny ? 1 : 5;
    bench::BenchReport report("execute", reps);
    report.setConfig("tiny", Json(tiny));
    report.setConfig("threads_parallel", Json(std::int64_t{4}));
    const bool jitAvailable =
        JitEngine::global().compilerAvailable();
    report.setConfig("jit_compiler_available", Json(jitAvailable));

    std::vector<Workload> workloads;
    if (tiny) {
        workloads.push_back(
            {"gemm", ops::makeGemm(8, 8, 8), isa::wmmaTiny()});
        workloads.push_back(
            {"conv2d",
             ops::makeConv2d({1, 2, 4, 4, 4, 3, 3, 1, 1,
                              DataType::F16}),
             isa::wmmaTiny()});
        workloads.push_back(
            {"gemv", ops::makeGemv(16, 16), isa::wmmaTiny()});
        workloads.push_back({"gemm_i8",
                             ops::makeQuantizedGemm(8, 8, 8),
                             isa::avx512Vnni()});
        workloads.push_back(
            {"conv2d_i8",
             ops::makeQuantizedConv2d({1, 2, 4, 4, 4, 3, 3, 1, 1,
                                       DataType::F16}),
             isa::maliDot()});
    } else {
        workloads.push_back(
            {"gemm", ops::makeGemm(64, 64, 64), isa::wmmaTiny()});
        workloads.push_back(
            {"conv2d",
             ops::makeConv2d({1, 8, 16, 14, 14, 3, 3, 1, 1,
                              DataType::F16}),
             isa::wmmaTiny()});
        workloads.push_back(
            {"gemv", ops::makeGemv(256, 256), isa::wmmaTiny()});
        workloads.push_back({"gemm_i8",
                             ops::makeQuantizedGemm(64, 64, 64),
                             isa::avx512Vnni()});
        workloads.push_back(
            {"conv2d_i8",
             ops::makeQuantizedConv2d({1, 8, 16, 14, 14, 3, 3, 1, 1,
                                       DataType::F16}),
             isa::maliDot()});
    }

    for (const auto &wl : workloads) {
        const auto &comp = wl.comp;
        auto inputs = makePatternInputs(comp, 2022);
        std::vector<const Buffer *> ptrs;
        for (const auto &b : inputs)
            ptrs.push_back(&b);
        const double elems =
            static_cast<double>(comp.totalIterations());
        report.setConfig(wl.name + "_elements",
                         Json(comp.totalIterations()));

        auto referenceEps = [&](const ExecOptions &opts) {
            Buffer out(comp.output());
            // Untimed warmup: pulls the JIT compile (and any lazy
            // plan compilation) out of the timed region.
            out.fill(0.0f);
            referenceExecute(comp, ptrs, out, opts);
            double s = timeBest(reps, [&]() {
                out.fill(0.0f);
                referenceExecute(comp, ptrs, out, opts);
            });
            return elems / s;
        };
        ExecOptions interp;
        interp.engine = ExecEngine::Interpreter;
        ExecOptions serial;
        ExecOptions parallel;
        parallel.numThreads = 4;
        ExecOptions jit;
        jit.engine = ExecEngine::Jit;

        Json row = Json::object();
        double eps_interp = referenceEps(interp);
        double eps_1t = referenceEps(serial);
        double eps_4t = referenceEps(parallel);
        double eps_jit = referenceEps(jit);
        row.set("reference_interpreter_eps", Json(eps_interp));
        row.set("reference_compiled_eps_1t", Json(eps_1t));
        row.set("reference_compiled_eps_4t", Json(eps_4t));
        row.set("reference_jit_eps", Json(eps_jit));
        row.set("reference_speedup_1t", Json(eps_1t / eps_interp));
        row.set("reference_parallel_scaling_4t",
                Json(eps_4t / eps_1t));
        row.set("reference_jit_speedup_vs_walk",
                Json(eps_jit / eps_1t));

        // Mapped executors on the first enumerated plan for the
        // workload's dtype-legal intrinsic — the same differential
        // workloads the execute tests sweep.
        auto plans = enumeratePlans(comp, wl.intr, {});
        if (!plans.empty()) {
            const auto &plan = plans[0];
            auto mappedEps = [&](const ExecOptions &opts,
                                 bool packed) {
                Buffer out(comp.output());
                out.fill(0.0f);
                if (packed)
                    executeMappedPacked(plan, ptrs, out, opts);
                else
                    executeMappedDirect(plan, ptrs, out, opts);
                double s = timeBest(reps, [&]() {
                    out.fill(0.0f);
                    if (packed)
                        executeMappedPacked(plan, ptrs, out, opts);
                    else
                        executeMappedDirect(plan, ptrs, out, opts);
                });
                return elems / s;
            };
            double d_interp = mappedEps(interp, false);
            double d_1t = mappedEps(serial, false);
            double d_4t = mappedEps(parallel, false);
            double d_jit = mappedEps(jit, false);
            row.set("direct_interpreter_eps", Json(d_interp));
            row.set("direct_compiled_eps_1t", Json(d_1t));
            row.set("direct_compiled_eps_4t", Json(d_4t));
            row.set("direct_jit_eps", Json(d_jit));
            row.set("direct_speedup_1t", Json(d_1t / d_interp));
            double p_interp = mappedEps(interp, true);
            double p_1t = mappedEps(serial, true);
            double p_jit = mappedEps(jit, true);
            row.set("packed_interpreter_eps", Json(p_interp));
            row.set("packed_compiled_eps_1t", Json(p_1t));
            row.set("packed_jit_eps", Json(p_jit));
            row.set("packed_speedup_1t", Json(p_1t / p_interp));
        }
        report.setMetric(wl.name, row);

        std::printf("%-8s interp %.3g e/s | compiled 1t %.3g e/s "
                    "(%.1fx) | 4t %.3g e/s | jit %.3g e/s (%.1fx "
                    "vs walk)\n",
                    wl.name.c_str(), eps_interp, eps_1t,
                    eps_1t / eps_interp, eps_4t, eps_jit,
                    eps_jit / eps_1t);
    }

    report.write();
    return 0;
}

} // namespace
} // namespace amos

int
main(int argc, char **argv)
{
    bool tiny = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--tiny") == 0)
            tiny = true;
    return amos::runBench(tiny);
}
