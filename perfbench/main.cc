/**
 * @file
 * amos_bench — the repository benchmark driver (run it through
 * run.py, which builds it).
 *
 *   amos_bench --workload cold_resnet|warm_mixed|execute --seed N
 *              --seconds S --trace 0|1 --served PATH --run-dir DIR
 *   amos_bench --self-test --served PATH --run-dir DIR
 *
 * Prints one detail JSON line, then the result line
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}; exits 1
 * when a correctness check failed and 2 on an error (no result).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hh"
#include "mapping/execute.hh"
#include "serve/service.hh"
#include "tensor/reference.hh"

namespace perfbench {

namespace {

void
printResult(const RunOutcome &out)
{
    amos::Json detail = amos::Json::object();
    detail.set("detail", out.detail);
    std::printf("%s\n", detail.dump().c_str());
    std::string line = "{\"correct\":";
    line += out.correct ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(out.attempted);
    line += ",\"failed\":" + std::to_string(out.failed);
    line += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : out.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value +
                ",\"unit\":\"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace

int
selfTestChecks(const RunConfig &cfg)
{
    int failures = 0;
    auto expect = [&](bool cond, const char *what) {
        std::fprintf(stderr, "self-test: %s: %s\n", what,
                     cond ? "ok" : "FAILED");
        failures += cond ? 0 : 1;
    };

    // A replay that returns different cycles must be rejected.
    Response hit = parseResponse(
        "{\"id\":\"h\",\"ok\":true,\"served_by\":\"memory\","
        "\"result\":{\"cycles\":1234.5,\"mapping_signature\":\"[n | k]\"}}");
    expect(hitMatches(hit, "1234.5", "[n | k]"),
           "matching replay accepted");
    expect(!hitMatches(hit, "1234.5000000000002", "[n | k]"),
           "replay with other cycles rejected");
    expect(!hitMatches(hit, "1234.5", "[k | n]"),
           "replay with another mapping rejected");

    // A perturbed reference buffer must be rejected.
    amos::serve::ServeOptions options;
    amos::serve::CompileService service(options);
    auto req = amos::serve::CompileRequest::fromJson(amos::Json::parse(
        "{\"op\":\"gemm\",\"m\":32,\"n\":32,\"k\":32,\"hw\":\"v100\","
        "\"generations\":2}"));
    auto outcome = service.serve(req);
    expect(outcome.ok && outcome.result.tuning.bestPlan.has_value(),
           "tiny GEMM tunes");
    if (!outcome.ok || !outcome.result.tuning.bestPlan)
        return failures;
    const auto &plan = *outcome.result.tuning.bestPlan;
    const auto &comp = plan.computation();
    auto inputs = amos::makePatternInputs(comp, cfg.seed);
    std::vector<const amos::Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    amos::Buffer reference(comp.output()), got(comp.output());
    reference.fill(0.0f);
    got.fill(0.0f);
    amos::ExecOptions interp;
    interp.engine = amos::ExecEngine::Interpreter;
    amos::executeMappedDirect(plan, ptrs, reference, interp);
    amos::ExecOptions walk;
    walk.engine = amos::ExecEngine::Walk;
    walk.numThreads = cfg.nproc;
    amos::executeMappedDirect(plan, ptrs, got, walk);
    expect(verifyOutputs(got, reference), "walk output accepted");
    reference.data()[reference.size() / 2] += 1.0f;
    expect(!verifyOutputs(got, reference),
           "perturbed reference buffer rejected");
    return failures;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
            std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
            return 2;
        }
        std::string key = argv[i] + 2;
        args[key] = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0
                        ? argv[++i]
                        : "1";
    }
    RunConfig cfg;
    cfg.workload = args["workload"];
    cfg.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1",
                             nullptr, 10);
    cfg.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str())
                                        : 10.0;
    cfg.trace = args["trace"] == "1";
    cfg.servedPath = args["served"];
    cfg.runDir = args["run-dir"];
    cfg.nproc = availableCpus();
    if (cfg.runDir.empty() || cfg.servedPath.empty() || cfg.seconds <= 0) {
        std::fprintf(stderr, "amos_bench: --served, --run-dir and a "
                             "positive --seconds are required\n");
        return 2;
    }
    std::filesystem::create_directories(cfg.runDir);
    // The JIT tier's process-wide engine reads its cache directory
    // once; keep it inside this run's directory.
    setenv("AMOS_JIT_CACHE_DIR", (cfg.runDir + "/jit").c_str(), 1);

    try {
        if (args.count("self-test"))
            return selfTestChecks(cfg) == 0 ? 0 : 1;
        RunOutcome out;
        if (cfg.workload == "cold_resnet")
            out = runColdResnet(cfg);
        else if (cfg.workload == "warm_mixed")
            out = runWarmMixed(cfg);
        else if (cfg.workload == "execute")
            out = runExecute(cfg);
        else {
            std::fprintf(stderr, "amos_bench: unknown workload '%s' "
                                 "(cold_resnet|warm_mixed|execute)\n",
                         cfg.workload.c_str());
            return 2;
        }
        out.detail.set("nproc", amos::Json(cfg.nproc));
        printResult(out);
        return out.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "amos_bench: %s\n", e.what());
        return 2;
    }
}
