/**
 * @file
 * The traced-run ledger. After a workload's timed phase it
 * re-executes a sample of the phase's requests from this process,
 * calling each layer's public entry points in the order the server
 * would, and records every call as a span (name, start, end, parent,
 * request id) in memory. Layers the tuner and the replay call
 * internally are timed per call on the workload's own inputs and
 * attributed as per-call time x call count. The spans are written
 * to spans.json in the run directory when the run ends.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "amos/amos.hh"
#include "codegen/exec_c.hh"
#include "jit/jit.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "serve/service.hh"
#include "serve/tiered_cache.hh"
#include "tensor/reference.hh"

namespace perfbench {

using namespace amos;

// ---- span store -------------------------------------------------

Ledger::Ledger() : _origin(Clock::now()) {}

double
Ledger::usOf(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - _origin).count();
}

int
Ledger::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, const std::string &request)
{
    _spans.push_back({name, usOf(start), usOf(end), parent, request});
    return static_cast<int>(_spans.size()) - 1;
}

int
Ledger::time(const std::string &name, int parent,
             const std::string &request, const std::function<void()> &fn)
{
    auto t0 = Clock::now();
    fn();
    return add(name, t0, Clock::now(), parent, request);
}

int
Ledger::attribute(const std::string &name, int parent,
                  const std::string &request, double durUs)
{
    double start = _spans[static_cast<std::size_t>(parent)].startUs;
    for (const auto &s : _spans)
        if (s.parent == parent)
            start = std::max(start, s.endUs);
    _spans.push_back({name, start, start + durUs, parent, request});
    return static_cast<int>(_spans.size()) - 1;
}

std::vector<double>
Ledger::selfUs() const
{
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].durUs();
    for (const auto &s : _spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durUs();
    for (auto &v : self)
        v = std::max(0.0, v);
    return self;
}

void
Ledger::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f,
                     "{\"i\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"parent\":%d,\"request\":\"%s\"}%s\n",
                     i, s.name.c_str(), s.startUs, s.endUs, s.parent,
                     s.request.c_str(),
                     i + 1 < _spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

// ---- the ledger -------------------------------------------------

namespace {

namespace fs = std::filesystem;

/// Per-call probe repetitions.
constexpr int kScheduleProbes = 24;
constexpr std::size_t kCacheProbeKeys = 64;
constexpr int kMissProbes = 32;
constexpr int kPutProbes = 16;
constexpr int kExecReps = 3;

/** Per-span-name durations, for per-call means. */
class Samples
{
  public:
    void add(const std::string &name, double v) { _v[name].push_back(v); }
    double
    meanOf(const std::string &name) const
    {
        auto it = _v.find(name);
        return it == _v.end() ? 0.0 : mean(it->second);
    }

  private:
    std::map<std::string, std::vector<double>> _v;
};

/** A sampled compile request, re-executed. */
struct CompiledRequest
{
    std::string id;
    serve::CompileRequest req;
    TensorComputation comp;
    HardwareSpec hw;
    TuneOptions options;
    std::vector<MappingPlan> plans;
    CacheEntry entry;
};

std::vector<MappingPlan>
enumerateAll(const TensorComputation &comp, const HardwareSpec &hw,
             const TuneOptions &options)
{
    // Mirrors tune(): the pool spans every matching intrinsic.
    std::vector<MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        for (auto &plan :
             enumeratePlans(comp, intr, options.mappingOptions))
            plans.push_back(std::move(plan));
    }
    return plans;
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * What recording one span adds to a call, in microseconds: a traced
 * empty call (Ledger::time into a scratch ledger) minus an untraced
 * one, median over batches.
 */
double
spanCostUs()
{
    constexpr int kBatches = 9;
    constexpr int kCalls = 2000;
    const std::function<void()> empty = [] {};
    std::vector<double> costs;
    for (int b = 0; b < kBatches; ++b) {
        Ledger scratch;
        auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            scratch.time("probe.span", -1, "probe", empty);
        auto t1 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            empty();
        auto t2 = Clock::now();
        costs.push_back((usBetween(t0, t1) - usBetween(t1, t2)) / kCalls);
    }
    return median(costs);
}

/** Median seconds of `reps` runs of fn. */
double
medianSeconds(int reps, const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        s.push_back(msSince(t0) / 1e3);
    }
    return median(s);
}

} // namespace

Metrics
runLedger(const RunConfig &cfg, LedgerInput in, Ledger &ledger,
          RunOutcome &out)
{
    const auto ledgerStart = Clock::now();
    Samples us; // microseconds per call, by span name
    Metrics metrics;
    auto set = [&](const std::string &name, double v,
                   const std::string &unit) {
        metrics[name] = Metric{v, unit};
    };
    std::string dir = in.cacheDir;
    if (dir.empty()) {
        dir = cfg.runDir + "/ledger-cache";
        fs::remove_all(dir);
    }
    fs::create_directories(dir);
    serve::TieredCache::Options cacheOpts;
    cacheOpts.diskDir = dir;
    serve::TieredCache probe(cacheOpts);

    auto spanUs = [&](int i) {
        return ledger.spans()[static_cast<std::size_t>(i)].durUs();
    };

    // 1. Sampled compiles: parse -> Compiler::compile (enumerate +
    //    tuneWithPlans re-run beneath it) -> cache put -> serialize.
    std::vector<CompiledRequest> compiled;
    std::vector<double> enumerateMs, tuneMs, compileMs, plansCount;
    for (const auto &s : in.compiles) {
        int root = ledger.add("ledger.request", s.sent, s.received, -1,
                              s.id);
        serve::CompileRequest req;
        int parse = ledger.time("serve.parse", root, s.id, [&] {
            req = serve::CompileRequest::fromJson(Json::parse(s.line));
        });
        us.add("serve.parse", spanUs(parse));
        CompiledRequest c{s.id, req, serve::computationFromRequest(req),
                          serve::hardwareFromRequest(req),
                          serve::tuneOptionsFromRequest(req), {}, {}};
        CompileResult result;
        int comp = ledger.time("amos.compile", root, s.id, [&] {
            result = Compiler(c.hw, c.options).compile(c.comp);
        });
        compileMs.push_back(spanUs(comp) / 1e3);
        int en = ledger.time("mapping.enumerate", comp, s.id, [&] {
            c.plans = enumerateAll(c.comp, c.hw, c.options);
        });
        enumerateMs.push_back(spanUs(en) / 1e3);
        plansCount.push_back(static_cast<double>(c.plans.size()));
        TuneResult rerun;
        int tn = ledger.time("explore.tune", comp, s.id, [&] {
            rerun = tuneWithPlans(c.plans, c.hw, c.options);
        });
        tuneMs.push_back(spanUs(tn) / 1e3);
        if (!result.tuning.bestPlan ||
            rerun.bestCycles != result.tuning.bestCycles) {
            out.fail("ledger re-run of " + s.id +
                     " did not reproduce its own compile");
            continue;
        }
        c.entry.intrinsicName = result.tuning.bestPlan->intrinsic().name();
        c.entry.mapping = result.tuning.bestPlan->mapping();
        c.entry.schedule = result.tuning.bestSchedule;
        c.entry.cycles = result.tuning.bestCycles;
        int put = ledger.time("cache.put", root, s.id, [&] {
            probe.put(c.req.cacheKey(), c.entry);
        });
        us.add("cache.put", spanUs(put));
        serve::ServeOutcome outcome;
        outcome.ok = true;
        outcome.servedBy = "compile";
        outcome.latencyMs = s.clientMs;
        outcome.result = result;
        std::string response;
        int ser = ledger.time("serve.serialize", root, s.id, [&] {
            response = outcome.toJson(s.id).dump();
        });
        us.add("serve.serialize", spanUs(ser));
        us.add("serve.response_bytes",
               static_cast<double>(response.size() + 1));
        // The re-run must be the computation the server answered.
        std::string cycles = parseResponse(response).cycles;
        if (cycles.empty() || cycles != s.cycles) {
            out.fail("ledger re-run of " + s.id + " gave cycles " + cycles +
                     ", the served response " + s.cycles);
            continue;
        }
        compiled.push_back(std::move(c));
    }
    if (compiled.empty())
        throw std::runtime_error("ledger: no compile request to probe");

    // 2. Per-call probes of the layers the tuner calls internally,
    //    on schedules sampled over each request's own mapping pool.
    for (std::size_t r = 0; r < compiled.size(); ++r) {
        const auto &c = compiled[r];
        for (int k = 0; k < kScheduleProbes; ++k) {
            const MappingPlan &plan =
                c.plans[static_cast<std::size_t>(k) % c.plans.size()];
            Rng rng(subSeed(cfg.seed, 950 + r, static_cast<std::uint64_t>(k)));
            Schedule sched;
            KernelProfile prof;
            us.add("schedule.sample",
                   spanUs(ledger.time("schedule.sample", -1, c.id, [&] {
                       sched = sampleSchedule(plan, rng);
                   })));
            us.add("schedule.lower",
                   spanUs(ledger.time("schedule.lower", -1, c.id, [&] {
                       prof = lowerKernel(plan, sched, c.hw);
                   })));
            us.add("model.estimate",
                   spanUs(ledger.time("model.estimate", -1, c.id, [&] {
                       (void)modelEstimate(prof, c.hw);
                   })));
            us.add("sim.simulate",
                   spanUs(ledger.time("sim.simulate", -1, c.id, [&] {
                       (void)simulateKernel(prof, c.hw);
                   })));
        }
    }

    // 3. Serial tuner breakdown: tuneWithPlans at one thread, with
    //    per-call time x TuneResult call counts as its children and
    //    the remainder as the tuner's own self time.
    std::vector<double> serialMs, selfMs, measurements, generations,
        reuse;
    std::map<std::string, std::vector<double>> calls, products;
    for (const auto &c : compiled) {
        TuneOptions serial = c.options;
        serial.numThreads = 1;
        TuneResult tr;
        int root = ledger.time("explore.tune_serial", -1, c.id, [&] {
            tr = tuneWithPlans(c.plans, c.hw, serial);
        });
        double evals = 0.0, searches = 1.0, newM = 0.0, reusedM = 0.0;
        for (const auto &row : tr.telemetry) {
            evals += row.populationSize;
            newM += row.measuredNew;
            reusedM += row.measuredReused;
            if (row.phase == "exploit" && row.generation == 0)
                searches += 1.0;
        }
        const std::map<std::string, double> n = {
            {"schedule.sample", searches * serial.population},
            {"schedule.lower", evals + tr.measurements},
            {"model.estimate", evals},
            {"sim.simulate", static_cast<double>(tr.measurements)},
        };
        double attributed = 0.0;
        for (const auto &[name, count] : n) {
            double d = us.meanOf(name) * count;
            ledger.attribute(name, root, c.id, d);
            attributed += d;
            calls[name].push_back(count);
            products[name].push_back(d / 1e3);
        }
        serialMs.push_back(spanUs(root) / 1e3);
        selfMs.push_back(std::max(0.0, spanUs(root) - attributed) / 1e3);
        measurements.push_back(tr.measurements);
        generations.push_back(static_cast<double>(tr.telemetry.size()));
        reuse.push_back(newM + reusedM > 0 ? reusedM / (newM + reusedM)
                                           : 0.0);
    }

    // 4. Cache-tier probes over the run's own disk tier: first get of
    //    a key reads its shard, the second hits the promoted copy.
    std::vector<std::string> keys;
    for (const auto &c : compiled)
        keys.push_back(c.req.cacheKey());
    for (const auto &s : in.hits) {
        if (keys.size() >= kCacheProbeKeys)
            break;
        keys.push_back(serve::CompileRequest::fromJson(Json::parse(s.line))
                           .cacheKey());
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    double warmS = 0.0, diskEntries = 0.0;
    {
        serve::TieredCache warm(cacheOpts);
        int w = ledger.time("cache.warm", -1, "probe",
                            [&] { warm.warm(); });
        warmS = spanUs(w) / 1e6;
        diskEntries = static_cast<double>(warm.diskSize());
    }

    std::map<std::string, CacheEntry> entries;
    {
        serve::TieredCache::Options o = cacheOpts;
        o.memoryCapacity = 0;
        serve::TieredCache reader(o);
        for (const auto &key : keys) {
            serve::TieredCache::Tier tier;
            std::optional<CacheEntry> e;
            auto t0 = Clock::now();
            e = reader.get(key, &tier);
            auto t1 = Clock::now();
            if (!e) {
                out.fail("ledger: key " + key + " missing from the disk tier");
                continue;
            }
            entries[key] = *e;
            us.add(tier == serve::TieredCache::Tier::Disk ? "cache.get_disk"
                                                          : "cache.get_memory",
                   usBetween(t0, t1));
            ledger.add("cache.get", t0, t1, -1, key);
            t0 = Clock::now();
            reader.get(key, &tier);
            t1 = Clock::now();
            us.add("cache.get_memory", usBetween(t0, t1));
            ledger.add("cache.get", t0, t1, -1, key);
        }
        const std::string absent = keys.front() + "/absent";
        for (int i = 0; i < kMissProbes; ++i) {
            auto t0 = Clock::now();
            reader.get(absent + std::to_string(i));
            auto t1 = Clock::now();
            us.add("cache.get_miss", usBetween(t0, t1));
            ledger.add("cache.get", t0, t1, -1, "absent");
        }
        for (int i = 0; i < kPutProbes; ++i) {
            auto t0 = Clock::now();
            reader.put(keys.front() + "/ledger" + std::to_string(i),
                       compiled.front().entry);
            auto t1 = Clock::now();
            us.add("cache.put", usBetween(t0, t1));
            ledger.add("cache.put", t0, t1, -1, "probe");
        }
    }
    // 5. Cache hits through CompileService::submit: the phase's
    //    sampled hits, or (when the phase had none) the sampled
    //    compiles again, now cached.
    {
        serve::ServeOptions so;
        so.cache = cacheOpts;
        serve::CompileService service(so);
        auto hitTree = [&](int root, const SampledRequest &s) {
            const std::string &id = s.id;
            serve::CompileRequest req;
            int parse = ledger.time("serve.parse", root, id, [&] {
                req = serve::CompileRequest::fromJson(Json::parse(s.line));
            });
            us.add("serve.parse", spanUs(parse));
            serve::ServeOutcome outcome;
            int sub = ledger.time("serve.submit", root, id, [&] {
                auto ticket = service.submit(req);
                outcome = service.wait(ticket);
            });
            if (!outcome.ok ||
                (outcome.servedBy != "memory" && outcome.servedBy != "disk")) {
                out.fail("ledger: " + id + " not served from cache (" +
                         outcome.servedBy + ")");
                return;
            }
            us.add("serve.submit_hit", spanUs(sub));
            std::string key = req.cacheKey();
            auto it = entries.find(key);
            if (it != entries.end()) {
                ledger.attribute("cache.get", sub, id,
                                 us.meanOf(outcome.servedBy == "memory"
                                               ? "cache.get_memory"
                                               : "cache.get_disk"));
                auto comp = serve::computationFromRequest(req);
                auto hw = serve::hardwareFromRequest(req);
                int rep = ledger.time("amos.replay", sub, id, [&] {
                    (void)replayCacheEntry(it->second, comp, hw);
                });
                us.add("amos.replay", spanUs(rep));
                if (auto plan = it->second.instantiate(comp, hw)) {
                    auto prof = lowerKernel(*plan, it->second.schedule, hw);
                    ledger.time("sim.simulate", rep, id, [&] {
                        (void)simulateKernel(prof, hw);
                    });
                }
            }
            std::string response;
            int ser = ledger.time("serve.serialize", root, id, [&] {
                response = outcome.toJson(id).dump();
            });
            us.add("serve.serialize", spanUs(ser));
            us.add("serve.response_bytes",
                   static_cast<double>(response.size() + 1));
            if (parseResponse(response).cycles != s.cycles)
                out.fail("ledger: " + id + " replayed other cycles than " +
                         "the served response " + s.cycles);
        };
        if (!in.hits.empty()) {
            for (const auto &s : in.hits)
                hitTree(ledger.add("ledger.request", s.sent, s.received,
                                   -1, s.id),
                        s);
        } else {
            for (const auto &s : in.compiles) {
                auto now = Clock::now();
                hitTree(ledger.add("ledger.resubmit", now, now, -1, s.id),
                        s);
            }
        }
    }

    // 6. Execution layers on the workload's plans (on the serving
    //    workloads: the sampled compile with the fewest iterations).
    std::vector<MappingPlan> execPlans = in.execPlans;
    if (execPlans.empty()) {
        const CompiledRequest *best = nullptr;
        for (const auto &c : compiled)
            if (!best || c.comp.totalIterations() < best->comp.totalIterations())
                best = &c;
        if (auto plan = best->entry.instantiate(best->comp, best->hw))
            execPlans.push_back(*plan);
    }
    std::vector<ExecCase> cases;
    std::map<std::string, std::vector<double>> rate;
    amos::JitOptions jitCold = amos::JitOptions::fromEnv();
    jitCold.cacheDir = cfg.runDir + "/ledger-jit";
    fs::remove_all(jitCold.cacheDir);
    for (std::size_t i = 0; i < execPlans.size(); ++i) {
        const std::string id = "exec" + std::to_string(i);
        ExecCase c = makeExecCase(execPlans[i], subSeed(cfg.seed, 960, i));
        const auto &comp = c.plan->computation();
        int ir = ledger.add("exec.interpreter", c.interpreterStart,
                            c.interpreterEnd, -1, id);
        rate["exec.interpreter_gelem_s"].push_back(c.outputElems /
                                                   spanUs(ir) / 1e3);

        for (int r = 0; r < 5; ++r)
            us.add("exec.plan_build",
                   spanUs(ledger.time("exec.plan_build", -1, id,
                                      [&] { ExecPlan ep(*c.plan); })));
        auto engineRate = [&](ExecEngine engine, int threads,
                              const char *expect, const std::string &name) {
            ExecOptions o;
            o.engine = engine;
            o.numThreads = threads;
            c.output->fill(0.0f);
            auto report = executeMappedDirect(*c.plan, c.ptrs, *c.output, o);
            if (report.engine != expect)
                out.fail("ledger: " + name + " ran on " + report.engine);
            else if (!verifyOutputs(*c.output, *c.reference))
                out.fail("ledger: " + name + " output differs on " +
                         comp.name());
            double s = medianSeconds(kExecReps, [&] {
                c.output->fill(0.0f);
                auto t0 = Clock::now();
                executeMappedDirect(*c.plan, c.ptrs, *c.output, o);
                ledger.add(name, t0, Clock::now(), -1, id);
            });
            rate[name].push_back(c.outputElems / s / 1e9);
        };
        engineRate(ExecEngine::Walk, 1, "walk", "exec.walk_gelem_s_1t");
        engineRate(ExecEngine::Walk, cfg.nproc, "walk", "exec.walk_gelem_s_nt");

        ExecPlan ep(*c.plan);
        std::string source;
        for (int r = 0; r < 5; ++r)
            us.add("codegen.emit",
                   spanUs(ledger.time("codegen.emit", -1, id, [&] {
                       source = generateDirectKernelC(
                           ep, "direct mapped nest of " + comp.name());
                   })));
        std::string why;
        {
            amos::JitEngine engine(jitCold);
            us.add("jit.compile",
                   spanUs(ledger.time("jit.compile", -1, id, [&] {
                       if (!engine.getOrCompile(source, &why))
                           out.fail("ledger: JIT compile failed: " + why);
                   })));
        }
        {
            amos::JitEngine engine(jitCold);
            us.add("jit.load", spanUs(ledger.time("jit.load", -1, id, [&] {
                       engine.getOrCompile(source, &why);
                   })));
        }
        engineRate(ExecEngine::Jit, 1, "jit", "jit.gelem_s_1t");
        engineRate(ExecEngine::Jit, cfg.nproc, "jit", "jit.gelem_s_nt");
        cases.push_back(std::move(c));
    }

    // 7. Execute rounds: every plan on both engines again, with the
    //    per-call plan build and C emission attributed beneath.
    for (const auto &s : in.rounds) {
        int root = ledger.add("ledger.request", s.sent, s.received, -1, s.id);
        for (int e = 0; e < 2; ++e) {
            ExecOptions o;
            o.engine = e == 0 ? ExecEngine::Walk : ExecEngine::Jit;
            o.numThreads = cfg.nproc;
            for (auto &c : cases) {
                c.output->fill(0.0f);
                int run = ledger.time(e == 0 ? "exec.walk" : "jit.run", root,
                                      s.id, [&] {
                                          executeMappedDirect(*c.plan, c.ptrs,
                                                              *c.output, o);
                                      });
                ledger.attribute("exec.plan_build", run, s.id,
                                 us.meanOf("exec.plan_build"));
                if (e == 1)
                    ledger.attribute("codegen.emit", run, s.id,
                                     us.meanOf("codegen.emit"));
            }
        }
    }

    // 8. The numbers.
    auto self = ledger.selfUs();
    double rootUs = 0.0, rootSelfUs = 0.0;
    std::map<std::string, double> layerSelfMs;
    for (std::size_t i = 0; i < ledger.spans().size(); ++i) {
        const Span &s = ledger.spans()[i];
        if (s.name == "ledger.request") {
            rootUs += s.durUs();
            rootSelfUs += self[i];
        } else if (s.name.rfind("ledger.", 0) != 0) {
            layerSelfMs[s.name.substr(0, s.name.find('.'))] += self[i] / 1e3;
        }
    }
    Json layers = Json::object();
    for (const auto &[layer, ms] : layerSelfMs)
        layers.set(layer, Json(ms));
    out.detail.set("ledger_self_ms_by_layer", layers);

    for (const auto &[name, count] : in.serveCounts)
        set(name, count, "count");
    set("serve.parse_us", us.meanOf("serve.parse"), "us");
    set("serve.serialize_us", us.meanOf("serve.serialize"), "us");
    set("serve.response_bytes",
        in.responseBytes > 0 ? in.responseBytes
                             : us.meanOf("serve.response_bytes"),
        "bytes");
    set("serve.submit_hit_us", us.meanOf("serve.submit_hit"), "us");
    set("serve.queue_wait_ms", in.queueWaitMs, "ms");
    set("cache.get_memory_us", us.meanOf("cache.get_memory"), "us");
    set("cache.get_disk_us", us.meanOf("cache.get_disk"), "us");
    set("cache.get_miss_us", us.meanOf("cache.get_miss"), "us");
    set("cache.put_us", us.meanOf("cache.put"), "us");
    set("cache.warm_s", warmS, "s");
    set("cache.disk_entries", diskEntries, "count");
    set("amos.replay_us", us.meanOf("amos.replay"), "us");
    set("amos.compile_ms", mean(compileMs), "ms");
    set("mapping.enumerate_ms", mean(enumerateMs), "ms");
    set("mapping.plans", mean(plansCount), "count");
    set("explore.tune_ms", mean(tuneMs), "ms");
    set("explore.tune_serial_ms", mean(serialMs), "ms");
    set("explore.self_ms", mean(selfMs), "ms");
    set("explore.measurements", mean(measurements), "count");
    set("explore.generations", mean(generations), "count");
    set("explore.measure_reuse_ratio", mean(reuse), "ratio");
    const std::pair<const char *, const char *> inner[] = {
        {"schedule.sample", "schedule.sample"},
        {"schedule.lower", "schedule.lower"},
        {"model.estimate", "model.estimate"},
        {"sim.simulate", "sim.simulate"},
    };
    for (const auto &[name, key] : inner) {
        set(std::string(name) + "_us", us.meanOf(key), "us");
        set(std::string(name) + "_calls", mean(calls[key]), "count");
        set(std::string(name) + "_ms", mean(products[key]), "ms");
    }
    set("exec.plan_build_us", us.meanOf("exec.plan_build"), "us");
    set("codegen.emit_us", us.meanOf("codegen.emit"), "us");
    set("jit.compile_ms", us.meanOf("jit.compile") / 1e3, "ms");
    set("jit.load_ms", us.meanOf("jit.load") / 1e3, "ms");
    for (const char *name :
         {"exec.interpreter_gelem_s", "exec.walk_gelem_s_1t",
          "exec.walk_gelem_s_nt", "jit.gelem_s_1t", "jit.gelem_s_nt"})
        set(name, geomean(rate[name]), "Gelem/s");
    set("ledger.unattributed_frac", rootUs > 0 ? rootSelfUs / rootUs : 0.0,
        "ratio");
    // Tracing overhead: the time this ledger spent recording spans
    // (per-span cost x spans) as a share of its wall time.
    const double costUs = spanCostUs();
    const double spans = static_cast<double>(ledger.spans().size());
    set("ledger.overhead_frac",
        costUs * spans / usBetween(ledgerStart, Clock::now()), "ratio");
    out.detail.set("ledger_span_cost_us", Json(costUs));
    set("ledger.spans", spans, "count");
    ledger.write(cfg.runDir + "/spans.json");
    return metrics;
}

} // namespace perfbench
