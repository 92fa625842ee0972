/**
 * @file
 * The three workloads: cold_resnet (first-seen compiles), warm_mixed
 * (cached hits beside a trickle of writes), and execute (running
 * tuned plans on the stride-walk and JIT engines). Each generates
 * its inputs from the seed, sets up several times and reports the
 * median set-up time, runs a closed loop for the requested seconds,
 * checks every output, and either reports the end-to-end metrics or,
 * traced, hands its samples to the ledger.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "codegen/exec_c.hh"
#include "jit/jit.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "ops/conv_layers.hh"
#include "serve/service.hh"
#include "tensor/reference.hh"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// The timed phase is cut into this many epochs (serving workloads:
/// each on a fresh server over a fresh copy of the prepared cache) or
/// windows (execute). On a shared virtual machine the hypervisor
/// steals CPU time in bursts of seconds, which slows parallel work by
/// tens of percent; the end-to-end metrics come from the half of the
/// epochs with the least steal per CPU-second, so a run is decided by
/// its calmer stretches. Every epoch still runs and is checked.
constexpr int kEpochs = 10;
/// Ledger samples per request class.
constexpr std::size_t kHitSamples = 200;

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

SampledRequest
sampleOf(const Completed &c, const std::string &line)
{
    SampledRequest s;
    s.line = line;
    s.id = c.response.id;
    s.clientMs = c.latencyMs;
    s.sent = c.sent;
    s.received = c.received;
    s.cycles = c.response.cycles;
    return s;
}

/** One epoch (or window) of a timed phase. */
struct Epoch
{
    double seconds = 0.0;
    double completed = 0.0;
    /// Primary-class samples in completion order: (kind, latency ms).
    std::vector<std::pair<std::size_t, double>> primary;
    double rssMb = 0.0;
    double steal = 0.0; ///< stealShare() over the epoch
    /// Responses by served_by (serving workloads).
    std::map<std::string, std::int64_t> servedBy;
};

/**
 * A kind's tail: its q-quantile. q is fixed per workload, so a commit
 * that completes more operations is compared at the same percentile
 * as one that completes fewer; only the number of samples beyond it
 * changes, and the detail line records it.
 */
Tail
tailAt(const std::vector<double> &samples, double q)
{
    Tail tail;
    tail.value = quantile(samples, q);
    tail.percentile = 100.0 * q;
    tail.samples = samples.size();
    tail.beyond = static_cast<std::size_t>(
        std::floor((1.0 - q) * static_cast<double>(samples.size()) + 1e-9));
    return tail;
}

/** Throughput, latency and RSS over a subset of the epochs. */
struct PhaseFigures
{
    double rps = 0.0;
    double p50Ms = 0.0;
    double tailMs = 0.0;
    double rssMb = 0.0;
    amos::Json kinds = amos::Json::array();
};

/**
 * p50 and tail are geometric means over request kinds of each kind's
 * median and tail: a workload that mixes kinds with separate latency
 * clusters (26 compile shapes, 2 cache tiers, 8 plan x engine runs)
 * would otherwise put its pooled percentiles in a gap between
 * clusters, or on the slowest kind alone.
 */
PhaseFigures
figuresOf(const std::vector<Epoch> &epochs, const std::vector<bool> &use,
          double tailQ)
{
    PhaseFigures f;
    std::vector<double> rps, rss;
    std::map<std::size_t, std::vector<double>> byKind;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        if (!use[i])
            continue;
        rps.push_back(epochs[i].completed / epochs[i].seconds);
        rss.push_back(epochs[i].rssMb);
        for (const auto &[kind, ms] : epochs[i].primary)
            byKind[kind].push_back(ms);
    }
    std::vector<double> medians, tails;
    for (const auto &[kind, lat] : byKind) {
        Tail tail = tailAt(lat, tailQ);
        medians.push_back(median(lat));
        tails.push_back(tail.value);
        amos::Json k = amos::Json::object();
        k.set("kind", amos::Json(static_cast<std::int64_t>(kind)));
        k.set("samples", amos::Json(static_cast<std::int64_t>(lat.size())));
        k.set("p50_ms", amos::Json(medians.back()));
        k.set("tail_ms", amos::Json(tail.value));
        k.set("tail_percentile", amos::Json(tail.percentile));
        k.set("beyond",
              amos::Json(static_cast<std::int64_t>(tail.beyond)));
        f.kinds.push(k);
    }
    f.rps = median(rps);
    f.p50Ms = geomean(medians);
    f.tailMs = geomean(tails);
    f.rssMb = median(rss);
    return f;
}

/**
 * The end-to-end metrics, over the calmer half of the epochs: least
 * steal per CPU-second first, ties in epoch order. Steal per
 * CPU-second is a measure of the host that the program's own CPU use
 * does not enter. The same figures over all epochs go to the detail
 * line, so the effect of the selection can be read off every run.
 */
void
reportPhase(RunOutcome &out, const std::vector<double> &setups,
            const std::vector<Epoch> &epochs, double cyclesGeo,
            double tailQ)
{
    std::vector<std::size_t> order(epochs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return epochs[a].steal < epochs[b].steal;
                     });
    std::vector<bool> used(epochs.size(), false);
    for (std::size_t r = 0; r < (epochs.size() + 1) / 2; ++r)
        used[order[r]] = true;

    amos::Json perEpoch = amos::Json::array();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const Epoch &e = epochs[i];
        std::vector<double> lat;
        for (const auto &[kind, ms] : e.primary)
            lat.push_back(ms);
        amos::Json j = latencySummary(lat);
        j.set("seconds", amos::Json(e.seconds));
        j.set("rps", amos::Json(e.completed / e.seconds));
        j.set("peak_rss_mb", amos::Json(e.rssMb));
        j.set("steal", amos::Json(e.steal));
        j.set("used", amos::Json(static_cast<bool>(used[i])));
        if (!e.servedBy.empty()) {
            amos::Json served = amos::Json::object();
            for (const auto &[by, n] : e.servedBy)
                served.set(by, amos::Json(n));
            j.set("served_by", served);
        }
        perEpoch.push(j);
    }
    PhaseFigures f = figuresOf(epochs, used, tailQ);
    PhaseFigures all =
        figuresOf(epochs, std::vector<bool>(epochs.size(), true), tailQ);
    out.set("setup_s", median(setups), "s");
    out.set("throughput_rps", f.rps, "1/s");
    out.set("p50_ms", f.p50Ms, "ms");
    out.set("tail_ms", f.tailMs, "ms");
    out.set("cycles_geomean", cyclesGeo, "cycles");
    out.set("peak_rss_mb", f.rssMb, "MiB");
    amos::Json allJ = amos::Json::object();
    allJ.set("throughput_rps", amos::Json(all.rps));
    allJ.set("p50_ms", amos::Json(all.p50Ms));
    allJ.set("tail_ms", amos::Json(all.tailMs));
    out.detail.set("all_epochs", allJ);
    out.detail.set("kinds", f.kinds);
    out.detail.set("setup_reps",
                   amos::Json(static_cast<std::int64_t>(setups.size())));
    out.detail.set("epochs", perEpoch);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/**
 * The timed phase of a serving workload: kEpochs epochs of equal
 * length, each on a fresh amos_served over a fresh copy of
 * `prepared` (an empty directory when `prepared` is empty). Request
 * indices continue across epochs, so the stream is one sequence.
 * `next` gets whether the epoch has expired; `done` returns the kind
 * of a primary-class sample (nullopt for other requests).
 */
class ServingPhase
{
  public:
    using Next = std::function<std::optional<std::string>(
        std::size_t client, std::size_t index, const std::string &id,
        bool expired)>;
    using Done =
        std::function<std::optional<std::size_t>(const Completed &)>;

    ServingPhase(const RunConfig &cfg, std::size_t clients,
                 std::string prepared)
        : _cfg(cfg), _clients(clients), _prepared(std::move(prepared))
    {}

    std::vector<Epoch>
    run(const Next &next, const Done &done, RunOutcome &out,
        LedgerInput *trace)
    {
        std::vector<Epoch> epochs;
        std::vector<std::size_t> first(_clients, 0);
        std::vector<double> waits, bytes;
        for (int e = 0; e < kEpochs; ++e) {
            _dir = _cfg.runDir + "/epoch" + std::to_string(e);
            fs::remove_all(_dir);
            if (_prepared.empty())
                fs::create_directories(_dir);
            else
                fs::copy(_prepared, _dir, fs::copy_options::recursive);
            std::unique_ptr<ServedProcess> server;
            spawnAndTime(server, _cfg, _dir);
            auto deadline = after(_cfg.seconds / kEpochs);
            Epoch epoch;
            Clock::time_point t0{}, t1{};
            std::vector<std::size_t> next_first = first;
            CpuTimes cpu0 = readCpuTimes();
            runClosedLoop(
                *server, _clients,
                [&](std::size_t c, std::size_t j, const std::string &id) {
                    auto line = next(c, j, id, Clock::now() >= deadline);
                    if (line) {
                        ++out.attempted;
                        next_first[c] = j + 1;
                    }
                    return line;
                },
                [&](const Completed &c) {
                    if (epoch.completed == 0)
                        t0 = c.sent;
                    t1 = c.received;
                    epoch.completed += 1;
                    ++epoch.servedBy[c.response.servedBy];
                    waits.push_back(c.response.queueWaitMs);
                    bytes.push_back(static_cast<double>(c.response.bytes));
                    if (auto kind = done(c))
                        epoch.primary.emplace_back(*kind, c.latencyMs);
                },
                first);
            first = next_first;
            epoch.steal = stealShare(cpu0, readCpuTimes());
            epoch.seconds = msBetween(t0, t1) / 1e3;
            if (trace)
                addStats(*server, *trace);
            epoch.rssMb = peakRssMb(server->pid());
            if (server->shutdown() != 0)
                out.fail("amos_served exited nonzero");
            epochs.push_back(std::move(epoch));
        }
        if (trace) {
            trace->queueWaitMs = mean(waits);
            trace->responseBytes = mean(bytes);
            trace->cacheDir = _dir;
        }
        return epochs;
    }

  private:
    /** Add the server's counters to the ledger's serve counts. */
    static void
    addStats(ServedProcess &server, LedgerInput &in)
    {
        Response stats = parseResponse(server.control("stats"));
        auto count = [&](const char *key) {
            auto it = stats.fields.find(std::string("stats.") + key);
            return it == stats.fields.end()
                       ? 0.0
                       : std::strtod(it->second.c_str(), nullptr);
        };
        in.serveCounts["serve.served_memory"] += count("memory_hits");
        in.serveCounts["serve.served_disk"] += count("disk_hits");
        in.serveCounts["serve.served_compile"] += count("compiles");
        in.serveCounts["serve.served_coalesced"] += count("coalesced");
        in.serveCounts["serve.rejected"] +=
            count("rejected_queue_full") + count("deadline_exceeded") +
            count("cancelled") + count("failures");
    }

    const RunConfig &_cfg;
    std::size_t _clients;
    std::string _prepared;
    std::string _dir;
};

/** Median time of kSetupReps server start-ups on `dir`. */
std::vector<double>
timeSetups(const RunConfig &cfg, const std::string &dir, RunOutcome &out)
{
    std::vector<double> setups;
    for (int r = 0; r < kSetupReps; ++r) {
        std::unique_ptr<ServedProcess> server;
        setups.push_back(spawnAndTime(server, cfg, dir));
        if (server->shutdown() != 0)
            out.fail("amos_served exited nonzero");
    }
    return setups;
}

// ---- cold_resnet ------------------------------------------------

/**
 * One cold pass: ResNet-18 C0-C11 (batch 16) on v100 and a100, a
 * 512^3 GEMM on v100, and a u8i8 conv2d on xeon; seeds are filled
 * in per pass so every request is a fresh exploration.
 */
std::vector<RequestSpec>
coldPass(int threads)
{
    std::vector<RequestSpec> pass;
    for (const char *hw : {"v100", "a100"}) {
        for (const auto &layer : amos::ops::resnet18ConvLayers(16)) {
            RequestSpec r;
            r.op = "conv2d";
            r.dims = {{"batch", layer.batch},
                      {"cin", layer.in_channels},
                      {"cout", layer.out_channels},
                      {"size", layer.height},
                      {"kernel", layer.kernel},
                      {"stride", layer.stride}};
            r.hw = hw;
            pass.push_back(r);
        }
    }
    RequestSpec gemm;
    gemm.op = "gemm";
    gemm.dims = {{"m", 512}, {"n", 512}, {"k", 512}};
    gemm.hw = "v100";
    pass.push_back(gemm);
    RequestSpec quant;
    quant.op = "conv2d";
    quant.dims = {{"batch", 1}, {"cin", 64}, {"cout", 64},
                  {"size", 14}, {"kernel", 3}, {"stride", 1}};
    quant.hw = "xeon";
    quant.dtype = "u8i8";
    pass.push_back(quant);
    for (auto &r : pass)
        r.threads = threads;
    return pass;
}

} // namespace

RunOutcome
runColdResnet(const RunConfig &cfg)
{
    RunOutcome out;
    Ledger ledger; // span times count from here
    const std::string empty = cfg.runDir + "/empty";
    fs::remove_all(empty);
    fs::create_directories(empty);
    std::vector<double> setups = timeSetups(cfg, empty, out);

    const auto pass = coldPass(cfg.nproc);
    const std::size_t n = pass.size();
    auto lineOf = [&](std::size_t j, const std::string &id) {
        // Consecutive seeds per shape: every pass is distinct by
        // construction, so no request can hit an earlier key.
        RequestSpec r = pass[j % n];
        r.seed = (subSeed(cfg.seed, 0, j % n) + j / n) & 0x7fffffff;
        return r.line(id);
    };
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::size_t j = 0; j < 2 * n; ++j)
        digest = fnv1a(lineOf(j, "c0-" + std::to_string(j)), digest);

    LedgerInput lin;
    // The first passes always complete (epochs end on pass
    // boundaries), so their geomean depends on the seed alone.
    constexpr std::size_t kCyclesPasses = 5;
    std::vector<double> passCycles;
    std::map<std::string, std::string> lines;
    auto epochs = ServingPhase(cfg, 1, "").run(
        [&](std::size_t, std::size_t j, const std::string &id,
            bool expired) -> std::optional<std::string> {
            // Whole passes only, so every epoch serves the same mix.
            if (j % n == 0 && expired)
                return std::nullopt;
            std::string line = lineOf(j, id);
            if (cfg.trace && j < n)
                lines[id] = line;
            return line;
        },
        [&](const Completed &c) -> std::optional<std::size_t> {
            const Response &r = c.response;
            if (!r.ok || r.servedBy != "compile") {
                out.fail("cold request " + r.id + " served_by '" +
                         r.servedBy + "' error '" + r.errorCode + "'");
                return std::nullopt;
            }
            if (c.index < kCyclesPasses * n)
                passCycles.push_back(std::strtod(r.cycles.c_str(),
                                                 nullptr));
            if (cfg.trace && c.index < n)
                lin.compiles.push_back(sampleOf(c, lines[r.id]));
            return c.index % n;
        },
        out, cfg.trace ? &lin : nullptr);

    out.detail.set("stream_digest", amos::Json(hex(digest)));
    if (!cfg.trace) {
        // About 38 samples per shape at 30 s: p70 leaves ten beyond.
        reportPhase(out, setups, epochs, geomean(passCycles), 0.70);
        return out;
    }
    out.metrics = runLedger(cfg, std::move(lin), ledger, out);
    return out;
}

// ---- warm_mixed -------------------------------------------------

namespace {

/// Keys compiled into the disk tier before the timed phase: more
/// than amos_served's default --mem-capacity (256), so some hits
/// must come from disk.
constexpr std::size_t kWarmKeys = 320;
constexpr std::size_t kWarmClients = 4;
constexpr double kFreshFraction = 0.05;
/// Zipf exponent of key popularity.
constexpr double kZipfS = 1.0;

template <typename T, std::size_t N>
T
pick(const T (&options)[N], std::uint64_t seed, std::uint64_t a,
     std::uint64_t b)
{
    auto i = static_cast<std::size_t>(unitDraw(seed, a, b) * N);
    return options[std::min(i, N - 1)];
}

/// The key set's shapes are fixed so that every seed serves the same
/// operators; the seed picks their tuning seeds and the stream.
constexpr std::uint64_t kWarmShapeSeed = 2022;

RequestSpec
warmKey(std::uint64_t seed, std::size_t k)
{
    static const std::int64_t gemmDims[] = {64, 128, 256, 512, 1024};
    static const std::int64_t batches[] = {1, 8, 16};
    static const std::int64_t cins[] = {32, 64, 128, 256};
    static const std::int64_t couts[] = {64, 128, 256};
    static const std::int64_t sizes[] = {7, 14, 28};
    static const std::int64_t kernels[] = {1, 3};
    const std::uint64_t shape = kWarmShapeSeed;
    RequestSpec r;
    if (unitDraw(shape, 100, k) < 0.6) {
        r.op = "gemm";
        r.dims = {{"m", pick(gemmDims, shape, 101, k)},
                  {"n", pick(gemmDims, shape, 102, k)},
                  {"k", pick(gemmDims, shape, 103, k)}};
    } else {
        r.op = "conv2d";
        r.dims = {{"batch", pick(batches, shape, 104, k)},
                  {"cin", pick(cins, shape, 105, k)},
                  {"cout", pick(couts, shape, 106, k)},
                  {"size", pick(sizes, shape, 107, k)},
                  {"kernel", pick(kernels, shape, 108, k)},
                  {"stride", 1}};
    }
    r.hw = k % 2 ? "a100" : "v100";
    r.generations = 2;
    r.seed = subSeed(seed, 109, k);
    return r;
}

/** One timed-phase request: a popular key, or a fresh cheap GEMM. */
struct WarmDraw
{
    bool fresh = false;
    std::size_t key = 0;
    RequestSpec spec;
};

class WarmStream
{
  public:
    explicit WarmStream(std::uint64_t seed) : _seed(seed)
    {
        // Popularity ranks: a seeded permutation of the key set.
        std::vector<std::size_t> order(kWarmKeys);
        for (std::size_t i = 0; i < kWarmKeys; ++i)
            order[i] = i;
        for (std::size_t i = kWarmKeys - 1; i > 0; --i) {
            auto j = static_cast<std::size_t>(
                unitDraw(seed, 200, i) * static_cast<double>(i + 1));
            std::swap(order[i], order[std::min(j, i)]);
        }
        _byRank = order;
        double total = 0.0;
        for (std::size_t r = 0; r < kWarmKeys; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
            _cdf.push_back(total);
        }
        for (auto &c : _cdf)
            c /= total;
    }

    WarmDraw
    draw(std::size_t client, std::size_t j) const
    {
        static const std::int64_t dims[] = {16, 32, 64};
        WarmDraw d;
        if (unitDraw(_seed, 300 + client, j) < kFreshFraction) {
            d.fresh = true;
            d.spec.op = "gemm";
            d.spec.dims = {{"m", pick(dims, _seed, 400 + client, j)},
                           {"n", pick(dims, _seed, 500 + client, j)},
                           {"k", pick(dims, _seed, 600 + client, j)}};
            d.spec.hw = "v100";
            d.spec.generations = 1;
            // Distinct per (client, index), so a fresh key never repeats.
            d.spec.seed = (subSeed(_seed, 700) + j * kWarmClients + client) &
                          0x7fffffff;
            return d;
        }
        double u = unitDraw(_seed, 800 + client, j);
        auto rank = static_cast<std::size_t>(
            std::lower_bound(_cdf.begin(), _cdf.end(), u) - _cdf.begin());
        d.key = _byRank[std::min(rank, kWarmKeys - 1)];
        d.spec = warmKey(_seed, d.key);
        return d;
    }

  private:
    std::uint64_t _seed;
    std::vector<std::size_t> _byRank;
    std::vector<double> _cdf;
};

} // namespace

RunOutcome
runWarmMixed(const RunConfig &cfg)
{
    RunOutcome out;
    Ledger ledger; // span times count from here
    const std::string prepared = cfg.runDir + "/prepared";
    fs::remove_all(prepared);
    fs::create_directories(prepared);

    // Untimed preparation: compile the key set through the protocol
    // so the disk tier holds it in whatever format the server uses.
    struct Expected
    {
        std::string cycles;
        std::string signature;
    };
    std::vector<Expected> expected(kWarmKeys);
    {
        std::unique_ptr<ServedProcess> prep;
        spawnAndTime(prep, cfg, prepared);
        runClosedLoop(
            *prep, kWarmClients,
            [&](std::size_t c, std::size_t j, const std::string &id)
                -> std::optional<std::string> {
                std::size_t k = j * kWarmClients + c;
                if (k >= kWarmKeys)
                    return std::nullopt;
                ++out.attempted;
                return warmKey(cfg.seed, k).line(id);
            },
            [&](const Completed &c) {
                std::size_t k = c.index * kWarmClients + c.client;
                const Response &r = c.response;
                if (!r.ok || r.servedBy != "compile")
                    out.fail("prep request " + r.id + " not compiled");
                expected[k] = {r.cycles, r.signature};
            });
        if (prep->shutdown() != 0)
            out.fail("amos_served (prep) exited nonzero");
    }
    std::vector<double> keyCycles;
    for (const auto &e : expected)
        keyCycles.push_back(std::strtod(e.cycles.c_str(), nullptr));
    std::vector<double> setups = timeSetups(cfg, prepared, out);

    WarmStream stream(cfg.seed);
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::size_t c = 0; c < kWarmClients; ++c)
        for (std::size_t j = 0; j < 256; ++j)
            digest = fnv1a(stream.draw(c, j).spec.line("x"), digest);

    LedgerInput lin;
    std::vector<double> compiles;
    std::map<std::string, std::string> lines;
    std::size_t hitSeen = 0, freshSeen = 0;
    auto epochs = ServingPhase(cfg, kWarmClients, prepared).run(
        [&](std::size_t c, std::size_t j, const std::string &id,
            bool expired) -> std::optional<std::string> {
            if (expired)
                return std::nullopt;
            std::string line = stream.draw(c, j).spec.line(id);
            if (cfg.trace)
                lines[id] = line;
            return line;
        },
        [&](const Completed &c) -> std::optional<std::size_t> {
            WarmDraw d = stream.draw(c.client, c.index);
            const Response &r = c.response;
            std::string line;
            if (cfg.trace) {
                line = std::move(lines[r.id]);
                lines.erase(r.id);
            }
            if (d.fresh) {
                if (!r.ok || r.servedBy != "compile") {
                    out.fail("fresh request " + r.id + " served_by '" +
                             r.servedBy + "'");
                    return std::nullopt;
                }
                compiles.push_back(c.latencyMs);
                if (cfg.trace && freshSeen++ % 4 == 0 &&
                    lin.compiles.size() < 16)
                    lin.compiles.push_back(sampleOf(c, line));
                return std::nullopt;
            }
            const Expected &e = expected[d.key];
            if (!r.ok ||
                (r.servedBy != "memory" && r.servedBy != "disk")) {
                out.fail("hit request " + r.id + " served_by '" +
                         r.servedBy + "' error '" + r.errorCode + "'");
                return std::nullopt;
            }
            if (!hitMatches(r, e.cycles, e.signature)) {
                out.fail("hit " + r.id + " returned cycles " + r.cycles +
                         " / " + r.signature + ", cold compile gave " +
                         e.cycles + " / " + e.signature);
                return std::nullopt;
            }
            if (cfg.trace && hitSeen++ % 25 == 0 &&
                lin.hits.size() < kHitSamples)
                lin.hits.push_back(sampleOf(c, line));
            // Memory and disk hits are separate kinds: each tier's
            // latency counts alike, although disk hits are about a
            // tenth of the hits.
            return r.servedBy == "memory" ? 0 : 1;
        },
        out, cfg.trace ? &lin : nullptr);

    out.detail.set("stream_digest", amos::Json(hex(digest)));
    out.detail.set("compile_latency", latencySummary(compiles));
    if (!cfg.trace) {
        // p90 per tier. Beyond it, a hit's latency is set by how the
        // host schedules the client, reader and responder threads on
        // the few vCPUs: p99.5 of the same samples moved by 25-55%
        // when a bursty CPU load shared the machine, p90 by 0-16%.
        reportPhase(out, setups, epochs, geomean(keyCycles), 0.90);
        return out;
    }
    out.metrics = runLedger(cfg, std::move(lin), ledger, out);
    return out;
}

// ---- execute ----------------------------------------------------

namespace {

/**
 * The four plans: a GEMM, ResNet-18 C10 at batch 1, a GEMV, and a
 * u8i8 conv2d on xeon (the typed i8 lane). Their tuning seeds are
 * fixed, so every run executes the same plans; the run's seed only
 * picks the input data.
 */
std::vector<RequestSpec>
executeSpecs()
{
    std::vector<RequestSpec> specs(4);
    specs[0].op = "gemm";
    specs[0].dims = {{"m", 128}, {"n", 128}, {"k", 128}};
    specs[0].hw = "v100";
    const auto c10 = amos::ops::resnet18ConvLayers(1)[10];
    specs[1].op = "conv2d";
    specs[1].dims = {{"batch", c10.batch},   {"cin", c10.in_channels},
                     {"cout", c10.out_channels}, {"size", c10.height},
                     {"kernel", c10.kernel}, {"stride", c10.stride}};
    specs[1].hw = "v100";
    specs[2].op = "gemv";
    specs[2].dims = {{"m", 1024}, {"k", 1024}};
    specs[2].hw = "v100";
    specs[3].op = "conv2d";
    specs[3].dims = {{"batch", 1}, {"cin", 64}, {"cout", 64},
                     {"size", 7}, {"kernel", 3}, {"stride", 1}};
    specs[3].hw = "xeon";
    specs[3].dtype = "u8i8";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].generations = 4;
        specs[i].seed = 2022 + i;
    }
    return specs;
}

/// Tune + JIT build repetitions (each builds into a fresh directory;
/// the last one into the directory the timed phase loads from).
constexpr int kExecuteSetupReps = 5;

struct Tuned
{
    std::vector<amos::MappingPlan> plans;
    std::vector<double> cycles;
    std::vector<SampledRequest> requests;
    std::map<std::string, double> counts;
    std::vector<double> queueWaits;
};

/**
 * Set-up: tune the four plans through an in-process CompileService
 * and build their JIT kernels into `jitDir` with a private engine.
 */
Tuned
tuneAndBuild(const std::string &jitDir, RunOutcome &out)
{
    Tuned t;
    amos::serve::ServeOptions options;
    amos::serve::CompileService service(options);
    auto specs = executeSpecs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::string id = "plan" + std::to_string(i);
        std::string line = specs[i].line(id);
        auto sent = Clock::now();
        auto req = amos::serve::CompileRequest::fromJson(
            amos::Json::parse(line));
        auto outcome = service.serve(req);
        SampledRequest s;
        s.line = line;
        s.id = id;
        s.sent = sent;
        s.received = Clock::now();
        s.clientMs = msBetween(s.sent, s.received);
        s.cycles = parseResponse(outcome.toJson(id).dump()).cycles;
        t.requests.push_back(s);
        if (!outcome.ok || !outcome.result.tuning.bestPlan) {
            out.fail("tuning " + id + " failed: " + outcome.message);
            throw std::runtime_error("execute set-up failed");
        }
        t.plans.push_back(*outcome.result.tuning.bestPlan);
        t.cycles.push_back(outcome.result.cycles);
        t.queueWaits.push_back(outcome.queueWaitMs);
    }
    auto stats = service.stats();
    t.counts["serve.served_memory"] = static_cast<double>(stats.memoryHits);
    t.counts["serve.served_disk"] = static_cast<double>(stats.diskHits);
    t.counts["serve.served_compile"] = static_cast<double>(stats.compiles);
    t.counts["serve.served_coalesced"] = static_cast<double>(stats.coalesced);
    t.counts["serve.rejected"] = static_cast<double>(
        stats.rejectedQueueFull + stats.deadlineExceeded + stats.cancelled +
        stats.failures);
    amos::JitOptions jo = amos::JitOptions::fromEnv();
    jo.cacheDir = jitDir;
    amos::JitEngine engine(jo);
    for (const auto &plan : t.plans) {
        amos::ExecPlan ep(plan);
        std::string why;
        if (!ep.compiled() ||
            !engine.getOrCompile(
                amos::generateDirectKernelC(
                    ep, "direct mapped nest of " +
                            plan.computation().name()),
                &why)) {
            out.fail("JIT build failed: " + why);
            throw std::runtime_error("execute set-up failed");
        }
    }
    return t;
}

} // namespace

bool
hitMatches(const Response &hit, const std::string &cycles,
           const std::string &signature)
{
    return !hit.cycles.empty() && hit.cycles == cycles &&
           hit.signature == signature;
}

ExecCase
makeExecCase(const amos::MappingPlan &plan, std::uint64_t inputSeed)
{
    const auto &comp = plan.computation();
    ExecCase c;
    c.plan = &plan;
    c.inputs = amos::makePatternInputs(comp, inputSeed);
    for (const auto &b : c.inputs)
        c.ptrs.push_back(&b);
    c.reference = std::make_unique<amos::Buffer>(comp.output());
    c.output = std::make_unique<amos::Buffer>(comp.output());
    c.outputElems = static_cast<double>(c.output->size());
    c.reference->fill(0.0f);
    amos::ExecOptions interp;
    interp.engine = amos::ExecEngine::Interpreter;
    c.interpreterStart = Clock::now();
    amos::executeMappedDirect(plan, c.ptrs, *c.reference, interp);
    c.interpreterEnd = Clock::now();
    return c;
}

bool
verifyOutputs(const amos::Buffer &got, const amos::Buffer &want)
{
    auto cmp = amos::quant::compareBuffers(
        got, want, amos::quant::ToleranceSpec::exactly());
    return cmp.pass && cmp.maxAbsErr == 0.0;
}

RunOutcome
runExecute(const RunConfig &cfg)
{
    RunOutcome out;
    Ledger ledger; // span times count from here
    // The executors' JIT tier uses the process-wide engine, which
    // reads its cache directory once: point it at this run's fresh
    // directory before anything touches it.
    const std::string jitDir = cfg.runDir + "/jit";
    setenv("AMOS_JIT_CACHE_DIR", jitDir.c_str(), 1);

    std::vector<double> setups;
    Tuned tuned;
    for (int r = 0; r < kExecuteSetupReps; ++r) {
        std::string dir = r + 1 == kExecuteSetupReps
                              ? jitDir
                              : cfg.runDir + "/jit-setup" + std::to_string(r);
        fs::remove_all(dir);
        auto t0 = Clock::now();
        Tuned t = tuneAndBuild(dir, out);
        setups.push_back(msSince(t0) / 1e3);
        if (!tuned.cycles.empty() && t.cycles != tuned.cycles)
            out.fail("re-tuning with the same seeds changed cycles");
        tuned = std::move(t);
    }

    // Inputs from the seed; the interpreter output is the reference.
    std::vector<ExecCase> cases;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < tuned.plans.size(); ++i) {
        cases.push_back(makeExecCase(tuned.plans[i], subSeed(cfg.seed, 900, i)));
        digest = fnv1a(tuned.requests[i].line, digest);
    }

    const amos::ExecEngine engines[2] = {amos::ExecEngine::Walk,
                                         amos::ExecEngine::Jit};
    const char *engineNames[2] = {"walk", "jit"};
    double elemsPerRound = 0.0;
    for (const auto &c : cases)
        elemsPerRound += c.outputElems;

    // One operation = one plan executed on one engine, its output
    // checked bit-exactly; a round runs every plan on both engines.
    // Samples are kinded by (engine, plan).
    std::vector<std::pair<std::size_t, double>> ops;
    double engineSeconds[2] = {0.0, 0.0};
    std::vector<SampledRequest> sampledRounds;
    auto runRound = [&](std::size_t index, bool timed) {
        Completed round;
        round.sent = Clock::now();
        for (std::size_t e = 0; e < 2; ++e) {
            amos::ExecOptions opts;
            opts.engine = engines[e];
            opts.numThreads = cfg.nproc;
            for (std::size_t i = 0; i < cases.size(); ++i) {
                ExecCase &c = cases[i];
                ++out.attempted;
                c.output->fill(0.0f);
                auto t0 = Clock::now();
                auto report = amos::executeMappedDirect(*c.plan, c.ptrs,
                                                        *c.output, opts);
                double ms = msSince(t0);
                engineSeconds[e] += ms / 1e3;
                if (report.engine != engineNames[e]) {
                    out.fail(std::string("engine ") + engineNames[e] +
                             " fell back to " + report.engine + " " +
                             report.jitFallback);
                } else if (!verifyOutputs(*c.output, *c.reference)) {
                    out.fail(std::string(engineNames[e]) +
                             " output differs from the interpreter on " +
                             c.plan->computation().name());
                } else if (timed) {
                    ops.emplace_back(e * cases.size() + i, ms);
                }
            }
        }
        round.received = Clock::now();
        round.latencyMs = msBetween(round.sent, round.received);
        round.response.id = "round" + std::to_string(index);
        if (timed && cfg.trace && index % 10 == 0 &&
            sampledRounds.size() < 20)
            sampledRounds.push_back(sampleOf(round, ""));
    };
    runRound(0, false); // untimed warm-up: dlopen + first touch
    engineSeconds[0] = engineSeconds[1] = 0.0;
    std::vector<Epoch> windows;
    std::size_t rounds = 0;
    for (int w = 0; w < kEpochs; ++w) {
        Epoch window;
        auto t0 = Clock::now();
        CpuTimes cpu0 = readCpuTimes();
        auto deadline = after(cfg.seconds / kEpochs);
        std::size_t before = ops.size();
        while (Clock::now() < deadline)
            runRound(rounds++, true);
        window.seconds = msSince(t0) / 1e3;
        window.steal = stealShare(cpu0, readCpuTimes());
        window.primary.assign(ops.begin() + static_cast<long>(before),
                              ops.end());
        window.completed = static_cast<double>(window.primary.size());
        window.rssMb = peakRssMb(getpid());
        windows.push_back(std::move(window));
    }
    const double index = static_cast<double>(rounds);

    out.detail.set("stream_digest", amos::Json(hex(digest)));
    out.detail.set("exec_walk_gelem_s",
                   amos::Json(elemsPerRound * index / engineSeconds[0] / 1e9));
    out.detail.set("exec_jit_gelem_s",
                   amos::Json(elemsPerRound * index / engineSeconds[1] / 1e9));
    if (!cfg.trace) {
        // About 160 runs per (engine, plan) at 30 s: p90 leaves 16 beyond.
        reportPhase(out, setups, windows, geomean(tuned.cycles), 0.90);
        return out;
    }
    LedgerInput lin;
    lin.compiles = tuned.requests;
    lin.rounds = std::move(sampledRounds);
    lin.serveCounts = tuned.counts;
    lin.queueWaitMs = mean(tuned.queueWaits);
    lin.execPlans = tuned.plans;
    out.metrics = runLedger(cfg, std::move(lin), ledger, out);
    return out;
}

} // namespace perfbench
