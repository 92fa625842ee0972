/**
 * @file
 * Shared pieces of the repository benchmark (amos_bench): run
 * configuration, the result a run prints, sample statistics, seed
 * derivation, the amos_served child process and its closed-loop
 * client, and the traced-run ledger. See README.md for the workloads
 * and metric definitions.
 */

#ifndef AMOS_PERFBENCH_BENCH_HH
#define AMOS_PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "support/json.hh"
#include "tensor/tensor.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** One reported number and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** What one invocation was asked to do. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string servedPath; ///< the amos_served binary
    std::string runDir;     ///< this run's private scratch directory
    int nproc = 1;          ///< CPUs this process may run on
};

/**
 * Outcome of one run: correctness bookkeeping, the metrics of the
 * requested kind (end-to-end or per-layer), and a detail object
 * printed on the line before the result.
 */
struct RunOutcome
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    Metrics metrics;
    amos::Json detail = amos::Json::object();

    /** Count a failed operation and log why (first few only). */
    void fail(const std::string &why);
    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

// ---- statistics -------------------------------------------------

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);
double geomean(const std::vector<double> &values);

/**
 * The tail: the highest percentile with at least ten samples beyond
 * it, i.e. the 11th-largest sample (the maximum below 11 samples).
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};
Tail tailOf(const std::vector<double> &values);

/** Summary object {n, p50, tail, tail_percentile, beyond}. */
amos::Json latencySummary(const std::vector<double> &values);

// ---- seeds ------------------------------------------------------

std::uint64_t mix64(std::uint64_t x);
/** Stable sub-seed for (seed, a, b), below 2^31 so JSON keeps it. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t a,
                      std::uint64_t b = 0);
/** Uniform double in [0, 1) from a sub-seed. */
double unitDraw(std::uint64_t seed, std::uint64_t a, std::uint64_t b);
/** FNV-1a over a string, folded into `h`. */
std::uint64_t fnv1a(const std::string &data,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Cumulative CPU time counters of the whole machine (/proc/stat). */
struct CpuTimes
{
    double total = 0.0; ///< every state, idle included: wall x CPUs
    double steal = 0.0; ///< time the hypervisor ran something else
};
CpuTimes readCpuTimes();
/**
 * Steal per CPU-second between two readings: steal / total ticks.
 * The denominator is wall time x CPUs, so how busy the benchmarked
 * program keeps the CPUs does not enter it.
 */
double stealShare(const CpuTimes &from, const CpuTimes &to);

/** CPUs available to this process (what `nproc` prints). */
int availableCpus();
/** VmHWM of a process in MiB (0 when unreadable). */
double peakRssMb(pid_t pid);

// ---- compile requests --------------------------------------------

/** A compile request as the benchmark generates it. */
struct RequestSpec
{
    std::string op;
    std::vector<std::pair<std::string, std::int64_t>> dims;
    std::string hw;
    std::string dtype = "f16";
    int generations = 8;
    std::uint64_t seed = 0;
    int threads = 1;

    /** NDJSON request line (no trailing newline). */
    std::string line(const std::string &id) const;
};

// ---- amos_served client -----------------------------------------

/** Fields of one response line, read without the program's parser. */
struct Response
{
    std::string id;
    bool ok = false;
    std::string servedBy;
    std::string errorCode;
    std::string cycles;    ///< raw number text, compared exactly
    std::string signature; ///< result.mapping_signature
    double queueWaitMs = 0.0;
    std::size_t bytes = 0;
    /// Every scalar field by dotted path ("result.cycles", ...).
    std::map<std::string, std::string> fields;
};
Response parseResponse(const std::string &line);

/**
 * amos_served as a child process speaking NDJSON over pipes. The
 * destructor terminates and reaps a server that was not shut down.
 */
class ServedProcess
{
  public:
    ServedProcess(const std::string &binary,
                  const std::vector<std::string> &args,
                  const std::string &stderrPath);
    ~ServedProcess();
    ServedProcess(const ServedProcess &) = delete;
    ServedProcess &operator=(const ServedProcess &) = delete;

    void send(const std::string &line);
    /** Next response line; `at` is when its bytes arrived. */
    bool readLine(std::string &line, Clock::time_point &at);
    /** Send one control verb and return its response line. */
    std::string control(const std::string &type);
    pid_t pid() const { return _pid; }
    /** Graceful shutdown; returns the exit status (-1 on signal). */
    int shutdown();

  private:
    pid_t _pid = -1;
    int _in = -1;
    int _out = -1;
    std::string _buf;
    Clock::time_point _bufAt{};
};

/**
 * Spawn amos_served (default flags plus --cache-dir) and time spawn
 * to first answered request.
 */
double spawnAndTime(std::unique_ptr<ServedProcess> &server,
                    const RunConfig &cfg, const std::string &cacheDir);

/** One completed request of a closed loop. */
struct Completed
{
    std::size_t client = 0;
    std::size_t index = 0;
    Clock::time_point sent{};
    Clock::time_point received{};
    double latencyMs = 0.0;
    Response response;
};

/**
 * Closed loop over one connection: every logical client has one
 * request outstanding and sends its next only after the reply.
 * `next(client, index)` renders that request's line (given its id)
 * or returns nullopt when the client is done; `done` sees every
 * reply. Runs on the calling thread.
 */
using NextRequest = std::function<std::optional<std::string>(
    std::size_t client, std::size_t index, const std::string &id)>;
using OnCompleted = std::function<void(const Completed &)>;
/** `first[c]` (when given) is client c's first request index. */
void runClosedLoop(ServedProcess &server, std::size_t clients,
                   const NextRequest &next, const OnCompleted &done,
                   const std::vector<std::size_t> &first = {});

// ---- traced-run ledger ------------------------------------------

/** One span: a timed call, its causing span, and its request. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    std::string request;
    double durUs() const { return endUs - startUs; }
};

/** In-memory span store, written out once when the run ends. */
class Ledger
{
  public:
    Ledger();
    /** Time `fn` as a span; returns its index. */
    int time(const std::string &name, int parent,
             const std::string &request,
             const std::function<void()> &fn);
    /** Record a span with known times. */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent,
            const std::string &request);
    /**
     * Record a child whose duration comes from a per-call probe
     * (per-call time x calls), laid after its earlier siblings.
     */
    int attribute(const std::string &name, int parent,
                  const std::string &request, double durUs);
    const std::vector<Span> &spans() const { return _spans; }
    /** Duration minus the summed durations of direct children. */
    std::vector<double> selfUs() const;
    void write(const std::string &path) const;

  private:
    double usOf(Clock::time_point t) const;

    Clock::time_point _origin;
    std::vector<Span> _spans;
};

/** A client-observed operation the ledger re-executes. */
struct SampledRequest
{
    std::string line; ///< the request line as sent
    std::string id;
    double clientMs = 0.0;
    Clock::time_point sent{};
    Clock::time_point received{};
    std::string cycles; ///< the served result.cycles, as exact text
};

/** Everything the ledger needs from a finished workload run. */
struct LedgerInput
{
    std::vector<SampledRequest> hits;
    std::vector<SampledRequest> compiles;
    /// Verification rounds of the execute workload.
    std::vector<SampledRequest> rounds;
    /// Disk-tier directory the run's server used (empty: the ledger
    /// fills a fresh one from the sampled compiles).
    std::string cacheDir;
    /// Mapped plans for the execution-layer probes.
    std::vector<amos::MappingPlan> execPlans;
    /// Counts and waits read from the serving run.
    std::map<std::string, double> serveCounts;
    double queueWaitMs = 0.0;
    double responseBytes = 0.0;
};

/**
 * Re-execute the sampled requests layer by layer from this process,
 * probe every layer's public entry points on the workload's own
 * inputs, and return the per-layer metrics. Failed checks are
 * counted on `out`.
 */
Metrics runLedger(const RunConfig &cfg, LedgerInput input,
                  Ledger &ledger, RunOutcome &out);

/**
 * One mapped plan ready to run: seeded pattern inputs, an output
 * buffer, and the interpreter's output as the bit-exact reference
 * (computed between interpreterStart and interpreterEnd).
 */
struct ExecCase
{
    const amos::MappingPlan *plan = nullptr;
    std::vector<amos::Buffer> inputs;
    std::vector<const amos::Buffer *> ptrs;
    std::unique_ptr<amos::Buffer> reference;
    std::unique_ptr<amos::Buffer> output;
    double outputElems = 0.0;
    Clock::time_point interpreterStart{};
    Clock::time_point interpreterEnd{};
};
ExecCase makeExecCase(const amos::MappingPlan &plan,
                      std::uint64_t inputSeed);

/** True iff `got` is bit-identical to the reference `want`. */
bool verifyOutputs(const amos::Buffer &got, const amos::Buffer &want);

// ---- workloads --------------------------------------------------

RunOutcome runColdResnet(const RunConfig &cfg);
RunOutcome runWarmMixed(const RunConfig &cfg);
RunOutcome runExecute(const RunConfig &cfg);

/**
 * True iff a cache hit returned the cycles and mapping signature of
 * the cold compile of the same key.
 */
bool hitMatches(const Response &hit, const std::string &cycles,
                const std::string &signature);

/** Check-rejection self test; returns the number of failures. */
int selfTestChecks(const RunConfig &cfg);

} // namespace perfbench

#endif // AMOS_PERFBENCH_BENCH_HH
