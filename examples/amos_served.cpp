/**
 * @file
 * amos_served — the long-lived compilation server.
 *
 * Speaks newline-delimited JSON over stdin/stdout (one request per
 * line, one response per line, correlated by "id"); see
 * docs/serving.md for the schema. SIGTERM/SIGINT trigger a graceful
 * drain: in-flight explorations finish, their responses are
 * written, the disk cache tier stays consistent.
 *
 * Examples:
 *   echo '{"type":"compile","id":"r1","op":"gemm","m":256,
 *          "n":256,"k":256,"hw":"v100","generations":4}' \
 *     | amos_served --cache-dir /var/cache/amos
 *   amos_served --replay trace.ndjson --cache-dir /tmp/amos \
 *               --workers 4
 *
 * Flags:
 *   --workers N          compilation workers (default 2, 0 = #cpus)
 *   --queue N            admission bound on in-flight explorations
 *   --cache-dir PATH     enable the on-disk cache tier
 *   --mem-capacity N     memory-tier LRU entries (default 256)
 *   --stats-period-ms N  periodic stats log line to stderr
 *   --no-warm            skip preloading the disk tier on start
 *   --replay FILE        batch mode: serve a request trace, print
 *                        responses + final stats, exit
 *   --trace-out FILE     record every span (rings of 65536 records
 *                        per thread) and write one Chrome trace-event
 *                        document on exit (requests carrying
 *                        "trace_id" also get a per-request span tree
 *                        either way)
 *   --slow-ms N          slow-request postmortem threshold in ms
 *                        (default: adaptive, 2x windowed p99)
 *   --slowlog-size N     retained postmortems (default 32); read
 *                        them back with the "slowlog" verb
 *   --flight-dump FILE   also dump the flight-recorder rings to
 *                        FILE on SIGSEGV/SIGABRT (crash postmortem;
 *                        the "flightdump" verb dumps on demand)
 *   --warm-start MODE    default warm-start mode for requests with
 *                        no "warm_start" field of their own:
 *                        off|neighbors|model|both (default off)
 *   --model-snapshot F   preload a learned-model snapshot for the
 *                        model modes; a bad file degrades to
 *                        analytic screening with a warning (the
 *                        "reload_model" verb hot-swaps it later)
 *
 * An unknown flag, a flag missing its value, or a malformed number
 * exits 2 with a message naming the flag.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "serve/server.hh"
#include "support/flight_recorder.hh"

namespace {

using namespace amos;

std::atomic<bool> g_stop{false};

/// Crash-dump fd, opened at handler-install time: open(2) is not
/// async-signal-unsafe, but allocating the path string inside the
/// handler would be.
int g_crash_fd = -1;

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

void
onCrash(int sig)
{
    // Async-signal-safe by construction: crashDump only write(2)s.
    if (g_crash_fd >= 0) {
        FlightRecorder::global().crashDump(g_crash_fd);
        ::fsync(g_crash_fd);
    }
    // Restore and re-raise so the default action (core dump, exit
    // status) still happens.
    std::signal(sig, SIG_DFL);
    ::raise(sig);
}

/**
 * Install without SA_RESTART so a signal interrupts the blocking
 * stdin read and the server loop observes g_stop promptly.
 */
void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

/** Last-moments flight dump on abnormal termination. */
void
installCrashHandlers(const std::string &path)
{
    g_crash_fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (g_crash_fd < 0) {
        std::fprintf(stderr,
                     "amos_served: cannot open flight dump %s\n",
                     path.c_str());
        return;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onCrash;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGSEGV, &sa, nullptr);
    sigaction(SIGABRT, &sa, nullptr);
}

/** A bad command line: main() reports it and exits 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/// Every flag; all but --no-warm take a value.
const std::set<std::string> kFlags = {
    "workers",     "queue",        "cache-dir",   "mem-capacity",
    "no-warm",     "replay",       "trace-out",   "stats-period-ms",
    "slow-ms",     "slowlog-size", "flight-dump", "warm-start",
    "model-snapshot"};

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw UsageError("unexpected argument '" + arg + "'");
        std::string flag = arg.substr(2);
        if (!kFlags.count(flag))
            throw UsageError("unknown flag " + arg);
        if (flag == "no-warm")
            args[flag] = "1";
        else if (i + 1 < argc)
            args[flag] = argv[++i];
        else
            throw UsageError(arg + " needs a value");
    }
    return args;
}

/**
 * A flag's numeric value. A count takes up to 9 digits and nothing
 * else, so "-1" cannot wrap around to a huge size_t.
 */
double
numberFlag(const std::string &flag, const std::string &text, bool count)
{
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    auto digit = [](char c) { return c >= '0' && c <= '9'; };
    bool ok = count ? !text.empty() && text.size() < 10 &&
                          std::all_of(text.begin(), text.end(), digit)
                    : !text.empty() && *end == '\0' && std::isfinite(value);
    if (!ok)
        throw UsageError("--" + flag + " expects a " +
                         (count ? "non-negative integer" : "number") +
                         ", got '" + text + "'");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    serve::ServeOptions options;
    try {
        args = parseFlags(argc, argv);
        auto num = [&](const std::string &key, double fallback,
                       bool count = true) {
            auto it = args.find(key);
            return it == args.end() ? fallback
                                    : numberFlag(key, it->second, count);
        };
        options.workers = static_cast<std::size_t>(num("workers", 2));
        options.maxQueue = static_cast<std::size_t>(num("queue", 64));
        options.cache.memoryCapacity =
            static_cast<std::size_t>(num("mem-capacity", 256));
        options.statsLogPeriodMs = num("stats-period-ms", 0, false);
        options.slowMs = num("slow-ms", options.slowMs, false);
        options.slowlogSize =
            static_cast<std::size_t>(num("slowlog-size", 32));
        if (args.count("warm-start")) {
            auto mode = warmStartModeFromName(args["warm-start"]);
            if (!mode)
                throw UsageError("unknown --warm-start mode '" +
                                 args["warm-start"] +
                                 "' (off|neighbors|model|both)");
            options.warmStart = *mode;
        }
    } catch (const UsageError &e) {
        std::fprintf(stderr, "amos_served: %s\n", e.what());
        return 2;
    }
    auto str = [&](const std::string &key) {
        auto it = args.find(key);
        return it == args.end() ? std::string() : it->second;
    };
    options.cache.diskDir = str("cache-dir");
    options.warmOnStart = args.count("no-warm") == 0;
    options.modelSnapshotPath = str("model-snapshot");

    std::string flight_dump = str("flight-dump");
    if (!flight_dump.empty())
        installCrashHandlers(flight_dump);

    // --trace-out: size the rings before any thread registers one,
    // then record every span, request-scoped or not.
    FlightRecorder &recorder = FlightRecorder::global();
    std::string trace_path = str("trace-out");
    if (!trace_path.empty()) {
        recorder.setCapacityPerThread(kRecordAllCapacity);
        recorder.setRecordAll(true);
    }
    auto write_trace = [&] {
        if (trace_path.empty())
            return;
        std::ofstream out(trace_path);
        out << recorder.chromeJson().dump() << "\n";
        expect(out.good(), "trace: write to ", trace_path, " failed");
        inform("amos_served: wrote ", recorder.recordCount(),
               " trace spans to ", trace_path);
    };

    try {
        serve::CompileService service(options);
        if (args.count("replay")) {
            int failed = serve::replayTrace(service, str("replay"),
                                            std::cout);
            write_trace();
            return failed == 0 ? 0 : 1;
        }

        installSignalHandlers();
        inform("amos_served: ready (workers=", options.workers,
               ", queue=", options.maxQueue, ", cache=",
               options.cache.diskDir.empty()
                   ? "memory-only"
                   : options.cache.diskDir,
               ")");
        serve::serveStream(service, std::cin, std::cout, &g_stop);
        inform("amos_served: drained; ", service.stats().summary());
        write_trace();
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
