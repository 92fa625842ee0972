/**
 * @file
 * Tests for the compilation service: protocol round-trips, cache
 * tiering (memory hit, disk hit, restart warm-up), in-flight
 * coalescing under a concurrent-client hammer, deadline and
 * queue-full error paths, graceful drain, and the NDJSON server
 * loop. The hammer and drain tests run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/tuner.hh"
#include "explore/warm_start.hh"
#include "ops/operators.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/rng.hh"
#include "support/str_utils.hh"
#include "support/flight_recorder.hh"

namespace amos {
namespace serve {
namespace {

/** A cheap exploration: small gemm, two generations. */
CompileRequest
fastRequest()
{
    CompileRequest req;
    req.op = "gemm";
    req.dims = {{"m", 64}, {"n", 64}, {"k", 64}};
    req.hw = "v100";
    req.generations = 2;
    return req;
}

/** An exploration slow enough to still be running mid-test. */
CompileRequest
slowRequest(int variant = 0)
{
    CompileRequest req;
    req.op = "conv2d";
    req.dims = {{"batch", 8 + variant}, {"cin", 128},
                {"cout", 128},          {"size", 28},
                {"kernel", 3}};
    req.hw = "v100";
    req.generations = 120;
    return req;
}

/** Unique scratch directory for disk-tier tests. */
std::string
freshDiskDir(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("amos_serve_" + tag + "_" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(Protocol, RequestRoundTrip)
{
    CompileRequest req;
    req.id = "r42";
    req.op = "gemm";
    req.dims = {{"m", 128}, {"n", 64}, {"k", 32}};
    req.hw = "a100";
    req.generations = 5;
    req.seed = 7;
    req.deadlineMs = 250.0;
    auto round = CompileRequest::fromJson(
        Json::parse(req.toJson().dump()));
    EXPECT_EQ(round.id, "r42");
    EXPECT_EQ(round.op, "gemm");
    EXPECT_EQ(round.hw, "a100");
    EXPECT_EQ(round.dims, req.dims);
    EXPECT_EQ(round.generations, 5);
    EXPECT_EQ(round.seed, 7u);
    EXPECT_DOUBLE_EQ(round.deadlineMs, 250.0);
    EXPECT_EQ(round.cacheKey(), req.cacheKey());
}

TEST(Protocol, CacheKeySeparatesSearchKnobs)
{
    auto a = fastRequest();
    auto b = fastRequest();
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    b.generations = 3;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = fastRequest();
    b.seed = 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = fastRequest();
    b.hw = "a100";
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    // Deadlines and threads do not change the artifact.
    b = fastRequest();
    b.deadlineMs = 9.0;
    b.numThreads = 4;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
}

TEST(Protocol, DtypeRoundTripsAndSplitsCacheKey)
{
    auto plain = fastRequest();
    // Default dtype stays off the wire so old clients and servers
    // interoperate unchanged.
    EXPECT_EQ(plain.toJson().dump().find("dtype"),
              std::string::npos);

    auto quant = fastRequest();
    quant.dtype = "u8i8";
    auto round = CompileRequest::fromJson(
        Json::parse(quant.toJson().dump()));
    EXPECT_EQ(round.dtype, "u8i8");
    // A quantized compile is a different artifact.
    EXPECT_NE(round.cacheKey(), plain.cacheKey());
    EXPECT_EQ(round.cacheKey(), quant.cacheKey());

    auto bad = fastRequest();
    bad.dtype = "fp64";
    EXPECT_THROW(bad.cacheKey(), FatalError);
}

TEST(Protocol, RejectsMalformedRequests)
{
    EXPECT_THROW(CompileRequest::fromJson(Json::parse("[1,2]")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"type":"stats"})")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"op":"gemm","m":"wide"})")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"generations":0})")),
                 FatalError);
}

TEST(Protocol, ResultJsonCarriesTheReportFields)
{
    CompileResult result;
    result.tensorized = true;
    result.cycles = 123.0;
    result.milliseconds = 0.5;
    result.gflops = 9.0;
    result.mappingsExplored = 4;
    result.measurements = 17;
    result.mappingSignature = "[n | k | c]";
    auto json = compileResultToJson(result);
    EXPECT_TRUE(json.get("tensorized").asBool());
    EXPECT_DOUBLE_EQ(json.get("cycles").asNumber(), 123.0);
    EXPECT_EQ(json.get("mappings_explored").asInt(), 4);
    EXPECT_EQ(json.get("measurements").asInt(), 17);
    EXPECT_EQ(json.get("mapping_signature").asString(),
              "[n | k | c]");
    EXPECT_FALSE(json.has("pseudo_code"));
}

TEST(Service, BadRequestsAreTypedErrors)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    auto bad_op = fastRequest();
    bad_op.op = "fft";
    auto outcome = service.serve(bad_op);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);

    auto bad_hw = fastRequest();
    bad_hw.hw = "tpu";
    outcome = service.serve(bad_hw);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);
    EXPECT_EQ(service.stats().compiles, 0u);
}

TEST(Service, RepeatHitsMemoryTierWithoutExploring)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto miss = service.serve(fastRequest());
    ASSERT_TRUE(miss.ok);
    EXPECT_EQ(miss.servedBy, "compile");
    EXPECT_GT(miss.result.measurements, 0);

    auto hit = service.serve(fastRequest());
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.servedBy, "memory");
    // The replay performs zero tuner measurements and reproduces
    // the tuned latency bit-for-bit.
    EXPECT_EQ(hit.result.measurements, 0);
    EXPECT_DOUBLE_EQ(hit.result.cycles, miss.result.cycles);

    auto stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.latencyCount, 2u);
}

TEST(Service, HammerCoalescesIdenticalRequests)
{
    // N concurrent identical requests must trigger exactly ONE
    // exploration: whoever arrives while it runs joins it, whoever
    // arrives after it finished hits the memory tier.
    const int clients = 16;
    ServeOptions options;
    options.workers = 2;
    CompileService service(options);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<ServeOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_relaxed))
                std::this_thread::yield();
            outcomes[c] = service.serve(fastRequest());
        });
    while (ready.load() < clients)
        std::this_thread::yield();
    go.store(true);
    for (auto &t : threads)
        t.join();

    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok) << outcome.message;
        EXPECT_TRUE(outcome.servedBy == "compile" ||
                    outcome.servedBy == "coalesced" ||
                    outcome.servedBy == "memory")
            << outcome.servedBy;
        EXPECT_GT(outcome.result.cycles, 0.0);
    }
    auto stats = service.stats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.coalesced + stats.memoryHits,
              static_cast<std::uint64_t>(clients - 1));
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(clients));
}

TEST(Service, DeadlineExceededCancelsTheExploration)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto req = slowRequest();
    req.deadlineMs = 30.0;
    auto outcome = service.serve(req);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::DeadlineExceeded);
    EXPECT_GE(service.stats().deadlineExceeded, 1u);

    // The cancelled exploration must not have poisoned the cache:
    // a follow-up with no deadline compiles cleanly.
    auto retry = slowRequest();
    retry.generations = 1;
    auto ok = service.serve(retry);
    EXPECT_TRUE(ok.ok);
}

TEST(Service, QueueFullShedsLoad)
{
    ServeOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    CompileService service(options);

    auto first = service.submit(slowRequest(0));
    // Distinct workload while the only slot is occupied: shed.
    auto shed = service.submit(slowRequest(1));
    auto shed_outcome = service.wait(shed);
    EXPECT_FALSE(shed_outcome.ok);
    EXPECT_EQ(shed_outcome.error, ErrorCode::QueueFull);

    // An identical request coalesces instead of being shed.
    auto joined = service.submit(slowRequest(0));
    auto first_outcome = service.wait(first);
    auto joined_outcome = service.wait(joined);
    EXPECT_TRUE(first_outcome.ok);
    EXPECT_TRUE(joined_outcome.ok);
    EXPECT_EQ(joined_outcome.servedBy, "coalesced");

    auto stats = service.stats();
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.compiles, 1u);
}

TEST(Service, RestartWarmsFromDiskTier)
{
    auto dir = freshDiskDir("warm");
    auto req = fastRequest();

    {
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        CompileService service(options);
        auto cold = service.serve(req);
        ASSERT_TRUE(cold.ok);
        EXPECT_EQ(cold.servedBy, "compile");
        service.drain(); // clean shutdown persists the disk tier
    }

    {
        // A fresh process image: the disk tier warms the memory
        // tier, so the repeated request never re-explores.
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        CompileService service(options);
        EXPECT_GE(service.stats().warmedEntries, 1u);
        auto warm = service.serve(req);
        ASSERT_TRUE(warm.ok);
        EXPECT_EQ(warm.servedBy, "memory");
        EXPECT_EQ(service.stats().compiles, 0u);
    }

    {
        // Without warm-up the first hit is served by the disk tier
        // and promoted; the second comes from memory.
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        options.warmOnStart = false;
        CompileService service(options);
        auto disk = service.serve(req);
        ASSERT_TRUE(disk.ok);
        EXPECT_EQ(disk.servedBy, "disk");
        auto mem = service.serve(req);
        ASSERT_TRUE(mem.ok);
        EXPECT_EQ(mem.servedBy, "memory");
        auto stats = service.stats();
        EXPECT_EQ(stats.diskHits, 1u);
        EXPECT_EQ(stats.memoryHits, 1u);
        EXPECT_EQ(stats.compiles, 0u);
    }

    std::filesystem::remove_all(dir);
}

TEST(Service, DrainFinishesInflightAndRejectsNewWork)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto ticket = service.submit(fastRequest());
    service.drain(); // must block until the exploration resolves

    auto outcome = service.wait(ticket);
    EXPECT_TRUE(outcome.ok);

    auto late = service.serve(fastRequest());
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.error, ErrorCode::ShuttingDown);
}

TEST(TieredCacheTest, LruBoundHoldsAndDiskBacksEvictions)
{
    auto dir = freshDiskDir("lru");
    TieredCache::Options options;
    options.memoryCapacity = 2;
    options.diskDir = dir;
    TieredCache cache(options);

    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = 1.0;
    cache.put("a", entry);
    cache.put("b", entry);
    cache.put("c", entry); // evicts "a" from memory, not from disk
    EXPECT_EQ(cache.memorySize(), 2u);
    EXPECT_EQ(cache.diskSize(), 3u);

    TieredCache::Tier tier;
    auto got = cache.get("a", &tier);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tier, TieredCache::Tier::Disk);
    // The disk hit was promoted.
    got = cache.get("a", &tier);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tier, TieredCache::Tier::Memory);

    EXPECT_FALSE(cache.get("absent", &tier).has_value());
    EXPECT_EQ(tier, TieredCache::Tier::None);
    std::filesystem::remove_all(dir);
}

/** A distinguishable disk-tier entry. */
CacheEntry
diskEntry(double cycles)
{
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = cycles;
    return entry;
}

/** Path of a key's entry file: 16 hex digits of fnv1a(key). */
std::string
entryPath(const std::string &dir, const std::string &key)
{
    return dir + "/" + hexKey(fnv1a(key)) + ".json";
}

TieredCache::Options
diskOnly(const std::string &dir, std::size_t memoryCapacity = 256)
{
    TieredCache::Options options;
    options.diskDir = dir;
    options.memoryCapacity = memoryCapacity;
    return options;
}

/**
 * Servers sharing one --cache-dir put distinct keys from separate
 * processes. No put may erase another's: each key owns its file.
 */
TEST(TieredCacheTest, ForkedWritersLoseNoKeys)
{
    auto dir = freshDiskDir("forked");
    constexpr int kWriters = 4;
    constexpr int kKeys = 100;
    auto keyOf = [](int w, int i) {
        return "w" + std::to_string(w) + "/k" + std::to_string(i);
    };
    std::vector<pid_t> writers;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int failures = 0;
            try {
                TieredCache cache(diskOnly(dir));
                for (int i = 0; i < kKeys; ++i)
                    cache.put(keyOf(w, i), diskEntry(w * kKeys + i));
            } catch (const std::exception &) {
                failures = 1;
            }
            ::_exit(failures);
        }
        writers.push_back(pid);
    }
    for (pid_t pid : writers) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "writer " << pid;
    }

    TieredCache reader(diskOnly(dir));
    EXPECT_EQ(reader.diskSize(),
              static_cast<std::size_t>(kWriters * kKeys));
    int lost = 0;
    for (int w = 0; w < kWriters; ++w) {
        for (int i = 0; i < kKeys; ++i) {
            TieredCache::Tier tier;
            auto got = reader.get(keyOf(w, i), &tier);
            if (!got || tier != TieredCache::Tier::Disk ||
                got->cycles != w * kKeys + i)
                ++lost;
        }
    }
    EXPECT_EQ(lost, 0) << "keys lost to concurrent writers";
    std::filesystem::remove_all(dir);
}

/**
 * A torn entry file (a crash outside the rename protocol, a disk
 * fault) is a miss, never an exception or a wrong entry, and only
 * for its own key; the next put of that key repairs it.
 */
TEST(TieredCacheTest, TruncatedEntryFileIsAMissUntilRewritten)
{
    auto dir = freshDiskDir("truncated");
    {
        TieredCache cache(diskOnly(dir));
        cache.put("a", diskEntry(1.0));
        cache.put("b", diskEntry(2.0));
        cache.put("c", diskEntry(3.0));
    }
    const std::string path = entryPath(dir, "a");
    std::string whole;
    {
        std::ifstream in(path, std::ios::binary);
        whole.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(whole.empty());
    const std::string exact = diskEntry(1.0).toJson().dump();

    for (std::size_t len = 0; len <= whole.size(); ++len) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << whole.substr(0, len);
        }
        TieredCache cache(diskOnly(dir));
        std::optional<CacheEntry> got;
        ASSERT_NO_THROW(got = cache.get("a")) << "length " << len;
        if (got) {
            EXPECT_EQ(got->toJson().dump(), exact) << "length " << len;
        }
        auto b = cache.get("b");
        auto c = cache.get("c");
        ASSERT_TRUE(b && c) << "length " << len;
        EXPECT_DOUBLE_EQ(b->cycles, 2.0);
        EXPECT_DOUBLE_EQ(c->cycles, 3.0);
    }

    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << whole.substr(0, whole.size() / 2);
    }
    TieredCache(diskOnly(dir)).put("a", diskEntry(1.0));
    auto repaired = TieredCache(diskOnly(dir)).get("a");
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(repaired->toJson().dump(), exact);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, FileHoldingAnotherKeysEntryIsAMiss)
{
    auto dir = freshDiskDir("foreign");
    TieredCache(diskOnly(dir)).put("b", diskEntry(2.0));
    std::filesystem::copy_file(entryPath(dir, "b"), entryPath(dir, "a"));

    TieredCache cache(diskOnly(dir));
    TieredCache::Tier tier;
    EXPECT_FALSE(cache.get("a", &tier).has_value());
    EXPECT_EQ(tier, TieredCache::Tier::None);
    auto b = cache.get("b", &tier);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(tier, TieredCache::Tier::Disk);
    EXPECT_DOUBLE_EQ(b->cycles, 2.0);
    // warm() agrees with get(): b once, from its own file.
    EXPECT_EQ(TieredCache(diskOnly(dir)).warm(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, WarmLoadsAtMostMemoryCapacity)
{
    auto dir = freshDiskDir("warmcap");
    {
        TieredCache cache(diskOnly(dir, 0));
        for (int i = 0; i < 10; ++i)
            cache.put("k" + std::to_string(i), diskEntry(i));
    }
    auto keysOf = [](const TieredCache &cache) {
        std::vector<std::string> keys;
        for (const auto &[key, entry] : cache.snapshotMemory())
            keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    TieredCache first(diskOnly(dir, 4));
    TieredCache second(diskOnly(dir, 4));
    EXPECT_EQ(first.warm(), 4u);
    EXPECT_EQ(second.warm(), 4u);
    EXPECT_EQ(first.memorySize(), 4u);
    EXPECT_EQ(keysOf(first), keysOf(second));

    // Capacity 0 is unbounded: every entry loads.
    TieredCache all(diskOnly(dir, 0));
    EXPECT_EQ(all.warm(), 10u);
    EXPECT_EQ(all.memorySize(), 10u);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, DiskSizeCountsOnlyEntryFiles)
{
    auto dir = freshDiskDir("entryfiles");
    TieredCache cache(diskOnly(dir));
    cache.put("a", diskEntry(1.0));
    cache.put("b", diskEntry(2.0));
    // Leftovers that are not entries: a writer's temp file and a
    // shard file of the old sharded layout.
    std::ofstream(entryPath(dir, "c") + ".1234.0.tmp") << "{}";
    TuningCache shard;
    shard.insert("c", diskEntry(3.0));
    shard.insert("d", diskEntry(4.0));
    shard.saveFile(dir + "/shard-0.json");

    EXPECT_EQ(cache.diskSize(), 2u);
    TieredCache fresh(diskOnly(dir));
    EXPECT_EQ(fresh.warm(), 2u);
    EXPECT_FALSE(fresh.get("c").has_value());
    std::filesystem::remove_all(dir);
}

TEST(Server, StreamServesAndCoalescesOverNdjson)
{
    ServeOptions options;
    options.workers = 2;
    CompileService service(options);

    std::string gemm =
        R"("op":"gemm","m":64,"n":64,"k":64,"hw":"v100",)"
        R"("generations":2)";
    std::istringstream in(
        "{\"type\":\"compile\",\"id\":\"a\"," + gemm + "}\n" +
        "{\"type\":\"compile\",\"id\":\"b\"," + gemm + "}\n" +
        "not json\n"
        "{\"type\":\"stats\",\"id\":\"s\"}\n"
        "{\"type\":\"shutdown\"}\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 1); // the "not json" line

    // Responses may interleave: index them by id.
    std::map<std::string, Json> by_id;
    Json stats_line;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("stats"))
            stats_line = json;
        else if (json.has("id"))
            by_id[json.get("id").asString()] = json;
        else
            EXPECT_FALSE(json.get("ok").asBool());
    }
    ASSERT_TRUE(by_id.count("a"));
    ASSERT_TRUE(by_id.count("b"));
    EXPECT_TRUE(by_id["a"].get("ok").asBool());
    EXPECT_TRUE(by_id["b"].get("ok").asBool());
    // One of the two identical requests compiled; the other was
    // coalesced onto it or found it in the memory tier.
    std::string sa = by_id["a"].get("served_by").asString();
    std::string sb = by_id["b"].get("served_by").asString();
    EXPECT_TRUE((sa == "compile") != (sb == "compile"))
        << sa << " / " << sb;
    EXPECT_EQ(service.stats().compiles, 1u);
    ASSERT_FALSE(stats_line.isNull());
    EXPECT_GE(stats_line.get("stats")
                  .get("requests")
                  .asInt(),
              2);
}

TEST(Server, ReplayTraceIsDeterministic)
{
    auto dir = freshDiskDir("replay");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        std::string gemm =
            R"({"type":"compile","op":"gemm","m":64,"n":64,)"
            R"("k":64,"hw":"v100","generations":2,"id":)";
        trace << "# cold, then repeated (must hit), then distinct\n";
        trace << gemm << "\"t1\"}\n";
        trace << gemm << "\"t2\"}\n";
        trace << R"({"type":"compile","op":"gemv","m":256,)"
              << R"("k":256,"hw":"vgemv","generations":2,)"
              << R"("id":"t3"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    std::vector<Json> lines;
    std::istringstream parsed(out.str());
    std::string line;
    while (std::getline(parsed, line))
        lines.push_back(Json::parse(line));
    ASSERT_EQ(lines.size(), 4u); // 3 responses + final stats
    EXPECT_EQ(lines[0].get("served_by").asString(), "compile");
    EXPECT_EQ(lines[1].get("served_by").asString(), "memory");
    EXPECT_EQ(lines[2].get("served_by").asString(), "compile");
    EXPECT_EQ(lines[3].get("stats").get("memory_hits").asInt(), 1);
    std::filesystem::remove_all(dir);
}

TEST(Protocol, TraceIdRoundTripsOutsideTheCacheKey)
{
    auto req = fastRequest();
    auto untraced_key = req.cacheKey();
    req.id = "r1";
    req.traceId = "tr-99";
    auto round = CompileRequest::fromJson(
        Json::parse(req.toJson().dump()));
    EXPECT_EQ(round.traceId, "tr-99");
    // Tracing is observability, not semantics: it must never split
    // the cache key.
    EXPECT_EQ(round.cacheKey(), untraced_key);
}

TEST(Service, TraceIdAttachesSpanTreesToResponses)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto req = fastRequest();
    req.id = "c1";
    req.traceId = "trace-cold";
    auto cold = service.serve(req);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.servedBy, "compile");
    ASSERT_FALSE(cold.trace.isNull());
    EXPECT_EQ(cold.trace.get("trace_id").asString(), "trace-cold");
    const auto &spans = cold.trace.get("spans");
    ASSERT_GT(spans.size(), 0u);
    // A cold compile's tree is rooted at the compile span, with the
    // exploration pipeline nested underneath.
    EXPECT_EQ(spans.at(0).get("name").asString(), "serve.compile");
    std::string dumped = cold.trace.dump();
    EXPECT_NE(dumped.find("explore.tune"), std::string::npos);

    req.traceId = "trace-warm";
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "memory");
    ASSERT_FALSE(warm.trace.isNull());
    EXPECT_EQ(warm.trace.get("trace_id").asString(), "trace-warm");
    EXPECT_EQ(warm.trace.get("spans").at(0).get("name").asString(),
              "serve.cache_hit");

    // Untraced requests pay nothing and carry no tree.
    req.traceId.clear();
    auto plain = service.serve(req);
    ASSERT_TRUE(plain.ok);
    EXPECT_TRUE(plain.trace.isNull());
}

TEST(Service, StatsExposeUnifiedMetrics)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    ASSERT_TRUE(service.serve(fastRequest()).ok);
    ASSERT_TRUE(service.serve(fastRequest()).ok);

    auto stats = service.stats();
    EXPECT_EQ(stats.metrics.at("serve.requests"), 2u);
    EXPECT_EQ(stats.metrics.at("serve.compiles"), 1u);
    EXPECT_EQ(stats.metrics.at("serve.memory_hits"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.misses"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.memory_hits"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.puts"), 1u);
    // The legacy counters and the unified registry must agree.
    EXPECT_EQ(stats.requests, stats.metrics.at("serve.requests"));
    EXPECT_EQ(stats.memoryHits,
              stats.metrics.at("serve.memory_hits"));

    auto json = stats.toJson();
    ASSERT_TRUE(json.has("metrics"));
    EXPECT_EQ(json.get("metrics").get("serve.requests").asInt(), 2);
    EXPECT_EQ(json.get("metrics").get("serve.compiles").asInt(), 1);
}

TEST(Server, OversizedLinesAreShedWithTypedErrors)
{
    // A line past the 1 MiB admission bound is answered with a typed
    // bad_request *without being parsed*; the stream then keeps
    // serving.
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    std::string huge = R"({"type":"compile","op":"gemm","id":")" +
                       std::string((1 << 20), 'x') + "\"}";
    std::istringstream in(huge + "\n" +
                          "{\"type\":\"stats\",\"id\":\"s\"}\n"
                          "{\"type\":\"shutdown\"}\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 1);

    bool saw_reject = false, saw_stats = false;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("stats")) {
            saw_stats = true;
        } else {
            EXPECT_FALSE(json.get("ok").asBool());
            EXPECT_EQ(json.get("error").get("code").asString(),
                      "bad_request");
            EXPECT_NE(json.get("error")
                          .get("message")
                          .asString()
                          .find("exceeds"),
                      std::string::npos);
            saw_reject = true;
        }
    }
    EXPECT_TRUE(saw_reject);
    EXPECT_TRUE(saw_stats);
    EXPECT_EQ(service.stats().requests, 0u);
}

TEST(Server, MalformedInputNeverCrashesTheStream)
{
    // NDJSON robustness fuzz: random garbage, truncated requests,
    // well-formed JSON of the wrong shape, and unknown types must
    // each produce exactly one typed error response — never a crash,
    // never a dropped stream.
    const std::string valid =
        R"({"type":"compile","op":"gemm","m":64,"n":64,"k":64,)"
        R"("hw":"v100","generations":2,"id":"ok"})";

    std::vector<std::string> bad;
    // Every proper prefix of a JSON object is invalid JSON.
    for (std::size_t n = 1; n < valid.size(); n += 9)
        bad.push_back(valid.substr(0, n));
    // Deterministic printable garbage (newline-free).
    Rng rng(20260806);
    const std::string charset =
        "{}[]\",:abcdefghijklmnopqrstuvwxyz0123456789 .+-\\/";
    for (int i = 0; i < 32; ++i) {
        auto len =
            static_cast<std::size_t>(rng.uniformInt(1, 80));
        std::string junk;
        for (std::size_t j = 0; j < len; ++j)
            junk += charset[static_cast<std::size_t>(rng.uniformInt(
                0,
                static_cast<std::int64_t>(charset.size()) - 1))];
        bad.push_back(junk);
    }
    // Well-formed JSON, wrong shape or content.
    bad.push_back("[1,2,3]");
    bad.push_back("42");
    bad.push_back("\"compile\"");
    bad.push_back(R"({"type":"warp_speed"})");
    bad.push_back(R"({"type":"compile","op":"gemm","m":"wide"})");
    bad.push_back(R"({"type":"compile","generations":0})");

    std::string stream;
    for (const auto &line : bad)
        stream += line + "\n";
    stream += "{\"type\":\"stats\",\"id\":\"s\"}\n";
    stream += "{\"type\":\"shutdown\"}\n";

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::istringstream in(stream);
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, static_cast<int>(bad.size()));

    std::size_t rejects = 0, stats_lines = 0;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line); // responses are valid JSON
        if (json.has("stats")) {
            ++stats_lines;
            continue;
        }
        EXPECT_FALSE(json.get("ok").asBool());
        EXPECT_EQ(json.get("error").get("code").asString(),
                  "bad_request");
        ++rejects;
    }
    EXPECT_EQ(rejects, bad.size());
    EXPECT_EQ(stats_lines, 1u);
    // Nothing malformed ever reached the service.
    EXPECT_EQ(service.stats().requests, 0u);
}

TEST(Server, ReplayTraceRejectsOversizedAndMalformedLines)
{
    auto dir = freshDiskDir("replay_fuzz");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << "# comment survives\n";
        trace << std::string((1 << 20) + 7, 'z') << "\n";
        trace << "still not json\n";
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"g"})"
              << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 2); // oversized + malformed; the compile ran
    EXPECT_EQ(service.stats().compiles, 1u);
    std::filesystem::remove_all(dir);
}

/** Response lines of `out`, parsed. */
std::vector<Json>
responseLines(const std::string &out)
{
    std::vector<Json> lines;
    std::istringstream in(out);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(Json::parse(line));
    return lines;
}

/** `lines` through serveStream (ending in "shutdown"). */
std::vector<Json>
streamLines(CompileService &service, const std::vector<std::string> &lines)
{
    std::string text;
    for (const auto &line : lines)
        text += line + "\n";
    std::istringstream in(text + "{\"type\":\"shutdown\"}\n");
    std::ostringstream out;
    serveStream(service, in, out);
    return responseLines(out.str());
}

/** `lines` through replayTrace, final stats line dropped. */
std::vector<Json>
replayLines(CompileService &service, const std::string &dir,
            const std::vector<std::string> &lines, int *failed)
{
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        for (const auto &line : lines)
            trace << line << "\n";
    }
    std::ostringstream out;
    *failed = replayTrace(service, trace_path, out);
    auto responses = responseLines(out.str());
    EXPECT_TRUE(responses.back().has("stats"));
    responses.pop_back();
    return responses;
}

TEST(Server, MalformedCompileLineKeepsItsIdInBothLoops)
{
    // Well-formed JSON whose compile fields are bad: the id was
    // readable, so the bad_request echoes it whichever loop read it.
    const std::string bad =
        R"({"type":"compile","id":"x","op":"gemm","m":64,"n":64,)"
        R"("k":64,"hw":"v100","generations":0})";
    auto dir = freshDiskDir("malformed_id");
    ServeOptions options;
    options.workers = 1;

    CompileService streamed(options);
    auto live = streamLines(streamed, {bad});
    CompileService replayed(options);
    int failed = 0;
    auto replay = replayLines(replayed, dir, {bad}, &failed);
    EXPECT_EQ(failed, 1);

    for (const auto *lines : {&live, &replay}) {
        ASSERT_EQ(lines->size(), 1u);
        const Json &response = lines->front();
        EXPECT_EQ(response.get("id").asString(), "x");
        EXPECT_FALSE(response.get("ok").asBool());
        EXPECT_EQ(response.get("error").get("code").asString(),
                  "bad_request");
    }
    EXPECT_EQ(live.front().dump(), replay.front().dump());
    std::filesystem::remove_all(dir);
}

TEST(Server, BothLoopsAnswerEveryNonCompileLineAlike)
{
    // Everything but a compile is answered by the shared dispatcher
    // on the reading thread, so both loops write the same bytes.
    const std::vector<std::string> lines = {
        "not json",
        "[1,2]",
        R"({"type":7,"id":"t"})",
        R"({"type":"warp_speed","id":"u"})",
        R"({"id":7,"op":"gemm","m":"wide"})",
        R"({"type":"compile","id":"w","warm_start":"banana"})",
        R"({"type":"slowlog","id":"l","limit":"many"})",
        R"({"type":"flightdump","id":"f"})",
        R"({"type":"healthz","id":{"n":1}})",
    };
    auto dir = freshDiskDir("dispatch_alike");
    ServeOptions options;
    options.workers = 1;
    CompileService streamed(options);
    auto live = streamLines(streamed, lines);
    CompileService replayed(options);
    int failed = 0;
    auto replay = replayLines(replayed, dir, lines, &failed);

    ASSERT_EQ(live.size(), lines.size());
    ASSERT_EQ(replay.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(live[i].dump(), replay[i].dump()) << lines[i];
    // A numeric or object id echoes as its compact JSON text.
    EXPECT_EQ(live[4].get("id").asString(), "7");
    EXPECT_EQ(live[8].get("id").asString(), "{\"n\":1}");
    EXPECT_EQ(live[3].get("error").get("message").asString(),
              "unknown request type 'warp_speed'");
    // A bad control-verb parameter is a bad_request, not a crash.
    EXPECT_EQ(live[6].get("id").asString(), "l");
    EXPECT_EQ(live[6].get("error").get("code").asString(),
              "bad_request");
    // The verbs' own structured answers are not failures; every
    // other line is one.
    EXPECT_EQ(failed, 7);
    EXPECT_EQ(streamed.stats().requests, 0u);
    EXPECT_EQ(replayed.stats().requests, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Server, ShutdownStopsTheStreamButNotTheReplay)
{
    const std::string compile =
        R"({"type":"compile","id":"c","op":"gemm","m":64,"n":64,)"
        R"("k":64,"hw":"v100","generations":2})";
    auto dir = freshDiskDir("shutdown_policy");
    ServeOptions options;
    options.workers = 1;

    CompileService streamed(options);
    auto live = streamLines(streamed, {R"({"type":"shutdown"})", compile});
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(streamed.stats().requests, 0u);

    CompileService replayed(options);
    int failed = 0;
    auto replay = replayLines(
        replayed, dir, {"# comment", R"({"type":"shutdown"})", compile},
        &failed);
    EXPECT_EQ(failed, 0);
    ASSERT_EQ(replay.size(), 1u);
    EXPECT_EQ(replay[0].get("id").asString(), "c");
    EXPECT_TRUE(replay[0].get("ok").asBool());
    std::filesystem::remove_all(dir);
}

TEST(Protocol, CacheKeyIsTheSharedKeyWithNoServerDefaults)
{
    for (const char *mode : {"", "off", "neighbors", "model", "both"}) {
        auto req = fastRequest();
        req.warmStart = mode;
        EXPECT_EQ(req.cacheKey(),
                  serveCacheKey(computationFromRequest(req),
                                hardwareFromRequest(req), req,
                                req.warmMode(), nullptr))
            << mode;
    }
    auto warm = fastRequest();
    warm.warmStart = "neighbors";
    EXPECT_EQ(warm.warmMode(WarmStartMode::Model),
              WarmStartMode::Neighbors);
    EXPECT_EQ(fastRequest().warmMode(WarmStartMode::Model),
              WarmStartMode::Model);
    warm.warmStart = "banana";
    EXPECT_THROW(warm.warmMode(), FatalError);
}

TEST(Protocol, ExplainFlagRoundTripsOutsideTheCacheKey)
{
    auto req = fastRequest();
    auto plain_key = req.cacheKey();
    req.explain = true;

    // Explain is pure output shaping: two requests that differ only
    // in it must land on the same cache entry (and coalesce).
    EXPECT_EQ(req.cacheKey(), plain_key);

    auto json = req.toJson();
    EXPECT_TRUE(json.get("explain").asBool());
    auto round =
        CompileRequest::fromJson(Json::parse(json.dump()));
    EXPECT_TRUE(round.explain);
    EXPECT_EQ(round.cacheKey(), plain_key);

    // Absent by default, so old clients see unchanged wire output.
    EXPECT_FALSE(fastRequest().toJson().has("explain"));
}

TEST(Service, ExplainShapesBothCompileAndCacheHitResponses)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto req = fastRequest();
    req.explain = true;
    auto compiled = service.serve(req);
    ASSERT_TRUE(compiled.ok);
    ASSERT_FALSE(compiled.explain.isNull());
    auto verdict = compiled.explain.get("winner")
                       .get("attribution")
                       .get("bottleneck");
    EXPECT_FALSE(verdict.asString().empty());
    EXPECT_TRUE(compiled.toJson("c").has("explain"));

    // A plain request on the warm entry stays lean...
    auto lean = service.serve(fastRequest());
    ASSERT_TRUE(lean.ok);
    EXPECT_TRUE(lean.explain.isNull());
    EXPECT_FALSE(lean.toJson("l").has("explain"));

    // ...while the memory-tier replay can still explain itself.
    auto hit = service.serve(req);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.servedBy, "memory");
    ASSERT_FALSE(hit.explain.isNull());
    EXPECT_EQ(hit.explain.get("winner")
                  .get("attribution")
                  .get("bottleneck")
                  .asString(),
              verdict.asString());
}

TEST(Server, MetricsVerbSpeaksPrometheusExposition)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    std::istringstream in(
        R"({"type":"compile","op":"gemm","m":64,"n":64,"k":64,)"
        R"("hw":"v100","generations":2,"id":"c"})"
        "\n"
        R"({"type":"metrics","id":"m"})"
        "\n"
        R"({"type":"shutdown"})"
        "\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 0);

    Json metrics;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id") && json.get("id").asString() == "m")
            metrics = json;
    }
    ASSERT_FALSE(metrics.isNull());
    EXPECT_TRUE(metrics.get("ok").asBool());
    EXPECT_EQ(metrics.get("content_type").asString(),
              "text/plain; version=0.0.4");
    auto body = metrics.get("body").asString();
    EXPECT_NE(body.find("# TYPE amos_serve_requests_total counter"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("amos_serve_requests_total 1"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("amos_serve_latency_ms_count"),
              std::string::npos)
        << body;
}

TEST(Server, HealthzTracksDrainState)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto healthz = [&service] {
        std::istringstream in("{\"type\":\"healthz\"}\n"
                              "{\"type\":\"shutdown\"}\n");
        std::ostringstream out;
        EXPECT_EQ(serveStream(service, in, out), 0);
        std::istringstream lines(out.str());
        std::string line;
        std::getline(lines, line);
        return Json::parse(line);
    };

    // In-band the service is live; serveStream drains it when the
    // stream closes, which the next scrape must report.
    auto serving = healthz();
    EXPECT_TRUE(serving.get("ok").asBool());
    EXPECT_EQ(serving.get("status").asString(), "serving");
    EXPECT_FALSE(serving.get("draining").asBool());

    EXPECT_TRUE(service.draining());
    auto drained = healthz();
    EXPECT_EQ(drained.get("status").asString(), "draining");
    EXPECT_TRUE(drained.get("draining").asBool());
}

TEST(Server, ReplayTraceAnswersControlVerbs)
{
    auto dir = freshDiskDir("replay_verbs");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n";
        trace << R"({"type":"healthz","id":"h"})" << "\n";
        trace << R"({"type":"metrics","id":"m"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }
    ASSERT_TRUE(by_id.count("c"));
    ASSERT_TRUE(by_id.count("h"));
    ASSERT_TRUE(by_id.count("m"));
    EXPECT_EQ(by_id["h"].get("status").asString(), "serving");
    EXPECT_NE(by_id["m"].get("body").asString().find(
                  "amos_serve_compiles_total"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Service, SlowRequestYieldsPostmortemWithoutTraceId)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001; // everything is "slow"
    CompileService service(options);

    // Nobody passed a trace_id and record-all is off: the request's
    // flight scope alone must reconstruct it.
    ASSERT_FALSE(FlightRecorder::global().recordingAll());
    auto outcome = service.serve(fastRequest());
    ASSERT_TRUE(outcome.ok);
    EXPECT_GE(outcome.queueWaitMs, 0.0);

    auto stats = service.stats();
    EXPECT_GE(stats.slowRequests, 1u);
    EXPECT_GE(stats.slowlogRecorded, 1u);

    Json slowlog = service.slowlogJson();
    ASSERT_GE(slowlog.get("count").asInt(), 1);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "slow");
    EXPECT_EQ(pm.get("served_by").asString(), "compile");
    EXPECT_GT(pm.get("latency_ms").asNumber(), 0.0);
    EXPECT_GE(pm.get("queue_wait_ms").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(pm.get("slow_threshold_ms").asNumber(), 0.001);

    // What the request walked into at admission.
    const Json &admission = pm.get("admission");
    EXPECT_TRUE(admission.has("inflight"));
    EXPECT_TRUE(admission.has("queue_depth"));

    // What the service did while it was in flight.
    const Json &delta = pm.get("metrics_delta");
    EXPECT_GE(delta.get("serve.compiles").asInt(), 1);

    // The full span tree, straight from the flight rings: rooted at
    // serve.compile with the exploration nested inside.
    const Json &trace = pm.get("trace");
    EXPECT_GT(trace.get("flight_seq").asInt(), 0);
    const Json &spans = trace.get("spans");
    ASSERT_GE(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).get("name").asString(), "serve.compile");
    const Json &children = spans.at(0).get("children");
    ASSERT_GE(children.size(), 1u);
    bool tuned = false;
    for (std::size_t i = 0; i < children.size(); ++i)
        tuned |= children.at(i).get("name").asString() ==
                 "explore.tune";
    EXPECT_TRUE(tuned);
}

/** Every span named `name` in a span tree, depth first. */
void
collectSpans(const Json &spans, const std::string &name,
             std::vector<Json> &out)
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Json &span = spans.at(i);
        if (span.get("name").asString() == name)
            out.push_back(span);
        if (span.has("children"))
            collectSpans(span.get("children"), name, out);
    }
}

/** True when no arg value in `args` carries the cut marker. */
bool
argsWhole(const Json &args)
{
    for (const auto &[key, value] : args.entries()) {
        const std::string &text = value.asString();
        if (text.size() >= 3 &&
            text.compare(text.size() - 3, 3, "...") == 0)
            return false;
    }
    return true;
}

TEST(Service, TracedSlowRequestRendersOneSpanTree)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001; // everything is "slow"
    CompileService service(options);

    // One request that is both traced and slow: its response trace
    // and its postmortem are views over the same harvested records.
    auto req = fastRequest();
    req.traceId = "one-tree";
    auto cold = service.serve(req);
    ASSERT_TRUE(cold.ok);
    ASSERT_FALSE(cold.trace.isNull());
    EXPECT_EQ(cold.trace.get("trace_id").asString(), "one-tree");
    Json slowlog = service.slowlogJson(1);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_GT(pm.get("flight_seq").asInt(), 0);
    const Json &spans = cold.trace.get("spans");
    EXPECT_EQ(spans.dump(), pm.get("trace").get("spans").dump());
    ASSERT_GE(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).get("name").asString(), "serve.compile");

    // Args are objects, and the ones the served path relies on fit
    // the inline budget whole.
    const Json &compile_args = spans.at(0).get("args");
    EXPECT_EQ(compile_args.get("key").asString(), req.cacheKey());
    EXPECT_GE(std::stod(compile_args.get("queue_wait_ms").asString()),
              0.0);
    EXPECT_TRUE(argsWhole(compile_args));
    std::vector<Json> enumerations;
    collectSpans(spans, "mapping.enumerate", enumerations);
    ASSERT_GE(enumerations.size(), 1u);
    for (const auto &span : enumerations) {
        const Json &args = span.get("args");
        EXPECT_TRUE(args.has("computation"));
        EXPECT_TRUE(args.has("intrinsic"));
        EXPECT_TRUE(args.has("candidates"));
        EXPECT_TRUE(argsWhole(args)) << span.dump();
    }

    // A traced cache hit renders the same way.
    req.traceId = "one-tree-hit";
    auto hit = service.serve(req);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.servedBy, "memory");
    Json hit_slowlog = service.slowlogJson(1);
    const Json &hit_pm = hit_slowlog.get("postmortems").at(0);
    EXPECT_EQ(hit.trace.get("spans").dump(),
              hit_pm.get("trace").get("spans").dump());
    EXPECT_EQ(hit.trace.get("spans").at(0).get("name").asString(),
              "serve.cache_hit");
}

/**
 * cache.* counts tier lookups, serve.* counts responses by tier: a
 * disk entry that no longer replays (its intrinsic is unknown) is a
 * cache.disk_hits lookup but the response is a fresh compile.
 */
TEST(Service, StaleDiskEntryIsACacheHitButNotAServedHit)
{
    auto dir = freshDiskDir("stale");
    auto req = fastRequest();
    {
        TieredCache::Options cache_options;
        cache_options.diskDir = dir;
        TieredCache cache(cache_options);
        CacheEntry entry;
        entry.intrinsicName = "no_such_intrinsic";
        entry.mapping.groups = {{0}, {1}, {2}};
        entry.cycles = 1.0;
        cache.put(req.cacheKey(), entry);
    }

    ServeOptions options;
    options.workers = 1;
    options.cache.diskDir = dir;
    options.warmOnStart = false;
    CompileService service(options);
    auto outcome = service.serve(req);
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.servedBy, "compile");

    auto stats = service.stats();
    EXPECT_EQ(stats.metrics.at("cache.disk_hits"), 1u);
    EXPECT_EQ(stats.metrics.at("serve.disk_hits"), 0u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.compiles, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Service, ShedRequestsAreRetainedWithAdmissionState)
{
    ServeOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    CompileService service(options);

    auto first = service.submit(slowRequest(0));
    auto shed = service.submit(slowRequest(1));
    auto shed_outcome = service.wait(shed);
    ASSERT_FALSE(shed_outcome.ok);
    ASSERT_EQ(shed_outcome.error, ErrorCode::QueueFull);

    Json slowlog = service.slowlogJson();
    ASSERT_GE(slowlog.get("count").asInt(), 1);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "shed");
    EXPECT_EQ(pm.get("error").get("code").asString(), "queue_full");
    // The shed request saw the saturated admission state.
    EXPECT_GE(pm.get("admission").get("inflight").asNumber(), 1.0);

    EXPECT_TRUE(service.wait(first).ok);
}

TEST(Service, SlowlogIsBoundedMostRecentFirst)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001;
    options.slowlogSize = 2;
    CompileService service(options);

    for (int i = 0; i < 4; ++i) {
        auto req = fastRequest();
        req.dims["m"] = 64 + 16 * i; // distinct: no cache hits
        ASSERT_TRUE(service.serve(req).ok);
    }
    Json slowlog = service.slowlogJson();
    EXPECT_EQ(slowlog.get("count").asInt(), 4);
    EXPECT_EQ(slowlog.get("postmortems").size(), 2u);
    // limit=1 trims further, keeping the most recent entry.
    EXPECT_EQ(service.slowlogJson(1).get("postmortems").size(), 1u);
    EXPECT_EQ(service.stats().slowlogRecorded, 4u);
}

TEST(Service, StatsCarryWindowedSloFields)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 1e6; // nothing is slow; window still fills
    CompileService service(options);
    ASSERT_TRUE(service.serve(fastRequest()).ok);

    auto stats = service.stats();
    EXPECT_GE(stats.windowCount, 1u);
    EXPECT_GT(stats.windowP99Ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.slowThresholdMs, 1e6);
    EXPECT_GE(stats.windowP99Ms, stats.windowP50Ms);
    EXPECT_DOUBLE_EQ(stats.sloBurnRate, 0.0);

    Json doc = stats.toJson();
    EXPECT_TRUE(doc.has("window"));
    EXPECT_TRUE(doc.has("slo"));

    auto text = service.prometheusText();
    EXPECT_NE(text.find("amos_serve_queue_wait_ms_count"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("# TYPE amos_serve_latency_ms_window gauge"),
        std::string::npos)
        << text;
    EXPECT_NE(
        text.find("amos_serve_latency_ms_window{quantile=\"0.99\"}"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("amos_serve_window_p99_ms"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("amos_serve_slo_burn_rate"),
              std::string::npos)
        << text;
}

TEST(Server, SlowlogVerbReturnsPostmortemsOverNdjson)
{
    // replayTrace serves synchronously, so the slowlog line is
    // guaranteed to observe the finished compile (over serveStream
    // a control verb can overtake an in-flight request).
    auto dir = freshDiskDir("slowlogverb");
    auto trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n"
              << R"({"type":"slowlog","id":"s","limit":1})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    Json reply;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id") && json.get("id").asString() == "s")
            reply = json;
    }
    ASSERT_FALSE(reply.isNull());
    EXPECT_TRUE(reply.get("ok").asBool());
    const Json &slowlog = reply.get("slowlog");
    EXPECT_GE(slowlog.get("count").asInt(), 1);
    ASSERT_EQ(slowlog.get("postmortems").size(), 1u);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "slow");
    EXPECT_TRUE(pm.get("trace").has("spans"));
    std::filesystem::remove_all(dir);
}

TEST(Server, FlightdumpVerbWritesTheRings)
{
    auto dir = freshDiskDir("flightdump");
    auto path = dir + "/flight.json";
    auto trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n"
              << R"({"type":"flightdump","id":"f","path":")" << path
              << R"("})" << "\n"
              << R"({"type":"flightdump","id":"bad"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    replayTrace(service, trace_path, out);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }
    ASSERT_TRUE(by_id.count("f"));
    EXPECT_TRUE(by_id["f"].get("ok").asBool());
    const Json &dump = by_id["f"].get("flightdump");
    EXPECT_EQ(dump.get("path").asString(), path);
    EXPECT_GE(dump.get("records").asInt(), 1);

    std::ifstream file(path);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    Json parsed = Json::parse(text);
    EXPECT_GE(parsed.get("records").size(), 1u);

    // Missing "path" is a typed protocol error, not a crash.
    ASSERT_TRUE(by_id.count("bad"));
    EXPECT_FALSE(by_id["bad"].get("ok").asBool());

    std::filesystem::remove_all(dir);
}

TEST(Protocol, WarmStartRoundTripsAndJoinsTheCacheKey)
{
    auto plain = fastRequest();
    auto warm = fastRequest();
    warm.warmStart = "neighbors";

    // Warm-started searches explore a different candidate sequence,
    // so they must not collide with cold entries...
    EXPECT_NE(warm.cacheKey(), plain.cacheKey());
    auto both = fastRequest();
    both.warmStart = "both";
    EXPECT_NE(both.cacheKey(), warm.cacheKey());

    // ...but an explicit "off" IS the cold search: historical keys
    // (and persisted caches) stay valid.
    auto off = fastRequest();
    off.warmStart = "off";
    EXPECT_EQ(off.cacheKey(), plain.cacheKey());

    auto json = warm.toJson();
    EXPECT_EQ(json.get("warm_start").asString(), "neighbors");
    auto round = CompileRequest::fromJson(Json::parse(json.dump()));
    EXPECT_EQ(round.warmStart, "neighbors");
    EXPECT_EQ(round.cacheKey(), warm.cacheKey());

    // Absent by default, so old clients see unchanged wire output.
    EXPECT_FALSE(fastRequest().toJson().has("warm_start"));
}

TEST(Protocol, RejectsUnknownWarmStartModes)
{
    auto json = fastRequest().toJson();
    json.set("warm_start", Json("banana"));
    EXPECT_THROW(CompileRequest::fromJson(json), std::exception);
}

TEST(Service, WarmStartSeedsFromTheMemoryTierAndExportsMetrics)
{
    ServeOptions options;
    options.workers = 1;
    options.warmStart = WarmStartMode::Neighbors;
    CompileService service(options);

    // First shape: empty cache, nothing to seed from.
    auto cold = service.serve(fastRequest());
    ASSERT_TRUE(cold.ok);

    // Same family, new dims: the cached winner becomes a donor.
    auto req = fastRequest();
    req.dims = {{"m", 96}, {"n", 64}, {"k", 64}};
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "compile");

    auto stats = service.stats();
    EXPECT_GE(stats.metrics.at("explore.warmstart_neighbors"), 1u);
    EXPECT_GE(stats.metrics.at("explore.warmstart_seeded"), 1u);
    EXPECT_EQ(stats.metrics.at("explore.model_reloads"), 0u);

    auto body = service.prometheusText();
    EXPECT_NE(
        body.find("amos_explore_warmstart_seeded_total"),
        std::string::npos)
        << body;
    EXPECT_NE(
        body.find("amos_explore_warmstart_neighbors_total"),
        std::string::npos)
        << body;
}

TEST(Service, WarmStartModeSeparatesCacheEntries)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto cold = service.serve(fastRequest());
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.servedBy, "compile");

    // The same shape with per-request warm-start lands on its own
    // entry (first time a compile, then a memory hit).
    auto req = fastRequest();
    req.warmStart = "neighbors";
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "compile");
    auto again = service.serve(req);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.servedBy, "memory");

    // An invalid per-request mode is a typed error, not a crash.
    auto bad = fastRequest();
    bad.warmStart = "banana";
    auto outcome = service.serve(bad);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);
}

/** Train a small snapshot off one exploration's measurements. */
std::string
writeSnapshot(const std::string &dir)
{
    LearnedModel model;
    TuneOptions options;
    options.generations = 3;
    options.numThreads = 1;
    options.sampleSink = &model;
    tune(ops::makeGemm(64, 64, 64), hw::v100(), options);
    model.fit();
    EXPECT_TRUE(model.trained());
    auto path = dir + "/model.json";
    model.saveFile(path);
    return path;
}

TEST(Server, ReloadModelVerbHotSwapsSnapshots)
{
    auto dir = freshDiskDir("reload_model");
    auto snapshot = writeSnapshot(dir);

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    EXPECT_EQ(service.modelSnapshot(), nullptr);

    std::istringstream in(
        R"({"type":"reload_model","id":"r1","path":")" + snapshot +
        R"("})"
        "\n"
        R"({"type":"compile","id":"c1","op":"gemm","m":96,"n":64,)"
        R"("k":64,"hw":"v100","generations":2,)"
        R"("warm_start":"model"})"
        "\n"
        R"({"type":"reload_model","id":"r2","path":"/no/such"})"
        "\n"
        R"({"type":"reload_model","id":"r3"})"
        "\n");
    std::ostringstream out;
    serveStream(service, in, out);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }

    // Successful reload: structured receipt with the digest.
    ASSERT_TRUE(by_id.count("r1"));
    EXPECT_TRUE(by_id["r1"].get("ok").asBool());
    const Json &receipt = by_id["r1"].get("reload_model");
    EXPECT_EQ(receipt.get("path").asString(), snapshot);
    EXPECT_EQ(receipt.get("digest").asString().size(), 16u);
    EXPECT_GT(receipt.get("samples").asInt(), 0);

    // The swapped model served the model-mode compile.
    ASSERT_TRUE(by_id.count("c1"));
    EXPECT_TRUE(by_id["c1"].get("ok").asBool());
    ASSERT_NE(service.modelSnapshot(), nullptr);
    EXPECT_TRUE(service.modelSnapshot()->trained());

    // A bad file is a structured error — and the previous snapshot
    // stays in service.
    ASSERT_TRUE(by_id.count("r2"));
    EXPECT_FALSE(by_id["r2"].get("ok").asBool());
    EXPECT_FALSE(by_id["r2"]
                     .get("reload_model")
                     .get("error")
                     .asString()
                     .empty());
    EXPECT_NE(service.modelSnapshot(), nullptr);

    // Missing "path" is a typed protocol error.
    ASSERT_TRUE(by_id.count("r3"));
    EXPECT_FALSE(by_id["r3"].get("ok").asBool());

    auto stats = service.stats();
    EXPECT_EQ(stats.metrics.at("explore.model_reloads"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Service, PreloadsModelSnapshotOnStart)
{
    auto dir = freshDiskDir("preload_model");
    auto snapshot = writeSnapshot(dir);

    ServeOptions options;
    options.workers = 1;
    options.warmStart = WarmStartMode::Model;
    options.modelSnapshotPath = snapshot;
    CompileService service(options);
    ASSERT_NE(service.modelSnapshot(), nullptr);
    EXPECT_TRUE(service.modelSnapshot()->trained());

    auto outcome = service.serve(fastRequest());
    EXPECT_TRUE(outcome.ok);

    // A missing file degrades to analytic screening, not a crash.
    ServeOptions degraded;
    degraded.workers = 1;
    degraded.warmStart = WarmStartMode::Model;
    degraded.modelSnapshotPath = dir + "/absent.json";
    CompileService fallback(degraded);
    EXPECT_EQ(fallback.modelSnapshot(), nullptr);
    EXPECT_TRUE(fallback.serve(fastRequest()).ok);
    std::filesystem::remove_all(dir);
}

TEST(Service, CompileSpanKeyIsTheSharedCacheKey)
{
    auto dir = freshDiskDir("span_key");
    ServeOptions options;
    options.workers = 1;
    options.modelSnapshotPath = writeSnapshot(dir);
    CompileService service(options);
    auto model = service.modelSnapshot();
    ASSERT_NE(model, nullptr);

    // The key the service stores under, as its serve.compile span
    // records it.
    auto compiledKey = [&service](CompileRequest req) {
        req.traceId = "span-key";
        auto outcome = service.serve(req);
        EXPECT_TRUE(outcome.ok);
        EXPECT_EQ(outcome.servedBy, "compile");
        if (outcome.trace.isNull())
            return std::string();
        const Json &root = outcome.trace.get("spans").at(0);
        EXPECT_EQ(root.get("name").asString(), "serve.compile");
        return root.get("args").get("key").asString();
    };

    auto plain = fastRequest();
    auto plain_key = compiledKey(plain);
    EXPECT_EQ(plain_key, serveCacheKey(computationFromRequest(plain),
                                       hardwareFromRequest(plain), plain,
                                       WarmStartMode::Off, nullptr));
    EXPECT_EQ(plain_key, plain.cacheKey());

    auto warm = fastRequest();
    warm.warmStart = "model";
    auto warm_key = compiledKey(warm);
    EXPECT_EQ(warm_key, serveCacheKey(computationFromRequest(warm),
                                      hardwareFromRequest(warm), warm,
                                      WarmStartMode::Model, model.get()));
    EXPECT_NE(warm_key.find("/wmodel-m" + model->digest().substr(0, 8)),
              std::string::npos)
        << warm_key;
    // cacheKey() is the key of a server with no snapshot loaded.
    EXPECT_EQ(warm.cacheKey() + "-m" + model->digest().substr(0, 8),
              warm_key);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace serve
} // namespace amos
