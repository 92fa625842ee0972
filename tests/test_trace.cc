/**
 * @file
 * Tests for the tracing + metrics subsystem: span recording into the
 * flight rings and nesting, Chrome trace-event export, request
 * scopes (including propagation through parallelFor), the inline
 * args budget, ring overwrites and the `trace.dropped_spans`
 * counter, concurrency under 16-thread hammers (run under TSan in
 * CI), and the MetricsRegistry.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "quant/legality.hh"
#include "support/flight_recorder.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

using namespace amos;

namespace {

/** RAII guard: record-all on for the test, empty rings around it. */
struct RecordAll
{
    RecordAll()
    {
        FlightRecorder::global().clear();
        FlightRecorder::global().setRecordAll(true);
    }
    ~RecordAll()
    {
        FlightRecorder::global().setRecordAll(false);
        FlightRecorder::global().clear();
    }
};

FlightRecord
findSpan(const std::vector<FlightRecord> &spans,
         const std::string &name)
{
    for (const auto &span : spans)
        if (span.name == name)
            return span;
    ADD_FAILURE() << "span '" << name << "' not recorded";
    return {};
}

/** True when `value` is `whole`, or a prefix of it marked "...". */
bool
wholeOrMarked(const std::string &value, const std::string &whole)
{
    if (value == whole)
        return true;
    const std::string marker = "...";
    if (value.size() < marker.size() ||
        value.compare(value.size() - marker.size(), marker.size(),
                      marker) != 0)
        return false;
    return whole.compare(0, value.size() - marker.size(), value, 0,
                         value.size() - marker.size()) == 0;
}

} // namespace

TEST(Trace, DisabledSpanRecordsNothing)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordingAll());
    {
        TraceSpan span("test.disabled", "test");
        EXPECT_FALSE(span.active());
        span.arg("ignored", "value");
    }
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Trace, GlobalEnableRecordsSpansWithArgs)
{
    RecordAll guard;
    {
        TraceSpan span("test.outer", "test");
        EXPECT_TRUE(span.active());
        span.arg("key", "value");
        span.arg("count", static_cast<std::int64_t>(42));
    }
    auto spans = FlightRecorder::global().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "test.outer");
    EXPECT_STREQ(spans[0].category, "test");
    EXPECT_EQ(spans[0].seq, 0u); // outside any request scope
    // Insertion order: the buffer starts with the first key.
    EXPECT_STREQ(spans[0].args, "key");
    Json args = flightArgsJson(spans[0]);
    ASSERT_EQ(args.entries().size(), 2u);
    EXPECT_EQ(args.get("key").asString(), "value");
    EXPECT_EQ(args.get("count").asString(), "42");
    EXPECT_GE(spans[0].durUs, 0.0);
}

TEST(Trace, NestedSpansAreTimeContained)
{
    RecordAll guard;
    {
        TraceSpan outer("test.outer", "test");
        {
            TraceSpan inner("test.inner", "test");
        }
    }
    auto spans = FlightRecorder::global().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    auto outer = findSpan(spans, "test.outer");
    auto inner = findSpan(spans, "test.inner");
    EXPECT_GE(inner.startUs, outer.startUs);
    EXPECT_LE(inner.startUs + inner.durUs,
              outer.startUs + outer.durUs + 1e-3);
}

TEST(Trace, ChromeJsonShape)
{
    RecordAll guard;
    {
        TraceSpan span("test.event", "test");
        span.arg("k", "v");
    }
    Json doc = FlightRecorder::global().chromeJson();
    EXPECT_EQ(doc.get("displayTimeUnit").asString(), "ms");
    EXPECT_EQ(doc.get("otherData").get("dropped_spans").asInt(),
              static_cast<std::int64_t>(
                  FlightRecorder::global().overwrittenCount()));
    const Json &events = doc.get("traceEvents");
    ASSERT_EQ(events.size(), 1u);
    const Json &event = events.at(0);
    EXPECT_EQ(event.get("name").asString(), "test.event");
    EXPECT_EQ(event.get("cat").asString(), "test");
    EXPECT_EQ(event.get("ph").asString(), "X");
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("dur"));
    EXPECT_TRUE(event.has("pid"));
    EXPECT_TRUE(event.has("tid"));
    EXPECT_EQ(event.get("args").get("k").asString(), "v");
}

TEST(Trace, ContextRecordsWhileGlobalOff)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordingAll());
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan span("test.tagged", "test");
        EXPECT_TRUE(span.active());
    }
    {
        // Scope gone: back to the inactive fast path.
        TraceSpan span("test.untagged", "test");
        EXPECT_FALSE(span.active());
    }
    auto spans = recorder.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].seq, seq);
    recorder.clear();
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Trace, ContextsNestInnermostWins)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t outer_seq = recorder.beginRequest();
    const std::uint64_t inner_seq = recorder.beginRequest();
    FlightScope outer(outer_seq);
    EXPECT_EQ(FlightRecorder::currentSeq(), outer_seq);
    {
        FlightScope inner(inner_seq);
        EXPECT_EQ(FlightRecorder::currentSeq(), inner_seq);
        TraceSpan span("test.inner", "test");
    }
    EXPECT_EQ(FlightRecorder::currentSeq(), outer_seq);
    auto spans = recorder.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].seq, inner_seq);
}

TEST(Trace, ContextPropagatesThroughParallelFor)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        parallelFor(
            16,
            [](std::size_t) {
                TraceSpan span("test.worker", "test");
            },
            4);
    }
    auto spans = recorder.snapshot();
    ASSERT_EQ(spans.size(), 16u);
    for (const auto &span : spans)
        EXPECT_EQ(span.seq, seq);
}

TEST(Trace, SpanTreeNestsByTimeContainment)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan root("test.root", "test");
        {
            TraceSpan childA("test.child_a", "test");
            {
                TraceSpan grand("test.grandchild", "test");
            }
        }
        {
            TraceSpan childB("test.child_b", "test");
        }
    }
    Json tree = recorder.spanTreeFor(seq);
    EXPECT_EQ(tree.get("flight_seq").asInt(),
              static_cast<std::int64_t>(seq));
    const Json &roots = tree.get("spans");
    ASSERT_EQ(roots.size(), 1u);
    const Json &root = roots.at(0);
    EXPECT_EQ(root.get("name").asString(), "test.root");
    const Json &children = root.get("children");
    ASSERT_EQ(children.size(), 2u);
    EXPECT_EQ(children.at(0).get("name").asString(), "test.child_a");
    EXPECT_EQ(children.at(1).get("name").asString(), "test.child_b");
    const Json &grandchildren = children.at(0).get("children");
    ASSERT_EQ(grandchildren.size(), 1u);
    EXPECT_EQ(grandchildren.at(0).get("name").asString(),
              "test.grandchild");
}

/**
 * 16 threads hammering span creation under shared and distinct
 * scopes with record-all on, plus concurrent exports; run under
 * TSan in CI. Assertions are minimal on purpose — the test exists
 * to surface races, not behaviour.
 */
TEST(Trace, ConcurrentSpanHammer)
{
    RecordAll guard;
    auto &recorder = FlightRecorder::global();
    const int kThreads = 16;
    const int kSpansPerThread = 200;
    std::vector<std::uint64_t> seqs(4);
    for (auto &seq : seqs)
        seq = recorder.beginRequest();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            FlightScope scope(seqs[t % 4]);
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan span("test.hammer", "test");
                span.arg("i", static_cast<std::int64_t>(i));
                if (i % 50 == 0) {
                    // Concurrent export while writers are active.
                    recorder.snapshot();
                    recorder.recordCount();
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(recorder.recordCount(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    // Thread ids must be distinct per thread.
    std::set<std::uint32_t> tids;
    for (const auto &span : recorder.snapshot())
        tids.insert(span.tid);
    EXPECT_GE(tids.size(), 2u);
}

/**
 * Acceptance: a traced tune emits the full pipeline span taxonomy
 * with enumerate/validate/sample/model-eval/measure correctly nested
 * under the tune root.
 */
TEST(Trace, TracedTuneEmitsPipelineSpans)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    std::vector<MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        for (auto &plan : enumeratePlans(comp, intr, {}))
            plans.push_back(std::move(plan));
    }
    ASSERT_FALSE(plans.empty());
    TuneOptions options;
    options.generations = 2;
    options.population = 8;
    options.measureTopK = 2;
    options.numThreads = 4;
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        auto result = tuneWithPlans(plans, hw, options);
        ASSERT_TRUE(result.tensorizable);
    }
    std::set<std::string> names;
    for (const auto &span : recorder.snapshot()) {
        EXPECT_EQ(span.seq, seq);
        names.insert(span.name);
    }
    for (const char *expected :
         {"explore.tune", "explore.generation", "explore.model_eval",
          "explore.measure", "schedule.sample", "schedule.expert",
          "sim.measure"})
        EXPECT_TRUE(names.count(expected))
            << "missing span " << expected;

    // The tree roots at explore.tune and contains a generation span
    // which in turn contains the model evaluation.
    Json tree = recorder.spanTreeFor(seq);
    const Json &roots = tree.get("spans");
    ASSERT_GE(roots.size(), 1u);
    EXPECT_EQ(roots.at(0).get("name").asString(), "explore.tune");
    bool found_gen = false;
    const Json &children = roots.at(0).get("children");
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (children.at(i).get("name").asString() ==
            "explore.generation")
            found_gen = true;
    }
    EXPECT_TRUE(found_gen);
}

/**
 * Record-all mode keeps the ring bound: a ring that wraps overwrites
 * its oldest records and counts each one in `trace.dropped_spans`,
 * the counter every export reports.
 */
TEST(Trace, RecordAllOverwritesCountDroppedSpans)
{
    RecordAll guard;
    auto &recorder = FlightRecorder::global();
    const std::size_t prev_cap = recorder.capacityPerThread();
    const std::uint64_t before = recorder.overwrittenCount();
    const std::uint64_t counter_before =
        MetricsRegistry::global()
            .counter("trace.dropped_spans")
            .value();

    // Existing rings keep their size; a fresh thread registers one
    // at the shrunk capacity.
    recorder.setCapacityPerThread(10);
    std::thread worker([] {
        for (int i = 0; i < 50; ++i)
            TraceSpan span("test.capped", "test");
    });
    worker.join();
    recorder.setCapacityPerThread(prev_cap);

    EXPECT_EQ(recorder.recordCount(), 10u);
    EXPECT_EQ(recorder.overwrittenCount() - before, 40u);
    EXPECT_EQ(MetricsRegistry::global()
                      .counter("trace.dropped_spans")
                      .value() -
                  counter_before,
              40u);
    const auto dropped =
        static_cast<std::int64_t>(recorder.overwrittenCount());
    EXPECT_EQ(recorder.dumpJson().get("overwritten").asInt(), dropped);
    EXPECT_EQ(recorder.chromeJson()
                  .get("otherData")
                  .get("dropped_spans")
                  .asInt(),
              dropped);
}

/**
 * Regression: an arg that straddles the inline budget comes back
 * whole or visibly marked, never cut into a shorter value that
 * reads as a different one ("35" must not become "3").
 */
TEST(Trace, ArgStraddlingTheBudgetIsWholeOrMarked)
{
    const std::string candidates = "35";
    for (std::size_t fill = 0; fill <= kFlightArgBytes; ++fill) {
        const std::string filler(fill, 'x');
        FlightRecord record;
        std::size_t used = appendFlightArg(record, 0, "f", filler);
        used = appendFlightArg(record, used, "candidates", candidates);
        ASSERT_LT(used, kFlightArgBytes);
        Json args = flightArgsJson(record);
        if (args.has("f")) {
            EXPECT_TRUE(wholeOrMarked(args.get("f").asString(), filler))
                << "fill " << fill;
        }
        if (args.has("candidates")) {
            EXPECT_TRUE(wholeOrMarked(
                args.get("candidates").asString(), candidates))
                << "fill " << fill << ": "
                << args.get("candidates").asString();
        }
    }

    // Through the span API: "candidates=35" needs 14 bytes and 13
    // are left, so it is dropped whole (its marked form is longer
    // than the value); a long value straddling the end keeps a
    // marked prefix.
    const std::string reason(40, 'r');
    RecordAll guard;
    {
        TraceSpan span("test.budget", "test");
        span.arg("pad", std::string(kFlightArgBytes - 19, 'p'));
        span.arg("candidates", static_cast<std::int64_t>(35));
    }
    {
        TraceSpan span("test.budget", "test");
        span.arg("pad", std::string(kFlightArgBytes - 40, 'p'));
        span.arg("reason", reason);
    }
    auto spans = FlightRecorder::global().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    Json dropped = flightArgsJson(spans[0]);
    EXPECT_TRUE(dropped.has("pad"));
    EXPECT_FALSE(dropped.has("candidates"));
    Json marked = flightArgsJson(spans[1]);
    ASSERT_TRUE(marked.has("reason"));
    const std::string got = marked.get("reason").asString();
    EXPECT_NE(got, reason);
    EXPECT_TRUE(wholeOrMarked(got, reason)) << got;
}

/**
 * The args the served path relies on fit the budget whole: all of
 * mapping.enumerate's for the test suite's shapes, and the count
 * even when a long dtype_illegal reason has to be cut.
 */
TEST(Trace, EnumerateArgsFitTheBudget)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    auto hw = hw::v100();
    ops::ConvParams p;
    p.batch = 16;
    p.in_channels = p.out_channels = 128;
    p.out_h = p.out_w = 28;
    p.kernel_h = p.kernel_w = 3;
    auto conv = ops::makeConv2d(p);
    const Intrinsic *found_intr = nullptr;
    for (const auto &intr : hw.intrinsics)
        if (intr.name() == "wmma_16x16x16")
            found_intr = &intr;
    ASSERT_NE(found_intr, nullptr);
    const Intrinsic &wmma = *found_intr;
    const std::uint64_t seq = recorder.beginRequest();
    std::size_t found = 0;
    {
        FlightScope scope(seq);
        found = enumerateMappings(conv, wmma, {}).size();
    }
    auto spans = recorder.harvest(seq);
    auto span = findSpan(spans, "mapping.enumerate");
    Json args = flightArgsJson(span);
    EXPECT_EQ(args.get("computation").asString(), conv.name());
    EXPECT_EQ(args.get("intrinsic").asString(), wmma.name());
    EXPECT_EQ(args.get("candidates").asString(),
              std::to_string(found));
    EXPECT_GE(found, 10u);

    // u8 inputs are illegal on the f16 tensor core: the count stays
    // whole, the reason is whole or marked.
    auto gemm = ops::makeQuantizedGemm(64, 64, 64);
    const std::uint64_t illegal = recorder.beginRequest();
    {
        FlightScope scope(illegal);
        EXPECT_TRUE(enumerateMappings(gemm, wmma, {}).empty());
    }
    auto illegal_args = flightArgsJson(
        findSpan(recorder.harvest(illegal), "mapping.enumerate"));
    EXPECT_EQ(illegal_args.get("candidates").asString(), "0");
    EXPECT_EQ(illegal_args.get("computation").asString(), gemm.name());
    ASSERT_TRUE(illegal_args.has("dtype_illegal"));
    EXPECT_TRUE(wholeOrMarked(
        illegal_args.get("dtype_illegal").asString(),
        quant::checkDtypeLegality(gemm, wmma.compute).reason));
}

// ---------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------

TEST(Metrics, CounterCreateOnFirstUseAndStableReference)
{
    MetricsRegistry registry;
    MetricCounter &c1 = registry.counter("test.counter");
    EXPECT_EQ(c1.value(), 0u);
    c1.add();
    c1.add(10);
    MetricCounter &c2 = registry.counter("test.counter");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 11u);
}

TEST(Metrics, GaugeLastWriteWins)
{
    MetricsRegistry registry;
    MetricGauge &g = registry.gauge("test.gauge");
    g.set(1.5);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(registry.gauge("test.gauge").value(), 2.5);
}

TEST(Metrics, SnapshotsAndJson)
{
    MetricsRegistry registry;
    registry.counter("a.count").add(3);
    registry.counter("b.count").add(7);
    registry.gauge("c.gauge").set(0.25);

    auto counters = registry.counterValues();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters.at("a.count"), 3u);
    EXPECT_EQ(counters.at("b.count"), 7u);
    auto gauges = registry.gaugeValues();
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(gauges.at("c.gauge"), 0.25);

    Json doc = registry.toJson();
    EXPECT_EQ(doc.get("a.count").asInt(), 3);
    EXPECT_EQ(doc.get("b.count").asInt(), 7);
    EXPECT_DOUBLE_EQ(doc.get("c.gauge").asNumber(), 0.25);
}

TEST(Metrics, ConcurrentCountersAreExact)
{
    MetricsRegistry registry;
    const int kThreads = 16;
    const int kAdds = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            // Mix creation races and hot-path increments.
            auto &counter = registry.counter("contended");
            for (int i = 0; i < kAdds; ++i)
                counter.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(registry.counter("contended").value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, InstanceRegistriesAreIndependent)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("x").add(5);
    EXPECT_EQ(b.counter("x").value(), 0u);
}

TEST(Flight, SpansOutsideAScopeRecordNothing)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordingAll());
    ASSERT_EQ(FlightRecorder::currentSeq(), 0u);
    {
        TraceSpan span("test.unscoped", "test");
        // Record-all off + no scope: the span is fully inert.
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Flight, ScopedSpansCarrySeqAndArgs)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    ASSERT_NE(seq, 0u);
    {
        FlightScope scope(seq);
        EXPECT_EQ(FlightRecorder::currentSeq(), seq);
        TraceSpan span("test.scoped", "test");
        EXPECT_TRUE(span.active());
        span.arg("key", "value");
        span.arg("count", static_cast<std::int64_t>(7));
    }
    EXPECT_EQ(FlightRecorder::currentSeq(), 0u);

    auto records = recorder.harvest(seq);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_STREQ(records[0].name, "test.scoped");
    EXPECT_STREQ(records[0].category, "test");
    EXPECT_EQ(records[0].seq, seq);
    Json args = flightArgsJson(records[0]);
    EXPECT_EQ(args.get("key").asString(), "value");
    EXPECT_EQ(args.get("count").asString(), "7");
    // A different request's harvest stays empty.
    EXPECT_TRUE(recorder.harvest(seq + 1).empty());
    EXPECT_EQ(recorder.recordCount(), 1u);
}

TEST(Flight, RingOverwritesOldestWhenFull)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::size_t prev_cap = recorder.capacityPerThread();
    recorder.setCapacityPerThread(8);
    const std::uint64_t before = recorder.overwrittenCount();
    const std::uint64_t seq = recorder.beginRequest();

    // Existing rings keep their size; a fresh thread registers a
    // ring at the shrunk capacity.
    std::thread worker([&] {
        FlightScope scope(seq);
        for (int i = 0; i < 20; ++i)
            TraceSpan span("test.wrap", "test");
    });
    worker.join();
    recorder.setCapacityPerThread(prev_cap);

    auto records = recorder.harvest(seq);
    EXPECT_EQ(records.size(), 8u);
    EXPECT_EQ(recorder.overwrittenCount() - before, 12u);
}

TEST(Flight, ScopePropagatesThroughParallelFor)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        parallelFor(
            16,
            [](std::size_t) {
                TraceSpan span("test.shard", "test");
            },
            4);
    }
    auto records = recorder.harvest(seq);
    EXPECT_EQ(records.size(), 16u);
    for (const auto &record : records)
        EXPECT_EQ(record.seq, seq);
}

TEST(Flight, SpanTreeNestsByTimeContainment)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan outer("test.outer", "test");
        {
            TraceSpan inner("test.inner", "test");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Json tree = recorder.spanTreeFor(seq);
    EXPECT_EQ(tree.get("flight_seq").asInt(),
              static_cast<std::int64_t>(seq));
    const Json &spans = tree.get("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).get("name").asString(), "test.outer");
    const Json &children = spans.at(0).get("children");
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children.at(0).get("name").asString(), "test.inner");
    EXPECT_GE(spans.at(0).get("dur_us").asNumber(),
              children.at(0).get("dur_us").asNumber());
}

TEST(Flight, CrashDumpIsPlainTextOverAFd)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan span("test.crash", "test");
        span.arg("key", "v");
        span.arg("n", static_cast<std::int64_t>(3));
    }

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    recorder.crashDump(::fileno(tmp));
    std::fflush(tmp);
    std::rewind(tmp);
    std::string text;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0)
        text.append(buf, n);
    std::fclose(tmp);

    EXPECT_NE(text.find("=== amos flight recorder dump ==="),
              std::string::npos);
    EXPECT_NE(text.find("test.crash [key=v n=3]"), std::string::npos)
        << text;
    EXPECT_NE(text.find("seq="), std::string::npos);
}

TEST(Flight, DumpJsonListsEveryResidentRecord)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t a = recorder.beginRequest();
    const std::uint64_t b = recorder.beginRequest();
    {
        FlightScope scope(a);
        TraceSpan span("test.first", "test");
        span.arg("k", "v");
    }
    {
        FlightScope scope(b);
        TraceSpan span("test.second", "test");
    }
    Json dump = recorder.dumpJson();
    const Json &records = dump.get("records");
    ASSERT_EQ(records.size(), 2u);
    // Sorted by start time: first request first.
    EXPECT_EQ(records.at(0).get("name").asString(), "test.first");
    EXPECT_EQ(records.at(1).get("name").asString(), "test.second");
    EXPECT_EQ(records.at(0).get("seq").asInt(),
              static_cast<std::int64_t>(a));
    // Args render as an object, as in every JSON view.
    EXPECT_EQ(records.at(0).get("args").get("k").asString(), "v");
    EXPECT_EQ(dump.get("overwritten").asInt(),
              static_cast<std::int64_t>(recorder.overwrittenCount()));
}

/**
 * Regression: the dump orders equal-start records like every other
 * view — longer first — so a parent never follows its child.
 */
TEST(Flight, DumpJsonListsParentBeforeEqualStartChild)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    FlightRecord child;
    child.name = "test.child";
    child.category = "test";
    child.startUs = 100.0;
    child.durUs = 1.0;
    FlightRecord parent = child;
    parent.name = "test.parent";
    parent.durUs = 5.0;
    recorder.push(child); // child-first in ring order
    recorder.push(parent);

    Json dump = recorder.dumpJson();
    const Json &records = dump.get("records");
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.at(0).get("name").asString(), "test.parent");
    EXPECT_EQ(records.at(1).get("name").asString(), "test.child");
    recorder.clear();
}

TEST(Flight, ConcurrentScopesAndHarvestsSurviveHammer)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const int kThreads = 16;
    const int kSpansPerThread = 200;
    std::vector<std::uint64_t> seqs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        seqs[t] = recorder.beginRequest();
        threads.emplace_back([&, t] {
            FlightScope scope(seqs[t]);
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan span("test.hammer", "test");
                if (i % 64 == 0) // concurrent readers race writers
                    recorder.harvest(seqs[t]);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(recorder.harvest(seqs[t]).size(),
                  static_cast<std::size_t>(kSpansPerThread));
    recorder.clear();
    EXPECT_EQ(recorder.recordCount(), 0u);
}
