/**
 * @file
 * The span store: fixed-capacity per-thread ring buffers of compact
 * span records, fed by the TraceSpan instrumentation points
 * (support/trace.hh). Every trace output is a view over these rings:
 * a served request's `trace` field, slowlog postmortems, the
 * `flightdump` verb, `--trace-out`'s Chrome/Perfetto document and the
 * crash dump.
 *
 * What gets recorded:
 *
 *  - Requests. The serve layer opens a FlightScope per request (a
 *    numeric sequence number, propagated across parallelFor); every
 *    TraceSpan closing under the scope appends one record tagged
 *    with that seq. A request's records are harvested by seq when it
 *    finishes — into the response when it carried a `trace_id`, into
 *    the slowlog when the outcome was interesting.
 *
 *  - Everything (record-all). setRecordAll(true) also records spans
 *    outside any scope, with seq 0. `--trace-out` turns it on after
 *    raising the per-thread capacity, then exports the rings as one
 *    Chrome trace-event document.
 *
 * Rings overwrite their oldest records when full, so memory is
 * bounded by `threads x capacity x 128 B`. Every overwrite is counted
 * in the global `trace.dropped_spans` counter — the one loss counter.
 *
 * Cost model: with no scope and record-all off a TraceSpan pays one
 * thread-local read and one relaxed atomic load. Recording a span is
 * one uncontended per-thread mutex plus a fixed-size copy — no
 * allocation: names/categories are string literals stored as
 * pointers, args are formatted into an inline buffer.
 * bench_trace_overhead gates the recording overhead at < 5%.
 *
 * Crash path: crashDump(fd) walks the rings without taking locks
 * and writes one line per record using only async-signal-safe
 * primitives (write(2), manual integer formatting), so a
 * SIGSEGV/SIGABRT handler can preserve the last moments of every
 * thread.
 */

#ifndef AMOS_SUPPORT_FLIGHT_RECORDER_HH
#define AMOS_SUPPORT_FLIGHT_RECORDER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hh"

namespace amos {

class MetricCounter;

/// Inline arg bytes per record: what is left of 128 B after the
/// fixed fields.
constexpr std::size_t kFlightArgBytes = 84;

/// Per-thread ring capacity under `--trace-out`: 64Ki records x 128 B
/// bounds a long-lived traced server at 8 MiB per thread.
constexpr std::size_t kRecordAllCapacity = 1 << 16;

/** One recorded span, compact enough to live in a preallocated ring. */
struct FlightRecord
{
    /// Span name/category — string literals owned by the program
    /// image (TraceSpan takes `const char *`), never freed.
    const char *name = nullptr;
    const char *category = nullptr;
    /// Request sequence number the span was recorded under (from
    /// FlightRecorder::beginRequest); 0 = no request scope.
    std::uint64_t seq = 0;
    /// Start offset from the recorder epoch / duration, microseconds.
    double startUs = 0.0;
    double durUs = 0.0;
    /// Dense per-process thread index (stable per thread).
    std::uint32_t tid = 0;
    /// Annotations as `key\0value\0` pairs in insertion order, ended
    /// by an empty key. Written by appendFlightArg: a value that does
    /// not fit is cut and ends in "..." (or the whole arg is dropped
    /// when not even that fits) — never silently shortened.
    char args[kFlightArgBytes] = {};
};

static_assert(sizeof(FlightRecord) <= 128,
              "flight records must stay within 128 bytes");

/**
 * Append one key/value annotation to a record's args at byte offset
 * `used` (0 for the first); returns the new offset. The buffer stays
 * terminated after every call.
 */
std::size_t appendFlightArg(FlightRecord &record, std::size_t used,
                            std::string_view key,
                            std::string_view value);

/** A record's args as a JSON object {key: value}. */
Json flightArgsJson(const FlightRecord &record);

/**
 * The one span order: by start time, ties broken longer-first so a
 * parent precedes the children it starts together with.
 */
bool spanBefore(const FlightRecord &a, const FlightRecord &b);

/**
 * Span tree of records sorted by spanBefore: each record nests
 * under the innermost earlier record containing it in time. Same-
 * thread containment is exact (scoped spans nest); cross-thread
 * containment approximates the fork structure of parallelFor.
 * Returns [{name,cat,start_us,dur_us,args,children:[...]}].
 */
Json spanTree(const std::vector<FlightRecord> &records);

/** Process-wide store of FlightRecords. */
class FlightRecorder
{
  public:
    FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Allocate a request sequence number (monotonic, never 0).
     * Install it on the serving thread with a FlightScope so the
     * request's spans are attributed to it.
     */
    std::uint64_t beginRequest();

    /** The active sequence number on this thread (0 when none). */
    static std::uint64_t currentSeq();

    /** Also record spans outside any scope (seq 0): `--trace-out`. */
    void setRecordAll(bool recordAll);
    bool
    recordingAll() const
    {
        return _recordAll.load(std::memory_order_relaxed);
    }

    /** Append one record to the calling thread's ring. */
    void push(const FlightRecord &record);

    /** Every resident record of one request, sorted by spanBefore. */
    std::vector<FlightRecord> harvest(std::uint64_t seq) const;

    /** Every resident record, sorted by spanBefore. */
    std::vector<FlightRecord> snapshot() const;

    /**
     * Span tree of one request:
     * {"flight_seq":N,"spans":spanTree(harvest(N))}.
     */
    Json spanTreeFor(std::uint64_t seq) const;

    /**
     * Everything resident (all requests mixed): {"records":[{name,
     * cat,seq,tid,start_us,dur_us,args}],"overwritten":N}. The
     * `flightdump` verb and `--flight-dump` write this to disk.
     */
    Json dumpJson() const;

    /**
     * Everything resident as a Chrome trace-event document:
     * {"traceEvents":[{name,cat,ph:"X",ts,dur,pid,tid,args}],
     * "displayTimeUnit":"ms","otherData":{"dropped_spans":N}}. Load
     * in Perfetto (ui.perfetto.dev) or chrome://tracing.
     */
    Json chromeJson() const;

    /** Records currently resident across all rings. */
    std::size_t recordCount() const;

    /**
     * Records ever overwritten by ring wrap-around: the global
     * `trace.dropped_spans` counter.
     */
    std::uint64_t overwrittenCount() const;

    /** Drop every resident record (rings stay registered). */
    void clear();

    /**
     * Async-signal-safe dump of every ring to a file descriptor:
     * one `flight tid=<t> seq=<s> start_us=<..> dur_us=<..>
     * <name> [k=v k=v]` line per record. Walks the rings WITHOUT
     * locking — a crashed thread may hold a ring mutex — so a
     * record being written concurrently can read torn; acceptable
     * for a best-effort postmortem. Only write(2) and stack
     * formatting, callable from SIGSEGV/SIGABRT handlers.
     */
    void crashDump(int fd) const noexcept;

    /**
     * Per-thread ring capacity for subsequently *registered*
     * threads (existing rings keep their size). Tests shrink it to
     * exercise wrap-around; `--trace-out` raises it before any
     * thread registers.
     */
    void setCapacityPerThread(std::size_t capacity);
    std::size_t capacityPerThread() const;

    /** The process-wide recorder every TraceSpan records into. */
    static FlightRecorder &global();

    /// @name Internals shared with TraceSpan (not for direct use).
    /// @{
    double
    sinceEpochUs(std::chrono::steady_clock::time_point tp) const
    {
        return std::chrono::duration<double, std::micro>(tp - _epoch)
            .count();
    }
    /// @}

  private:
    struct Ring
    {
        mutable std::mutex mutex;
        std::vector<FlightRecord> slots; // preallocated, fixed size
        std::size_t next = 0;            // next write position
        std::size_t used = 0;            // live records (<= size)
        std::uint32_t tid = 0;
    };

    Ring &threadRing();
    template <typename Fn> void forEachRecord(Fn &&fn) const;

    std::atomic<bool> _recordAll{false};
    std::atomic<std::uint64_t> _nextSeq{1};
    std::atomic<std::size_t> _capacity;
    /// Global `trace.dropped_spans`, resolved once so the overwrite
    /// path never takes the registry lock.
    MetricCounter &_overwritten;

    mutable std::mutex _registryMutex;
    std::vector<std::shared_ptr<Ring>> _rings;
    std::uint32_t _nextTid = 0;

    std::chrono::steady_clock::time_point _epoch;
};

/**
 * RAII request scope: while alive, spans closing on this thread
 * (and on parallelFor workers the thread fans out to) are recorded
 * into the rings under the given sequence number. Scopes nest; the
 * innermost wins.
 */
class FlightScope
{
  public:
    explicit FlightScope(std::uint64_t seq);
    ~FlightScope();

    FlightScope(const FlightScope &) = delete;
    FlightScope &operator=(const FlightScope &) = delete;

  private:
    std::uint64_t _previous;
};

} // namespace amos

#endif // AMOS_SUPPORT_FLIGHT_RECORDER_HH
