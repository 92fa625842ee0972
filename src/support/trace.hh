/**
 * @file
 * Structured tracing: scoped spans recorded into the per-thread
 * flight rings (support/flight_recorder.hh), the one span store.
 * Every trace output — a served request's span tree, slowlog
 * postmortems, `flightdump`, and `--trace-out`'s Chrome trace-event
 * JSON (loadable in Perfetto or chrome://tracing) — is a view over
 * the records the rings hold.
 *
 * A span is recorded when it opens under a FlightScope (the serve
 * layer installs one per request; parallelFor propagates it onto
 * its workers) or while the recorder records everything
 * (FlightRecorder::setRecordAll, the `--trace-out` flag). Otherwise
 * constructing a TraceSpan costs one thread-local read plus one
 * relaxed atomic load — cheap enough to leave instrumentation in
 * every hot path (see docs/observability.md for the measured
 * overhead). A recorded span never allocates: its args are
 * formatted straight into the record's inline buffer.
 */

#ifndef AMOS_SUPPORT_TRACE_HH
#define AMOS_SUPPORT_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string_view>

#include "support/flight_recorder.hh"

namespace amos {

/**
 * RAII scoped span. Construct at the top of the region to measure;
 * the span is recorded (if active) when it destructs.
 *
 *   TraceSpan span("mapping.enumerate", "mapping");
 *   span.arg("intrinsic", intr.name());
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       const char *category = "amos");
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /**
     * Attach an annotation (no-op when the span is inactive). Args
     * share the record's kFlightArgBytes inline budget; see
     * appendFlightArg for what happens to one that does not fit.
     */
    void arg(const char *key, std::string_view value);
    void arg(const char *key, std::int64_t value);

    /** True when this span will be recorded. */
    bool active() const { return _active; }

  private:
    bool _active;
    std::size_t _argsLen = 0;
    std::chrono::steady_clock::time_point _start;
    FlightRecord _record;
};

} // namespace amos

#endif // AMOS_SUPPORT_TRACE_HH
