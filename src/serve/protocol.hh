/**
 * @file
 * Wire protocol of the compilation service: newline-delimited JSON
 * request and response objects, plus the translation from a request
 * to the compiler inputs (TensorComputation, HardwareSpec,
 * TuneOptions) it describes and to the cache key of the artifact it
 * names (serveCacheKey, the one key builder). Lines reach a
 * CompileRequest through the one dispatcher in server.cc, which both
 * the live stream and trace replay use.
 *
 * Request (one JSON object per line):
 *
 *   {"type":"compile","id":"r1","op":"gemm","m":256,"n":256,
 *    "k":256,"hw":"v100","generations":4,"seed":2022,
 *    "deadline_ms":5000}
 *   {"type":"stats"}
 *   {"type":"slowlog","limit":5}
 *   {"type":"flightdump","path":"/tmp/flight.json"}
 *   {"type":"shutdown"}
 *
 * Control verbs: "stats" (counters + windowed latency), "metrics"
 * (Prometheus exposition), "healthz", "slowlog" (retained
 * slow-request postmortems, most recent first), "flightdump"
 * (write the flight-recorder rings to a file on the server),
 * "reload_model" (hot-swap the learned-model snapshot used for
 * warm-started screening; {"type":"reload_model","path":...}).
 *
 * Response (one JSON object per line, correlated by "id"):
 *
 *   {"id":"r1","ok":true,"served_by":"compile","latency_ms":812.4,
 *    "result":{...}}
 *   {"id":"r1","ok":false,
 *    "error":{"code":"queue_full","message":"..."}}
 *
 * The same CompileResult serialiser backs `amos_cli --json`, so a
 * script can switch between the one-shot CLI and the server without
 * changing its parser. See docs/serving.md for the full schema.
 */

#ifndef AMOS_SERVE_PROTOCOL_HH
#define AMOS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <string>

#include "amos/amos.hh"
#include "explore/warm_start.hh"
#include "support/json.hh"

namespace amos {
namespace serve {

/** Typed rejection reasons a request can be answered with. */
enum class ErrorCode
{
    BadRequest,       ///< malformed JSON or unknown op/hw
    QueueFull,        ///< admission bound hit (load shedding)
    DeadlineExceeded, ///< per-request deadline fired
    Cancelled,        ///< exploration abandoned by all waiters
    ShuttingDown,     ///< submitted during/after drain
    Internal,         ///< unexpected failure inside the compiler
};

/** Wire name of an error code ("queue_full", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * One compilation request: an operator family plus its dimensions,
 * a hardware target, and the tuning knobs that shape the search.
 */
struct CompileRequest
{
    /// Echoed verbatim in the response for correlation.
    std::string id;

    /// Operator family: gemm|gemv|conv1d|conv2d|conv3d|depthwise|
    /// group|dilated|transposed.
    std::string op = "conv2d";

    /// Dimension knobs (m/n/k, batch/cin/cout/size/kernel/stride/
    /// dilation/depth/kdepth/multiplier/groups); absent keys take
    /// the same defaults as amos_cli.
    std::map<std::string, std::int64_t> dims;

    std::string hw = "v100";

    /// Operand typing: f16 (default) | f32 | bf16 (bf16 inputs, f32
    /// accumulator) | i8 (symmetric i8xi8) | u8i8 (asymmetric
    /// activations x symmetric weights). Quantized typings carry i32
    /// accumulators; dtype-illegal target intrinsics are simply not
    /// matched (docs/abstraction.md).
    std::string dtype = "f16";

    int generations = 8;
    std::uint64_t seed = 2022;
    /// Tuner-internal threads; the service defaults to 1 because its
    /// parallelism comes from serving many requests at once.
    int numThreads = 1;

    /// Wall-clock budget in milliseconds (0 = none). Covers queue
    /// wait and exploration; an expired request is answered with
    /// deadline_exceeded.
    double deadlineMs = 0.0;

    /// Distributed-tracing id ("trace_id" on the wire). A non-empty
    /// id asks the service to record a span tree for this request
    /// and attach it to the response; like deadline_ms/threads it
    /// does not affect the cache key.
    std::string traceId;

    /// Opt-in explainability: when set, the response carries an
    /// "explain" object (bottleneck attribution, roofline, search
    /// telemetry — see docs/observability.md). Pure output shaping,
    /// so it is excluded from the cache key like trace_id.
    bool explain = false;

    /// Warm-start mode ("warm_start" on the wire):
    /// off|neighbors|model|both, or empty to take the server's
    /// default. Warm start steers the search, so a non-off mode
    /// joins the cache key (docs/exploration.md).
    std::string warmStart;

    /** Dimension value with an amos_cli-compatible default. */
    std::int64_t dim(const std::string &key,
                     std::int64_t fallback) const;

    /**
     * The warm-start mode this request names, or `fallback` when it
     * names none. Raises fatal() on an unknown mode name.
     */
    WarmStartMode warmMode(
        WarmStartMode fallback = WarmStartMode::Off) const;

    /**
     * serveCacheKey() of this request on a server with no default
     * warm-start mode and no model snapshot: the request's own mode
     * (off when absent) and no `-m<digest8>` suffix.
     */
    std::string cacheKey() const;

    Json toJson() const;
    /** Raises fatal() on malformed input. */
    static CompileRequest fromJson(const Json &json);
};

/** Build the computation a request describes (fatal on bad op). */
TensorComputation computationFromRequest(const CompileRequest &req);

/** Resolve the hardware target (fatal on bad name). */
HardwareSpec hardwareFromRequest(const CompileRequest &req);

/**
 * @name Typed request fields.
 * The value of request field `field` when it has the named JSON
 * kind; fatal() naming the field otherwise ("request: field 'limit'
 * must be a number"), so a wrongly typed field is a bad_request
 * that says which field is wrong.
 * @{
 */
double numberField(const std::string &field, const Json &value);
std::int64_t intField(const std::string &field, const Json &value);
const std::string &stringField(const std::string &field,
                               const Json &value);
/** @} */

/**
 * A correlation field ("id", "trace_id") as it is echoed: a JSON
 * string verbatim, any other value as its compact dump (7 -> "7").
 */
std::string correlationId(const Json &value);

/**
 * Identity of the exploration a request names: hardware, operator
 * shape, the search knobs (generations, seed) and the effective
 * warm-start inputs, which steer the search: `mode` once resolved
 * against the server default, and for the model modes the digest of
 * `model` (may be null). Two requests with equal keys coalesce and
 * share cache entries. Off keeps the historical key.
 */
std::string serveCacheKey(const TensorComputation &comp,
                          const HardwareSpec &hw,
                          const CompileRequest &req, WarmStartMode mode,
                          const LearnedModel *model);

/**
 * Tune options carrying the request's search knobs, warm-started in
 * `mode` (a warm mode also gets the early-stop patience).
 */
TuneOptions tuneOptionsFromRequest(const CompileRequest &req,
                                   WarmStartMode mode);

/** tuneOptionsFromRequest() in the request's own warm-start mode. */
TuneOptions tuneOptionsFromRequest(const CompileRequest &req);

/**
 * Machine-readable CompileResult (shared between the serve protocol
 * and `amos_cli --json`). Omits the pseudo-code listing unless
 * includePseudoCode is set.
 */
Json compileResultToJson(const CompileResult &result,
                         bool includePseudoCode = false);

} // namespace serve
} // namespace amos

#endif // AMOS_SERVE_PROTOCOL_HH
