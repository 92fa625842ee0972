#include "protocol.hh"

#include <sstream>

#include "ops/operators.hh"
#include "support/logging.hh"

namespace amos {
namespace serve {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadRequest:
        return "bad_request";
    case ErrorCode::QueueFull:
        return "queue_full";
    case ErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    case ErrorCode::Cancelled:
        return "cancelled";
    case ErrorCode::ShuttingDown:
        return "shutting_down";
    case ErrorCode::Internal:
        return "internal";
    }
    return "internal";
}

std::int64_t
CompileRequest::dim(const std::string &key,
                    std::int64_t fallback) const
{
    auto it = dims.find(key);
    return it == dims.end() ? fallback : it->second;
}

WarmStartMode
CompileRequest::warmMode(WarmStartMode fallback) const
{
    if (warmStart.empty())
        return fallback;
    auto mode = warmStartModeFromName(warmStart);
    expect(mode.has_value(), "request: unknown warm_start mode '",
           warmStart, "' (off|neighbors|model|both)");
    return *mode;
}

std::string
CompileRequest::cacheKey() const
{
    return serveCacheKey(computationFromRequest(*this),
                         hardwareFromRequest(*this), *this,
                         warmMode(), nullptr);
}

Json
CompileRequest::toJson() const
{
    Json out = Json::object();
    out.set("type", Json("compile"));
    if (!id.empty())
        out.set("id", Json(id));
    out.set("op", Json(op));
    for (const auto &[key, value] : dims)
        out.set(key, Json(value));
    out.set("hw", Json(hw));
    if (dtype != "f16")
        out.set("dtype", Json(dtype));
    out.set("generations", Json(generations));
    out.set("seed", Json(static_cast<std::int64_t>(seed)));
    out.set("threads", Json(numThreads));
    if (deadlineMs > 0)
        out.set("deadline_ms", Json(deadlineMs));
    if (!traceId.empty())
        out.set("trace_id", Json(traceId));
    if (explain)
        out.set("explain", Json(true));
    if (!warmStart.empty())
        out.set("warm_start", Json(warmStart));
    return out;
}

CompileRequest
CompileRequest::fromJson(const Json &json)
{
    expect(json.kind() == Json::Kind::Object,
           "request: expected a JSON object");
    CompileRequest req;
    for (const auto &[key, value] : json.entries()) {
        if (key == "type") {
            const auto &type = stringField(key, value);
            expect(type == "compile",
                   "request: type must be 'compile', got '", type,
                   "'");
        } else if (key == "id") {
            req.id = correlationId(value);
        } else if (key == "op") {
            req.op = stringField(key, value);
        } else if (key == "hw") {
            req.hw = stringField(key, value);
        } else if (key == "dtype") {
            req.dtype = stringField(key, value);
        } else if (key == "generations") {
            req.generations = static_cast<int>(intField(key, value));
            expect(req.generations >= 1,
                   "request: generations must be >= 1");
        } else if (key == "seed") {
            req.seed = static_cast<std::uint64_t>(intField(key, value));
        } else if (key == "threads") {
            req.numThreads = static_cast<int>(intField(key, value));
        } else if (key == "deadline_ms") {
            req.deadlineMs = numberField(key, value);
            expect(req.deadlineMs >= 0,
                   "request: deadline_ms must be >= 0");
        } else if (key == "trace_id") {
            req.traceId = correlationId(value);
        } else if (key == "explain") {
            req.explain = value.kind() == Json::Kind::Bool
                              ? value.asBool()
                              : intField(key, value) != 0;
        } else if (key == "warm_start") {
            req.warmStart = stringField(key, value);
            req.warmMode(); // an unknown mode is a bad request
        } else {
            // Every other field is a dimension knob.
            req.dims[key] = intField(key, value);
        }
    }
    return req;
}

namespace {

/** Retype the float base computation per the request's dtype knob. */
TensorComputation
applyRequestDtype(TensorComputation comp, const std::string &dtype)
{
    if (dtype == "f16")
        return comp;
    if (dtype == "f32") {
        std::vector<DataType> inputs(comp.inputs().size(),
                                     DataType::F32);
        return comp.withOperandDtypes(inputs, DataType::F32);
    }
    if (dtype == "bf16")
        return ops::bf16Variant(comp);
    if (dtype == "i8")
        return ops::quantizedVariant(comp, DataType::I8,
                                     DataType::I8);
    if (dtype == "u8i8")
        return ops::quantizedVariant(comp);
    fatal("unknown dtype '", dtype, "' (f16|f32|bf16|i8|u8i8)");
}

/** The float (f16) base computation a request's shape describes. */
TensorComputation
floatComputationFromRequest(const CompileRequest &req)
{
    ops::ConvParams pr;
    pr.batch = req.dim("batch", 1);
    pr.in_channels = req.dim("cin", 64);
    pr.out_channels = req.dim("cout", 64);
    pr.out_h = pr.out_w = req.dim("size", 14);
    pr.kernel_h = pr.kernel_w = req.dim("kernel", 3);
    pr.stride = req.dim("stride", 1);
    pr.dilation = req.dim("dilation", 1);

    if (req.op == "gemm")
        return ops::makeGemm(req.dim("m", 256), req.dim("n", 256),
                             req.dim("k", 256));
    if (req.op == "gemv")
        return ops::makeGemv(req.dim("m", 1024), req.dim("k", 1024));
    if (req.op == "conv1d")
        return ops::makeConv1d(pr.batch, pr.in_channels,
                               pr.out_channels, req.dim("size", 64),
                               pr.kernel_h, pr.stride);
    if (req.op == "conv2d")
        return ops::makeConv2d(pr);
    if (req.op == "conv3d")
        return ops::makeConv3d(pr, req.dim("depth", 8),
                               req.dim("kdepth", 3));
    if (req.op == "depthwise")
        return ops::makeDepthwiseConv2d(pr,
                                        req.dim("multiplier", 1));
    if (req.op == "group")
        return ops::makeGroupConv2d(pr, req.dim("groups", 4));
    if (req.op == "dilated")
        return ops::makeDilatedConv2d(pr);
    if (req.op == "transposed")
        return ops::makeTransposedConv2d(pr);
    fatal("unknown op '", req.op,
          "' (gemm|gemv|conv1d|conv2d|conv3d|depthwise|group|"
          "dilated|transposed)");
}

} // namespace

TensorComputation
computationFromRequest(const CompileRequest &req)
{
    return applyRequestDtype(floatComputationFromRequest(req),
                             req.dtype);
}

HardwareSpec
hardwareFromRequest(const CompileRequest &req)
{
    return hw::byName(req.hw);
}

double
numberField(const std::string &field, const Json &value)
{
    expect(value.kind() == Json::Kind::Number, "request: field '",
           field, "' must be a number");
    return value.asNumber();
}

std::int64_t
intField(const std::string &field, const Json &value)
{
    numberField(field, value);
    return value.asInt();
}

const std::string &
stringField(const std::string &field, const Json &value)
{
    expect(value.kind() == Json::Kind::String, "request: field '",
           field, "' must be a string");
    return value.asString();
}

std::string
correlationId(const Json &value)
{
    return value.kind() == Json::Kind::String ? value.asString()
                                              : value.dump();
}

std::string
serveCacheKey(const TensorComputation &comp, const HardwareSpec &hw,
              const CompileRequest &req, WarmStartMode mode,
              const LearnedModel *model)
{
    // Operator shape + hardware (the TuningCache key) extended with
    // the search knobs: a deeper search is a different artifact.
    std::ostringstream key;
    key << TuningCache::keyFor(comp, hw) << "/g" << req.generations
        << "_s" << req.seed;
    // A warm-started exploration walks a different trajectory, so
    // the mode (and a model mode's snapshot) is part of the
    // artifact's identity; off keeps the historical key so persisted
    // caches stay valid.
    if (mode != WarmStartMode::Off) {
        key << "/w" << warmStartModeName(mode);
        if (model && warmStartUsesModel(mode))
            key << "-m" << model->digest().substr(0, 8);
    }
    return key.str();
}

TuneOptions
tuneOptionsFromRequest(const CompileRequest &req, WarmStartMode mode)
{
    TuneOptions options;
    options.generations = req.generations;
    options.seed = req.seed;
    options.numThreads = req.numThreads;
    options.warmStart.mode = mode;
    if (mode != WarmStartMode::Off)
        options.warmStart.patience = kWarmStartPatience;
    return options;
}

TuneOptions
tuneOptionsFromRequest(const CompileRequest &req)
{
    return tuneOptionsFromRequest(req, req.warmMode());
}

Json
compileResultToJson(const CompileResult &result,
                    bool includePseudoCode)
{
    Json out = Json::object();
    out.set("tensorized", Json(result.tensorized));
    out.set("used_scalar_code", Json(result.usedScalarCode));
    out.set("cycles", Json(result.cycles));
    out.set("milliseconds", Json(result.milliseconds));
    out.set("gflops", Json(result.gflops));
    out.set("mappings_explored",
            Json(static_cast<std::int64_t>(
                result.mappingsExplored)));
    out.set("measurements", Json(result.measurements));
    out.set("mapping_signature", Json(result.mappingSignature));
    out.set("compute_mapping", Json(result.computeMapping));
    out.set("memory_mapping", Json(result.memoryMapping));
    if (includePseudoCode)
        out.set("pseudo_code", Json(result.pseudoCode));
    return out;
}

} // namespace serve
} // namespace amos
