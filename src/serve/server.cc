#include "server.hh"

#include <algorithm>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "support/logging.hh"

namespace amos {
namespace serve {

namespace {

/** Serialised writer: one response line per call, flushed. */
class LineWriter
{
  public:
    explicit LineWriter(std::ostream &out) : _out(out) {}

    void
    write(const Json &json)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _out << json.dump() << "\n";
        _out.flush();
    }

  private:
    std::ostream &_out;
    std::mutex _mutex;
};

/**
 * Admission bound on one request line: a line longer than this is
 * answered with a typed bad_request instead of being parsed, so a
 * runaway (or adversarial) client cannot make the server buffer and
 * parse an arbitrarily large document.
 */
constexpr std::size_t kMaxRequestBytes = 1 << 20; // 1 MiB

Json
protocolError(const std::string &id, const std::string &message)
{
    Json err = Json::object();
    err.set("code", Json(errorCodeName(ErrorCode::BadRequest)));
    err.set("message", Json(message));
    Json out = Json::object();
    if (!id.empty())
        out.set("id", Json(id));
    out.set("ok", Json(false));
    out.set("error", std::move(err));
    return out;
}

/**
 * Answer a side-channel verb: "stats" (JSON counters), "metrics"
 * (Prometheus text exposition carried in "body"), "healthz"
 * (liveness + drain state), "slowlog" (retained postmortems,
 * optional "limit" parameter), "flightdump" (write the flight rings
 * to "path"), "reload_model" (hot-swap the warm-start model snapshot
 * from "path"). `request` is the parsed request line, for verb
 * parameters. nullopt when `type` names no control verb.
 */
std::optional<Json>
controlResponse(CompileService &service, const std::string &type,
                const std::string &id, const Json &request)
{
    Json response = Json::object();
    if (!id.empty())
        response.set("id", Json(id));
    response.set("ok", Json(true));
    if (type == "stats") {
        response.set("stats", service.stats().toJson());
    } else if (type == "metrics") {
        response.set("content_type",
                     Json("text/plain; version=0.0.4"));
        response.set("body", Json(service.prometheusText()));
    } else if (type == "slowlog") {
        std::size_t limit = 0;
        if (request.has("limit"))
            limit = static_cast<std::size_t>(
                std::max<std::int64_t>(
                    0, intField("limit", request.get("limit"))));
        response.set("slowlog", service.slowlogJson(limit));
    } else if (type == "flightdump") {
        if (!request.has("path"))
            return protocolError(
                id, "flightdump requires a \"path\" parameter");
        Json result = service.flightDump(
            stringField("path", request.get("path")));
        bool ok = result.has("ok") && result.get("ok").asBool();
        response.set("ok", Json(ok));
        response.set("flightdump", std::move(result));
    } else if (type == "reload_model") {
        if (!request.has("path"))
            return protocolError(
                id, "reload_model requires a \"path\" parameter");
        Json result = service.reloadModel(
            stringField("path", request.get("path")));
        bool ok = result.has("ok") && result.get("ok").asBool();
        response.set("ok", Json(ok));
        response.set("reload_model", std::move(result));
    } else if (type == "healthz") {
        bool draining = service.draining();
        response.set("status",
                     Json(draining ? "draining" : "serving"));
        response.set("draining", Json(draining));
    } else {
        return std::nullopt;
    }
    return response;
}

/** What a request line leaves for its loop to do. */
enum class Dispatch
{
    Answered, ///< a control verb, answered
    Rejected, ///< answered with a typed bad_request
    Compile,  ///< a decoded compile request, for the loop to serve
    Shutdown, ///< the "shutdown" verb
};

/**
 * The request front end of both loops: bound the line, parse it,
 * decode "id" and "type", answer control verbs and protocol errors
 * on `writer`, and decode a compile into `req`. What stays with
 * each loop is where lines come from, how a compile is answered,
 * what "shutdown" does, and what it counts.
 */
Dispatch
dispatchLine(CompileService &service, const std::string &line,
             LineWriter &writer, CompileRequest &req)
{
    if (line.size() > kMaxRequestBytes) {
        writer.write(protocolError(
            "", "request line of " + std::to_string(line.size()) +
                    " bytes exceeds the " +
                    std::to_string(kMaxRequestBytes) + "-byte bound"));
        return Dispatch::Rejected;
    }
    std::string id;
    try {
        Json request = Json::parse(line);
        expect(request.kind() == Json::Kind::Object,
               "request: expected a JSON object");
        if (request.has("id"))
            id = correlationId(request.get("id"));
        std::string type = request.has("type")
                               ? stringField("type",
                                             request.get("type"))
                               : "compile";
        if (type == "shutdown")
            return Dispatch::Shutdown;
        if (type == "compile") {
            req = CompileRequest::fromJson(request);
            return Dispatch::Compile;
        }
        auto response = controlResponse(service, type, id, request);
        if (!response) {
            writer.write(protocolError(
                id, "unknown request type '" + type + "'"));
            return Dispatch::Rejected;
        }
        writer.write(*response);
        return Dispatch::Answered;
    } catch (const std::exception &e) {
        writer.write(protocolError(id, e.what()));
        return Dispatch::Rejected;
    }
}

} // namespace

int
serveStream(CompileService &service, std::istream &in,
            std::ostream &out, const std::atomic<bool> *stop)
{
    LineWriter writer(out);
    // Responders block in wait(); size them past the service's
    // workers so finished explorations never queue behind waits.
    ThreadPool responders(ThreadPool::resolveThreads(0) + 2);
    std::vector<std::future<void>> pending;
    int protocol_errors = 0;

    std::string line;
    while (!(stop && stop->load(std::memory_order_relaxed)) &&
           std::getline(in, line)) {
        if (line.empty())
            continue;
        CompileRequest req;
        Dispatch what = dispatchLine(service, line, writer, req);
        if (what == Dispatch::Shutdown)
            break;
        if (what == Dispatch::Rejected)
            ++protocol_errors;
        if (what != Dispatch::Compile)
            continue;

        auto ticket = service.submit(req);
        pending.push_back(responders.submit(
            [&service, &writer, ticket, req]() mutable {
                auto outcome = service.wait(ticket);
                writer.write(outcome.toJson(req.id));
            }));

        // Prune finished responders so a long-lived server's
        // bookkeeping stays bounded.
        if (pending.size() >= 64) {
            std::vector<std::future<void>> alive;
            for (auto &f : pending) {
                if (f.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    alive.push_back(std::move(f));
                else
                    f.get();
            }
            pending = std::move(alive);
        }
    }

    for (auto &f : pending)
        f.get();
    service.drain();
    return protocol_errors;
}

int
replayTrace(CompileService &service, const std::string &path,
            std::ostream &out)
{
    std::ifstream trace(path);
    expect(trace.good(), "replay: cannot read trace file ", path);

    LineWriter writer(out);
    int failed = 0;
    std::string line;
    while (std::getline(trace, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // Replay drains at end-of-trace anyway: "shutdown" is a no-op.
        CompileRequest req;
        Dispatch what = dispatchLine(service, line, writer, req);
        if (what == Dispatch::Rejected)
            ++failed;
        if (what != Dispatch::Compile)
            continue;
        auto outcome = service.serve(req);
        if (!outcome.ok)
            ++failed;
        writer.write(outcome.toJson(req.id));
    }

    Json final_stats = Json::object();
    final_stats.set("ok", Json(true));
    final_stats.set("stats", service.stats().toJson());
    writer.write(final_stats);
    return failed;
}

} // namespace serve
} // namespace amos
