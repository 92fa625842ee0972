/**
 * @file
 * Line-protocol front end of the compilation service: reads one
 * JSON request per line, writes one JSON response per line (order
 * not guaranteed — correlate by "id"), plus a deterministic
 * batch-replay mode that feeds a recorded request trace through the
 * service for benchmarking and CI smoke tests.
 *
 * Both loops put every line through one dispatcher (server.cc): the
 * 1 MiB line bound, JSON parse, "id" and "type" decoding, the
 * control verbs, CompileRequest decoding and the typed bad_request,
 * which carries the line's "id" whenever it could be read. The
 * loops differ only in where lines come from, how a compile is
 * answered, what "shutdown" does and what they count.
 */

#ifndef AMOS_SERVE_SERVER_HH
#define AMOS_SERVE_SERVER_HH

#include <atomic>
#include <istream>
#include <ostream>
#include <string>

#include "serve/service.hh"

namespace amos {
namespace serve {

/**
 * Serve newline-delimited JSON requests from `in`, writing
 * responses to `out`. Compile responses are produced by responder
 * tasks as their explorations finish, so a slow exploration never
 * blocks later requests; control verbs are answered inline;
 * "shutdown" (or EOF, or `stop` turning true) ends the loop. Pending
 * responses are flushed and the service drained before returning.
 *
 * Returns the number of lines rejected with bad_request.
 */
int serveStream(CompileService &service, std::istream &in,
                std::ostream &out,
                const std::atomic<bool> *stop = nullptr);

/**
 * Replay a request trace: a file of newline-delimited JSON requests
 * (blank lines and '#' comments skipped, "shutdown" ignored).
 * Requests are served strictly in order — deterministic cache
 * behaviour — with one response line each, followed by a final
 * stats line.
 *
 * Returns the number of lines rejected with bad_request plus the
 * number of compiles that failed.
 */
int replayTrace(CompileService &service, const std::string &path,
                std::ostream &out);

} // namespace serve
} // namespace amos

#endif // AMOS_SERVE_SERVER_HH
