/**
 * @file
 * Statistics, seeds, and the amos_served child process with its
 * closed-loop NDJSON client.
 */

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench {

void
RunOutcome::fail(const std::string &why)
{
    ++failed;
    correct = false;
    if (failed <= 5)
        std::fprintf(stderr, "amos_bench: check failed: %s\n",
                     why.c_str());
}

// ---- statistics -------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    auto hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logs = 0.0;
    for (double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

Tail
tailOf(const std::vector<double> &values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::size_t n = sorted.size();
    tail.beyond = std::min<std::size_t>(10, n - 1);
    tail.value = sorted[n - 1 - tail.beyond];
    tail.percentile = 100.0 * static_cast<double>(n - tail.beyond) /
                      static_cast<double>(n);
    return tail;
}

amos::Json
latencySummary(const std::vector<double> &values)
{
    Tail tail = tailOf(values);
    amos::Json out = amos::Json::object();
    out.set("n", amos::Json(static_cast<std::int64_t>(values.size())));
    out.set("p50_ms", amos::Json(median(values)));
    out.set("tail_ms", amos::Json(tail.value));
    out.set("tail_percentile", amos::Json(tail.percentile));
    out.set("beyond", amos::Json(static_cast<std::int64_t>(tail.beyond)));
    return out;
}

// ---- seeds ------------------------------------------------------

std::uint64_t
mix64(std::uint64_t x)
{
    // splitmix64 finaliser: a fixed, portable bijection.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return mix64(mix64(mix64(seed) ^ a) ^ (b * 0x632be59bd9b4e019ull)) &
           0x7fffffffull;
}

double
unitDraw(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t bits = mix64(mix64(mix64(seed ^ 0x5bd1e995) ^ a) ^ b);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t
fnv1a(const std::string &data, std::uint64_t h)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

CpuTimes
readCpuTimes()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    stat >> cpu;
    for (double &v : f)
        stat >> v;
    // user nice system idle iowait irq softirq steal
    double total = 0.0;
    for (double v : f)
        total += v;
    return {total, f[7]};
}

double
stealShare(const CpuTimes &from, const CpuTimes &to)
{
    double total = to.total - from.total;
    return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ---- requests and responses -------------------------------------

std::string
RequestSpec::line(const std::string &id) const
{
    std::ostringstream out;
    out << "{\"type\":\"compile\",\"id\":\"" << id << "\",\"op\":\""
        << op << "\"";
    for (const auto &[key, value] : dims)
        out << ",\"" << key << "\":" << value;
    out << ",\"hw\":\"" << hw << "\"";
    if (dtype != "f16")
        out << ",\"dtype\":\"" << dtype << "\"";
    out << ",\"generations\":" << generations << ",\"seed\":" << seed
        << ",\"threads\":" << threads << "}";
    return out.str();
}

namespace {

/**
 * Minimal JSON walker: records every scalar by its dotted path. The
 * client uses it instead of the program's own parser so that a
 * change to amos::Json does not move the client's cost.
 */
class FieldScanner
{
  public:
    FieldScanner(const std::string &text,
                 std::map<std::string, std::string> &out)
        : _s(text), _out(out)
    {}

    void
    run()
    {
        skipWs();
        value("");
    }

  private:
    void
    skipWs()
    {
        while (_i < _s.size() && std::isspace(
                                     static_cast<unsigned char>(_s[_i])))
            ++_i;
    }

    std::string
    string()
    {
        std::string out;
        ++_i; // opening quote
        while (_i < _s.size() && _s[_i] != '"') {
            if (_s[_i] == '\\' && _i + 1 < _s.size()) {
                out += _s[_i];
                ++_i;
            }
            out += _s[_i++];
        }
        if (_i >= _s.size())
            throw std::runtime_error("unterminated string");
        ++_i;
        return out;
    }

    void
    value(const std::string &path)
    {
        skipWs();
        if (_i >= _s.size())
            throw std::runtime_error("truncated response");
        char c = _s[_i];
        if (c == '{' || c == '[') {
            char close = c == '{' ? '}' : ']';
            ++_i;
            std::size_t index = 0;
            for (;;) {
                skipWs();
                if (_i < _s.size() && _s[_i] == close) {
                    ++_i;
                    return;
                }
                std::string key;
                if (c == '{') {
                    key = string();
                    skipWs();
                    if (_i >= _s.size() || _s[_i] != ':')
                        throw std::runtime_error("expected ':'");
                    ++_i;
                } else {
                    key = std::to_string(index++);
                }
                value(path.empty() ? key : path + "." + key);
                skipWs();
                if (_i < _s.size() && _s[_i] == ',')
                    ++_i;
                else if (_i >= _s.size() || _s[_i] != close)
                    throw std::runtime_error("expected ',' or close");
            }
        }
        if (c == '"') {
            _out[path] = string();
            return;
        }
        std::size_t start = _i;
        while (_i < _s.size() && _s[_i] != ',' && _s[_i] != '}' &&
               _s[_i] != ']' &&
               !std::isspace(static_cast<unsigned char>(_s[_i])))
            ++_i;
        _out[path] = _s.substr(start, _i - start);
    }

    const std::string &_s;
    std::map<std::string, std::string> &_out;
    std::size_t _i = 0;
};

} // namespace

Response
parseResponse(const std::string &line)
{
    Response r;
    r.bytes = line.size() + 1;
    FieldScanner(line, r.fields).run();
    auto field = [&](const char *key) {
        auto it = r.fields.find(key);
        return it == r.fields.end() ? std::string() : it->second;
    };
    r.id = field("id");
    r.ok = field("ok") == "true";
    r.servedBy = field("served_by");
    r.errorCode = field("error.code");
    r.cycles = field("result.cycles");
    r.signature = field("result.mapping_signature");
    std::string wait = field("queue_wait_ms");
    r.queueWaitMs = wait.empty() ? 0.0 : std::strtod(wait.c_str(), nullptr);
    return r;
}

// ---- the server process -----------------------------------------

ServedProcess::ServedProcess(const std::string &binary,
                             const std::vector<std::string> &args,
                             const std::string &stderrPath)
{
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 ||
        pipe2(from_child, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " +
                                 std::string(std::strerror(errno)));
    int err = ::open(stderrPath.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    std::vector<std::string> argv_s = {binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    _pid = fork();
    if (_pid < 0)
        throw std::runtime_error("fork failed");
    if (_pid == 0) {
        dup2(to_child[0], 0);
        dup2(from_child[1], 1);
        if (err >= 0)
            dup2(err, 2);
        execv(binary.c_str(), argv.data());
        _exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (err >= 0)
        ::close(err);
    _in = to_child[1];
    _out = from_child[0];
}

ServedProcess::~ServedProcess()
{
    if (_in >= 0)
        ::close(_in);
    if (_out >= 0)
        ::close(_out);
    if (_pid > 0) {
        ::kill(_pid, SIGKILL);
        int status = 0;
        waitpid(_pid, &status, 0);
    }
}

void
ServedProcess::send(const std::string &line)
{
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(_in, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("amos_served closed its input");
        off += static_cast<std::size_t>(n);
    }
}

bool
ServedProcess::readLine(std::string &line, Clock::time_point &at)
{
    for (;;) {
        auto nl = _buf.find('\n');
        if (nl != std::string::npos) {
            line = _buf.substr(0, nl);
            _buf.erase(0, nl + 1);
            at = _bufAt;
            return true;
        }
        char chunk[65536];
        ssize_t n = ::read(_out, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        _bufAt = Clock::now();
        _buf.append(chunk, static_cast<std::size_t>(n));
    }
}

std::string
ServedProcess::control(const std::string &type)
{
    send("{\"type\":\"" + type + "\",\"id\":\"control\"}");
    std::string line;
    Clock::time_point at;
    if (!readLine(line, at))
        throw std::runtime_error("amos_served exited during " + type);
    return line;
}

int
ServedProcess::shutdown()
{
    send("{\"type\":\"shutdown\"}");
    ::close(_in);
    _in = -1;
    std::string line;
    Clock::time_point at;
    while (readLine(line, at)) {
    }
    ::close(_out);
    _out = -1;
    int status = 0;
    waitpid(_pid, &status, 0);
    _pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double
spawnAndTime(std::unique_ptr<ServedProcess> &server,
             const RunConfig &cfg, const std::string &cacheDir)
{
    auto t0 = Clock::now();
    server = std::make_unique<ServedProcess>(
        cfg.servedPath, std::vector<std::string>{"--cache-dir", cacheDir},
        cfg.runDir + "/served.log");
    Response r = parseResponse(server->control("healthz"));
    double seconds = msSince(t0) / 1e3;
    if (!r.ok)
        throw std::runtime_error("amos_served did not come up");
    return seconds;
}

void
runClosedLoop(ServedProcess &server, std::size_t clients,
              const NextRequest &next, const OnCompleted &done,
              const std::vector<std::size_t> &first)
{
    struct Outstanding
    {
        std::size_t client;
        std::size_t index;
        Clock::time_point sent;
    };
    std::map<std::string, Outstanding> outstanding;
    auto issue = [&](std::size_t client, std::size_t index) {
        std::string id = "c";
        id += std::to_string(client);
        id += '-';
        id += std::to_string(index);
        auto line = next(client, index, id);
        if (!line)
            return;
        outstanding[id] = {client, index, Clock::now()};
        server.send(*line);
    };
    for (std::size_t c = 0; c < clients; ++c)
        issue(c, c < first.size() ? first[c] : 0);
    std::string line;
    Clock::time_point at;
    while (!outstanding.empty()) {
        if (!server.readLine(line, at))
            throw std::runtime_error("amos_served exited mid-run");
        Completed done_req;
        done_req.response = parseResponse(line);
        auto it = outstanding.find(done_req.response.id);
        if (it == outstanding.end())
            throw std::runtime_error("unexpected response: " + line);
        done_req.client = it->second.client;
        done_req.index = it->second.index;
        done_req.sent = it->second.sent;
        done_req.received = at;
        done_req.latencyMs = msBetween(done_req.sent, at);
        outstanding.erase(it);
        done(done_req);
        issue(done_req.client, done_req.index + 1);
    }
}

} // namespace perfbench
