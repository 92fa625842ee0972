#include "flight_recorder.hh"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "support/metrics.hh"

namespace amos {

namespace {

constexpr std::size_t kDefaultCapacity = 4096;

/// Marks a value cut to fit the inline args budget.
constexpr std::string_view kCutMarker = "...";

thread_local std::uint64_t tls_flight_seq = 0;

/**
 * One-entry thread-local (recorder, ring) cache: only the global
 * recorder is hot, tests with private instances re-register on the
 * owner switch.
 */
struct TlsRingCache
{
    const void *owner = nullptr;
    void *ring = nullptr;
};
thread_local TlsRingCache tls_ring_cache;

/** Calls fn(key, value) for each arg of the record, in order. */
template <typename Fn>
void
forEachArg(const FlightRecord &record, Fn &&fn)
{
    std::string_view rest(record.args, kFlightArgBytes);
    while (!rest.empty() && rest.front() != '\0') {
        std::size_t key_end = rest.find('\0');
        std::size_t value_end = rest.find('\0', key_end + 1);
        if (value_end == std::string_view::npos)
            return; // torn record (crash dump): stop, never overrun
        fn(rest.substr(0, key_end),
           rest.substr(key_end + 1, value_end - key_end - 1));
        rest.remove_prefix(value_end + 1);
    }
}

/// @name Async-signal-safe formatting (crashDump only).
/// @{

void
safeWrite(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n <= 0)
            return; // best effort; EINTR retry is not worth it here
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

void
safeWriteStr(int fd, const char *s)
{
    safeWrite(fd, s, std::strlen(s));
}

/** Unsigned decimal into a caller buffer; returns the length. */
std::size_t
formatU64(std::uint64_t value, char *buf)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value > 0);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    buf[n] = '\0';
    return n;
}

void
safeWriteU64(int fd, std::uint64_t value)
{
    char buf[24];
    safeWrite(fd, buf, formatU64(value, buf));
}

/** Microseconds as an integer — sub-us precision is noise here. */
void
safeWriteUs(int fd, double us)
{
    if (us < 0)
        us = 0;
    safeWriteU64(fd, static_cast<std::uint64_t>(us));
}

/// @}

Json
recordToJson(const FlightRecord &r)
{
    Json out = Json::object();
    out.set("name", Json(r.name ? r.name : ""));
    out.set("cat", Json(r.category ? r.category : ""));
    out.set("start_us", Json(r.startUs));
    out.set("dur_us", Json(r.durUs));
    if (r.args[0] != '\0')
        out.set("args", flightArgsJson(r));
    return out;
}

} // namespace

std::size_t
appendFlightArg(FlightRecord &record, std::size_t used,
                std::string_view key, std::string_view value)
{
    // Room for "key\0value\0" plus the terminating empty key.
    std::size_t room = used < kFlightArgBytes
                           ? kFlightArgBytes - used - 1
                           : 0;
    std::size_t fixed = key.size() + 2;
    bool whole = fixed + value.size() <= room;
    if (!whole && fixed + kCutMarker.size() > room)
        return used; // not even the marker fits: drop the arg whole
    char *out = record.args + used;
    std::memcpy(out, key.data(), key.size());
    out += key.size();
    *out++ = '\0';
    std::size_t keep =
        whole ? value.size() : room - fixed - kCutMarker.size();
    std::memcpy(out, value.data(), keep);
    out += keep;
    if (!whole) {
        std::memcpy(out, kCutMarker.data(), kCutMarker.size());
        out += kCutMarker.size();
    }
    *out++ = '\0';
    *out = '\0';
    return static_cast<std::size_t>(out - record.args);
}

Json
flightArgsJson(const FlightRecord &record)
{
    Json args = Json::object();
    forEachArg(record,
               [&](std::string_view key, std::string_view value) {
                   args.set(std::string(key), Json(std::string(value)));
               });
    return args;
}

bool
spanBefore(const FlightRecord &a, const FlightRecord &b)
{
    if (a.startUs != b.startUs)
        return a.startUs < b.startUs;
    return a.durUs > b.durUs;
}

namespace {

struct TreeNode
{
    const FlightRecord *record;
    std::vector<std::size_t> children;
};

Json
nodeToJson(const std::vector<TreeNode> &nodes, std::size_t index)
{
    Json out = recordToJson(*nodes[index].record);
    if (!nodes[index].children.empty()) {
        Json children = Json::array();
        for (auto c : nodes[index].children)
            children.push(nodeToJson(nodes, c));
        out.set("children", std::move(children));
    }
    return out;
}

} // namespace

Json
spanTree(const std::vector<FlightRecord> &records)
{
    // Parent = innermost already-placed span that contains this one
    // in time.
    std::vector<TreeNode> nodes;
    std::vector<std::size_t> roots;
    std::vector<std::size_t> stack; // indices of open ancestors
    for (const auto &record : records) {
        nodes.push_back({&record, {}});
        std::size_t index = nodes.size() - 1;
        while (!stack.empty()) {
            const FlightRecord &top = *nodes[stack.back()].record;
            if (record.startUs >= top.startUs &&
                record.startUs + record.durUs <=
                    top.startUs + top.durUs + 1e-6)
                break;
            stack.pop_back();
        }
        if (stack.empty())
            roots.push_back(index);
        else
            nodes[stack.back()].children.push_back(index);
        stack.push_back(index);
    }
    Json tree = Json::array();
    for (auto r : roots)
        tree.push(nodeToJson(nodes, r));
    return tree;
}

FlightRecorder::FlightRecorder()
    : _capacity(kDefaultCapacity),
      _overwritten(
          MetricsRegistry::global().counter("trace.dropped_spans")),
      _epoch(std::chrono::steady_clock::now())
{}

std::uint64_t
FlightRecorder::beginRequest()
{
    return _nextSeq.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::currentSeq()
{
    return tls_flight_seq;
}

void
FlightRecorder::setRecordAll(bool recordAll)
{
    _recordAll.store(recordAll, std::memory_order_relaxed);
}

FlightRecorder::Ring &
FlightRecorder::threadRing()
{
    if (tls_ring_cache.owner == this)
        return *static_cast<Ring *>(tls_ring_cache.ring);
    auto ring = std::make_shared<Ring>();
    ring->slots.resize(_capacity.load(std::memory_order_relaxed));
    {
        std::lock_guard<std::mutex> lock(_registryMutex);
        ring->tid = _nextTid++;
        _rings.push_back(ring);
    }
    // The shared_ptr in _rings keeps the ring alive for the
    // recorder's lifetime; the raw cached pointer stays valid after
    // the owning thread exits.
    tls_ring_cache.owner = this;
    tls_ring_cache.ring = ring.get();
    return *ring;
}

void
FlightRecorder::push(const FlightRecord &record)
{
    Ring &ring = threadRing();
    std::lock_guard<std::mutex> lock(ring.mutex);
    if (ring.slots.empty())
        return;
    if (ring.used == ring.slots.size())
        _overwritten.add();
    else
        ++ring.used;
    FlightRecord &slot = ring.slots[ring.next];
    slot = record;
    slot.tid = ring.tid;
    ring.next = (ring.next + 1) % ring.slots.size();
}

template <typename Fn>
void
FlightRecorder::forEachRecord(Fn &&fn) const
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    for (const auto &ring : _rings) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        std::size_t size = ring->slots.size();
        if (size == 0 || ring->used == 0)
            continue;
        // Oldest-first: the ring wraps at `next`.
        std::size_t start =
            (ring->next + size - ring->used) % size;
        for (std::size_t i = 0; i < ring->used; ++i)
            fn(ring->slots[(start + i) % size]);
    }
}

std::vector<FlightRecord>
FlightRecorder::harvest(std::uint64_t seq) const
{
    std::vector<FlightRecord> out;
    forEachRecord([&](const FlightRecord &r) {
        if (r.seq == seq)
            out.push_back(r);
    });
    std::sort(out.begin(), out.end(), spanBefore);
    return out;
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    forEachRecord([&](const FlightRecord &r) { out.push_back(r); });
    std::sort(out.begin(), out.end(), spanBefore);
    return out;
}

Json
FlightRecorder::spanTreeFor(std::uint64_t seq) const
{
    Json out = Json::object();
    out.set("flight_seq", Json(static_cast<std::int64_t>(seq)));
    out.set("spans", spanTree(harvest(seq)));
    return out;
}

Json
FlightRecorder::dumpJson() const
{
    Json records = Json::array();
    for (const auto &r : snapshot()) {
        Json rec = recordToJson(r);
        rec.set("seq", Json(static_cast<std::int64_t>(r.seq)));
        rec.set("tid", Json(static_cast<std::int64_t>(r.tid)));
        records.push(std::move(rec));
    }
    Json out = Json::object();
    out.set("records", std::move(records));
    out.set("overwritten",
            Json(static_cast<std::int64_t>(overwrittenCount())));
    return out;
}

Json
FlightRecorder::chromeJson() const
{
    Json events = Json::array();
    for (const auto &r : snapshot()) {
        Json event = Json::object();
        event.set("name", Json(r.name ? r.name : ""));
        event.set("cat", Json(r.category ? r.category : ""));
        event.set("ph", Json("X"));
        event.set("ts", Json(r.startUs));
        event.set("dur", Json(r.durUs));
        event.set("pid", Json(1));
        event.set("tid", Json(static_cast<std::int64_t>(r.tid)));
        Json args = flightArgsJson(r);
        if (r.seq != 0)
            args.set("flight_seq",
                     Json(static_cast<std::int64_t>(r.seq)));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    Json other = Json::object();
    other.set("dropped_spans",
              Json(static_cast<std::int64_t>(overwrittenCount())));
    Json out = Json::object();
    out.set("traceEvents", std::move(events));
    out.set("displayTimeUnit", Json("ms"));
    out.set("otherData", std::move(other));
    return out;
}

std::size_t
FlightRecorder::recordCount() const
{
    std::size_t count = 0;
    std::lock_guard<std::mutex> lock(_registryMutex);
    for (const auto &ring : _rings) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        count += ring->used;
    }
    return count;
}

std::uint64_t
FlightRecorder::overwrittenCount() const
{
    return _overwritten.value();
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    for (auto &ring : _rings) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        ring->next = 0;
        ring->used = 0;
    }
}

void
FlightRecorder::crashDump(int fd) const noexcept
{
    // Deliberately lock-free: the faulting thread may hold a ring
    // mutex (or the registry mutex — then we lose the dump, not the
    // process). _rings only ever grows and shared_ptrs are never
    // removed, so walking a stale snapshot of the vector is safe in
    // practice for a best-effort crash artifact.
    safeWriteStr(fd, "=== amos flight recorder dump ===\n");
    for (std::size_t ri = 0; ri < _rings.size(); ++ri) {
        const Ring *ring = _rings[ri].get();
        if (ring == nullptr)
            continue;
        std::size_t size = ring->slots.size();
        std::size_t used = ring->used;
        if (size == 0 || used == 0 || used > size)
            continue;
        std::size_t start = (ring->next + size - used) % size;
        for (std::size_t i = 0; i < used; ++i) {
            const FlightRecord &r =
                ring->slots[(start + i) % size];
            safeWriteStr(fd, "flight tid=");
            safeWriteU64(fd, ring->tid);
            safeWriteStr(fd, " seq=");
            safeWriteU64(fd, r.seq);
            safeWriteStr(fd, " start_us=");
            safeWriteUs(fd, r.startUs);
            safeWriteStr(fd, " dur_us=");
            safeWriteUs(fd, r.durUs);
            safeWriteStr(fd, " ");
            if (r.name != nullptr)
                safeWriteStr(fd, r.name);
            bool any = false;
            forEachArg(r, [&](std::string_view key,
                              std::string_view value) {
                safeWriteStr(fd, any ? " " : " [");
                safeWrite(fd, key.data(), key.size());
                safeWriteStr(fd, "=");
                safeWrite(fd, value.data(), value.size());
                any = true;
            });
            if (any)
                safeWriteStr(fd, "]");
            safeWriteStr(fd, "\n");
        }
    }
    safeWriteStr(fd, "=== end flight recorder dump ===\n");
}

void
FlightRecorder::setCapacityPerThread(std::size_t capacity)
{
    _capacity.store(capacity, std::memory_order_relaxed);
}

std::size_t
FlightRecorder::capacityPerThread() const
{
    return _capacity.load(std::memory_order_relaxed);
}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

FlightScope::FlightScope(std::uint64_t seq)
    : _previous(tls_flight_seq)
{
    tls_flight_seq = seq;
}

FlightScope::~FlightScope()
{
    tls_flight_seq = _previous;
}

} // namespace amos
