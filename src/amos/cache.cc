#include "cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>

#include "support/logging.hh"
#include "support/subprocess.hh"

namespace amos {

Json
mappingToJson(const ComputeMapping &mapping)
{
    Json groups = Json::array();
    for (const auto &group : mapping.groups) {
        Json members = Json::array();
        for (auto s : group)
            members.push(Json(static_cast<std::int64_t>(s)));
        groups.push(std::move(members));
    }
    Json out = Json::object();
    out.set("groups", std::move(groups));
    return out;
}

ComputeMapping
mappingFromJson(const Json &json)
{
    ComputeMapping mapping;
    const Json &groups = json.get("groups");
    for (std::size_t k = 0; k < groups.size(); ++k) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < groups.at(k).size(); ++i) {
            auto v = groups.at(k).at(i).asInt();
            expect(v >= 0, "cache: negative iterator index");
            members.push_back(static_cast<std::size_t>(v));
        }
        mapping.groups.push_back(std::move(members));
    }
    return mapping;
}

Json
scheduleToJson(const Schedule &sched)
{
    Json axes = Json::array();
    for (const auto &axis : sched.axes) {
        Json a = Json::object();
        a.set("block", Json(axis.blockFactor));
        a.set("warp", Json(axis.warpFactor));
        axes.push(std::move(a));
    }
    Json out = Json::object();
    out.set("axes", std::move(axes));
    out.set("stage", Json(sched.stageDepth));
    out.set("vector", Json(sched.vectorLanes));
    out.set("unroll", Json(sched.unrollDepth));
    return out;
}

Schedule
scheduleFromJson(const Json &json)
{
    Schedule sched;
    const Json &axes = json.get("axes");
    for (std::size_t i = 0; i < axes.size(); ++i) {
        AxisSchedule axis;
        axis.blockFactor = axes.at(i).get("block").asInt();
        axis.warpFactor = axes.at(i).get("warp").asInt();
        expect(axis.blockFactor >= 1 && axis.warpFactor >= 1,
               "cache: non-positive schedule factor");
        sched.axes.push_back(axis);
    }
    sched.stageDepth = static_cast<int>(json.get("stage").asInt());
    sched.vectorLanes = static_cast<int>(json.get("vector").asInt());
    sched.unrollDepth = static_cast<int>(json.get("unroll").asInt());
    return sched;
}

Json
CacheEntry::toJson() const
{
    Json out = Json::object();
    out.set("intrinsic", Json(intrinsicName));
    out.set("mapping", mappingToJson(mapping));
    out.set("schedule", scheduleToJson(schedule));
    out.set("cycles", Json(cycles));
    return out;
}

CacheEntry
CacheEntry::fromJson(const Json &json)
{
    CacheEntry entry;
    entry.intrinsicName = json.get("intrinsic").asString();
    entry.mapping = mappingFromJson(json.get("mapping"));
    entry.schedule = scheduleFromJson(json.get("schedule"));
    entry.cycles = json.get("cycles").asNumber();
    return entry;
}

std::optional<MappingPlan>
CacheEntry::instantiate(const TensorComputation &comp,
                        const HardwareSpec &hw) const
{
    for (const auto &intr : hw.intrinsics) {
        if (intr.name() != intrinsicName)
            continue;
        if (mapping.groups.size() != intr.compute.numIters())
            return std::nullopt;
        for (const auto &group : mapping.groups)
            for (auto s : group)
                if (s >= comp.numIters())
                    return std::nullopt;
        MappingPlan plan(comp, intr, mapping);
        if (!plan.valid())
            return std::nullopt;
        return plan;
    }
    return std::nullopt;
}

TuningCache::TuningCache(TuningCache &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other._mutex);
    _entries = std::move(other._entries);
}

std::string
TuningCache::keyFor(const TensorComputation &comp,
                    const HardwareSpec &hw)
{
    std::ostringstream key;
    key << hw.name << "/" << comp.name();
    for (const auto &iv : comp.iters())
        key << "_" << iv.extent;
    // Typed variants are distinct artifacts; the all-f16 default
    // keeps its historical key so persisted caches stay valid.
    bool allDefault = comp.output().dtype() == DataType::F16;
    for (const auto &in : comp.inputs())
        allDefault = allDefault && in.decl.dtype() == DataType::F16;
    if (!allDefault) {
        key << "/";
        for (const auto &in : comp.inputs())
            key << dtypeName(in.decl.dtype()) << "_";
        key << dtypeName(comp.output().dtype());
    }
    return key.str();
}

std::optional<CacheEntry>
TuningCache::tryGet(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    if (it == _entries.end())
        return std::nullopt;
    return it->second;
}

void
TuningCache::insert(const std::string &key, CacheEntry entry)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries[key] = std::move(entry);
}

std::size_t
TuningCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::vector<std::pair<std::string, CacheEntry>>
TuningCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::pair<std::string, CacheEntry>> out;
    out.reserve(_entries.size());
    for (const auto &[key, entry] : _entries)
        out.emplace_back(key, entry);
    return out;
}

Json
TuningCache::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json out = Json::object();
    for (const auto &[key, entry] : _entries)
        out.set(key, entry.toJson());
    return out;
}

TuningCache
TuningCache::fromJson(const Json &json)
{
    TuningCache cache;
    if (json.kind() != Json::Kind::Object) {
        warn("TuningCache: document root is not an object; "
             "starting empty");
        return cache;
    }
    for (const auto &[key, value] : json.entries()) {
        try {
            cache._entries[key] = CacheEntry::fromJson(value);
        } catch (const std::exception &e) {
            warn("TuningCache: skipping corrupt entry '", key,
                 "': ", e.what());
        }
    }
    return cache;
}

void
TuningCache::saveFile(const std::string &path) const
{
    // Write-temp-then-rename (support/subprocess.hh): a crash
    // mid-write leaves the previous file intact, a concurrent
    // loadFile sees either the old or the new document, and two
    // processes saving one path never share a temp file.
    writeFileAtomic(path, toJson().dump() + "\n");
}

namespace {

/**
 * Append the whole file at `path` to `text`, with one open and no
 * stream machinery: the disk tier of the serve layer reads one small
 * file per key. False when the file cannot be opened.
 */
bool
readFile(const std::string &path, std::string &text)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    char chunk[8192];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0)
            text.append(chunk, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break; // end of file, or unreadable (a directory)
    }
    ::close(fd);
    return true;
}

/** Unparseable content yields an empty cache with a warning. */
TuningCache
parseText(const std::string &text, const std::string &path)
{
    try {
        return TuningCache::fromJson(Json::parse(text));
    } catch (const std::exception &e) {
        // A truncated or corrupt file (crash mid-write predating the
        // atomic rename, disk fault) costs the cached entries, never
        // the process.
        warn("TuningCache: cannot parse ", path, " (", e.what(),
             "); starting empty");
        return TuningCache();
    }
}

} // namespace

TuningCache
TuningCache::loadFile(const std::string &path)
{
    std::string text;
    expect(readFile(path, text), "TuningCache: cannot read ", path);
    return parseText(text, path);
}

TuningCache
TuningCache::loadFileIfExists(const std::string &path)
{
    std::string text;
    return readFile(path, text) ? parseText(text, path) : TuningCache();
}

} // namespace amos
