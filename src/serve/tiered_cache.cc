#include "tiered_cache.hh"

#include <dirent.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "support/str_utils.hh"

namespace amos {
namespace serve {

namespace {

/** Name of a key's entry file in the disk directory. */
std::string
entryFileName(const std::string &key)
{
    return hexKey(fnv1a(key)) + ".json";
}

/** True for the names entryFileName() makes: 16 hex digits + .json. */
bool
isEntryFileName(const char *name)
{
    constexpr std::size_t kStem = 16;
    return std::strlen(name) == kStem + 5 &&
           std::strcmp(name + kStem, ".json") == 0 &&
           std::all_of(name, name + kStem, [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

} // namespace

TieredCache::TieredCache(Options options, MetricsRegistry *registry)
    : _options(std::move(options)),
      _ownMetrics(registry ? nullptr
                           : std::make_unique<MetricsRegistry>()),
      _metrics(registry ? registry : _ownMetrics.get()),
      _memoryHits(_metrics->counter("cache.memory_hits")),
      _diskHits(_metrics->counter("cache.disk_hits")),
      _misses(_metrics->counter("cache.misses")),
      _puts(_metrics->counter("cache.puts")),
      _promotions(_metrics->counter("cache.promotions")),
      _memory(_options.memoryCapacity)
{
    if (hasDisk())
        std::filesystem::create_directories(_options.diskDir);
}

std::size_t
TieredCache::memorySize() const
{
    std::lock_guard<std::mutex> lock(_memMutex);
    return _memory.size();
}

std::optional<CacheEntry>
TieredCache::get(const std::string &key, Tier *tier)
{
    if (tier)
        *tier = Tier::None;
    {
        std::lock_guard<std::mutex> lock(_memMutex);
        if (auto hit = _memory.get(key)) {
            if (tier)
                *tier = Tier::Memory;
            _memoryHits.add();
            return hit;
        }
    }
    if (!hasDisk()) {
        _misses.add();
        return std::nullopt;
    }

    auto found = TuningCache::loadFileIfExists(_options.diskDir + "/" +
                                               entryFileName(key))
                     .tryGet(key);
    if (!found) {
        _misses.add();
        return std::nullopt;
    }
    if (tier)
        *tier = Tier::Disk;
    _diskHits.add();
    _promotions.add();
    std::lock_guard<std::mutex> lock(_memMutex);
    _memory.put(key, *found);
    return found;
}

void
TieredCache::put(const std::string &key, const CacheEntry &entry)
{
    _puts.add();
    {
        std::lock_guard<std::mutex> lock(_memMutex);
        _memory.put(key, entry);
    }
    if (!hasDisk())
        return;
    TuningCache doc;
    doc.insert(key, entry);
    doc.saveFile(_options.diskDir + "/" + entryFileName(key));
}

std::size_t
TieredCache::warm()
{
    const std::size_t cap = _options.memoryCapacity;
    std::size_t loaded = 0;
    for (const auto &name : entryFiles()) {
        if (cap != 0 && loaded == cap)
            break;
        auto doc = TuningCache::loadFileIfExists(_options.diskDir + "/" +
                                                 name);
        for (auto &[key, entry] : doc.snapshot()) {
            // Another key's entry is a miss for get(); skip it here too.
            if (entryFileName(key) != name)
                continue;
            std::lock_guard<std::mutex> lock(_memMutex);
            _memory.put(key, std::move(entry));
            ++loaded;
        }
    }
    return loaded;
}

std::vector<std::pair<std::string, CacheEntry>>
TieredCache::snapshotMemory() const
{
    std::lock_guard<std::mutex> lock(_memMutex);
    return _memory.items();
}

std::vector<std::string>
TieredCache::entryFiles() const
{
    std::vector<std::string> names;
    // readdir() directly: std::filesystem builds a path per entry,
    // which cost more than the rest of the listing.
    DIR *dir = hasDisk() ? ::opendir(_options.diskDir.c_str()) : nullptr;
    if (!dir)
        return names;
    while (const dirent *entry = ::readdir(dir))
        if (isEntryFileName(entry->d_name))
            names.emplace_back(entry->d_name);
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
}

std::size_t
TieredCache::diskSize() const
{
    return entryFiles().size();
}

} // namespace serve
} // namespace amos
