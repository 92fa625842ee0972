/**
 * @file
 * Two-tier tuning cache for the compilation service.
 *
 * Tier 1 is a bounded in-memory LRU of CacheEntry values (hot
 * working set, lock-free of I/O). Tier 2 is an on-disk store of one
 * file per key, `<dir>/<hexKey(fnv1a(key))>.json`, each a one-entry
 * TuningCache document written with the crash-safe temp+rename
 * protocol, so a restarted server warms its memory tier from whatever
 * the previous process persisted. A disk hit is promoted into the
 * memory tier.
 *
 * The disk tier needs no lock, in a process or across processes:
 * distinct keys never share a file (a file holding another key's
 * entry, i.e. a hash collision, reads as a miss), and rename()
 * replaces a file atomically, so a reader sees the old or the new
 * document and same-key writers, which carry the same artifact, leave
 * the last rename's. A put rewrites one small file and a get reads
 * one, whatever the store's size.
 */

#ifndef AMOS_SERVE_TIERED_CACHE_HH
#define AMOS_SERVE_TIERED_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amos/cache.hh"
#include "support/lru.hh"
#include "support/metrics.hh"

namespace amos {
namespace serve {

/** In-memory LRU over an on-disk store of one file per key. */
class TieredCache
{
  public:
    struct Options
    {
        /// Memory-tier entry bound (0 = unbounded).
        std::size_t memoryCapacity = 256;
        /// Disk-tier directory; empty disables the disk tier.
        std::string diskDir;
    };

    /** Which tier answered a get(). */
    enum class Tier
    {
        None,
        Memory,
        Disk,
    };

    /**
     * `registry` (when given) receives the tier counters
     * (cache.memory_hits, cache.disk_hits, cache.misses, cache.puts,
     * cache.promotions); without one the cache counts into a private
     * registry reachable through metrics(). The registry must outlive
     * the cache.
     */
    explicit TieredCache(Options options,
                         MetricsRegistry *registry = nullptr);

    /** The registry the tier counters live in. */
    MetricsRegistry &metrics() { return *_metrics; }

    bool hasDisk() const { return !_options.diskDir.empty(); }
    std::size_t memorySize() const;

    /**
     * Look a key up, memory tier first; a disk hit is promoted into
     * memory. `tier` (when given) reports which tier answered.
     */
    std::optional<CacheEntry> get(const std::string &key,
                                  Tier *tier = nullptr);

    /** Insert into the memory tier and write the key's disk file. */
    void put(const std::string &key, const CacheEntry &entry);

    /**
     * Preload disk entries into the memory tier, in file-name order,
     * until it holds memoryCapacity of them (all of them when the
     * capacity is 0); returns the number loaded. Called once at
     * server start.
     */
    std::size_t warm();

    /** Entry files on disk (0 without a disk); parses none. */
    std::size_t diskSize() const;

    /**
     * Copy of the memory tier's (key, entry) pairs, taken under one
     * lock acquisition. Warm-start donor scans run over this copy —
     * never compute feature distances while holding the cache mutex
     * (it sits on the serve hot path).
     */
    std::vector<std::pair<std::string, CacheEntry>>
    snapshotMemory() const;

  private:
    /** Names of the entry files in the disk directory, sorted. */
    std::vector<std::string> entryFiles() const;

    Options _options;

    /// Private fallback registry when none is injected.
    std::unique_ptr<MetricsRegistry> _ownMetrics;
    MetricsRegistry *_metrics;
    MetricCounter &_memoryHits;
    MetricCounter &_diskHits;
    MetricCounter &_misses;
    MetricCounter &_puts;
    MetricCounter &_promotions;

    mutable std::mutex _memMutex;
    LruMap<std::string, CacheEntry> _memory;
};

} // namespace serve
} // namespace amos

#endif // AMOS_SERVE_TIERED_CACHE_HH
