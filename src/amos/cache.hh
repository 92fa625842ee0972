/**
 * @file
 * Tuning cache: persist the outcome of mapping/schedule exploration
 * so a production deployment tunes each (operator, hardware) pair
 * once. Entries serialise the compute mapping (iterator groups), the
 * schedule, and the winning intrinsic by name; they re-materialise
 * into a MappingPlan for any structurally identical computation.
 */

#ifndef AMOS_AMOS_CACHE_HH
#define AMOS_AMOS_CACHE_HH

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/hardware.hh"
#include "mapping/mapping.hh"
#include "schedule/schedule.hh"
#include "support/json.hh"

namespace amos {

/// @name Mapping / schedule serialisation.
/// @{
Json mappingToJson(const ComputeMapping &mapping);
ComputeMapping mappingFromJson(const Json &json);
Json scheduleToJson(const Schedule &sched);
Schedule scheduleFromJson(const Json &json);
/// @}

/** One persisted tuning outcome. */
struct CacheEntry
{
    std::string intrinsicName;
    ComputeMapping mapping;
    Schedule schedule;
    double cycles = 0.0;

    Json toJson() const;
    static CacheEntry fromJson(const Json &json);

    /**
     * Re-materialise the plan on a hardware spec; nullopt when the
     * named intrinsic is absent or the mapping no longer validates.
     */
    std::optional<MappingPlan> instantiate(
        const TensorComputation &comp, const HardwareSpec &hw) const;
};

/**
 * File-backed map from workload keys to cache entries.
 *
 * All member functions are safe to call from multiple threads
 * concurrently (a production deployment tunes many operators at
 * once against one shared cache); reads copy the entry under the
 * lock.
 */
class TuningCache
{
  public:
    TuningCache() = default;
    TuningCache(TuningCache &&other) noexcept;

    /**
     * Cache key of a workload: operator name, iterator extents, and
     * hardware name (structure beyond extents is implied by the
     * operator name for all library operators).
     */
    static std::string keyFor(const TensorComputation &comp,
                              const HardwareSpec &hw);

    /** Copy of the entry under the cache lock; nullopt on miss. */
    std::optional<CacheEntry> tryGet(const std::string &key) const;
    void insert(const std::string &key, CacheEntry entry);
    std::size_t size() const;

    /** Copy of every (key, entry) pair under one lock acquisition. */
    std::vector<std::pair<std::string, CacheEntry>> snapshot() const;

    Json toJson() const;
    /**
     * Rebuild from JSON, skipping (with a warning) entries that do
     * not deserialise — a partially corrupt cache degrades into a
     * smaller cache, never into an aborted load.
     */
    static TuningCache fromJson(const Json &json);

    /**
     * Persist to / restore from a file (JSON document). saveFile is
     * crash-safe: it writes a uniquely named sibling temp file and
     * rename()s it into place (writeFileAtomic), so readers never
     * observe a torn document and concurrent writers never fail.
     * loadFile raises fatal() only when the file cannot be opened;
     * unparseable content yields an empty cache with a warning.
     */
    void saveFile(const std::string &path) const;
    static TuningCache loadFile(const std::string &path);

    /**
     * loadFile, except that a file that cannot be opened (absent, or
     * removed meanwhile) yields an empty cache. Opens the file once.
     */
    static TuningCache loadFileIfExists(const std::string &path);

  private:
    mutable std::mutex _mutex;
    std::map<std::string, CacheEntry> _entries;
};

} // namespace amos

#endif // AMOS_AMOS_CACHE_HH
