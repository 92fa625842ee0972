/**
 * @file
 * Log-bucketed latency histograms for the serve layer's p50/p95/p99
 * reporting. Buckets grow geometrically from 1 microsecond to ~100
 * seconds, so the relative quantile error is bounded by the bucket
 * growth factor (~12%) at every scale; exact min/max are tracked on
 * the side and clamp the interpolated estimates.
 *
 * Two variants share the bucket scheme:
 *
 *  - LatencyHistogram: cumulative since process start — the classic
 *    "lifetime" summary.
 *
 *  - SlidingWindowHistogram: a ring of epoch buckets covering the
 *    last `windowSeconds`, so quantiles answer "how is the server
 *    behaving *now*" instead of averaging over its entire uptime.
 *    Also derives an SLO breach fraction and burn rate from the
 *    windowed samples.
 */

#ifndef AMOS_SUPPORT_HISTOGRAM_HH
#define AMOS_SUPPORT_HISTOGRAM_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "support/json.hh"

namespace amos {

namespace detail {

/**
 * The core both histograms share: log-bucket counts plus the exact
 * sample count, sum, min and max. Not thread-safe; each histogram
 * guards its sets with its own mutex.
 */
struct HistogramBuckets
{
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    HistogramBuckets();

    void add(double ms);
    /** Fold another set in (the sliding window's in-window epochs). */
    void merge(const HistogramBuckets &other);
    void clear();

    double mean() const;
    /** Geometric midpoint of the q-th sample's bucket, clamped. */
    double quantile(double q) const;
    /** Fraction of samples whose bucket midpoint exceeds `ms`. */
    double fractionAbove(double ms) const;
    /** Set "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms". */
    void summarize(Json &out) const;
};

} // namespace detail

/** Thread-safe histogram of latencies in milliseconds. */
class LatencyHistogram
{
  public:
    /** Record one sample (values <= 0 land in the first bucket). */
    void record(double ms);

    std::uint64_t count() const;

    /** Mean of all recorded samples (0 when empty). */
    double meanMs() const;

    /**
     * Quantile estimate for q in [0, 1] (0 when empty): the
     * geometric midpoint of the bucket holding the q-th sample,
     * clamped to the observed [min, max].
     */
    double quantileMs(double q) const;

    /** {"count":..,"mean_ms":..,"p50_ms":..,"p95_ms":..,"p99_ms":..} */
    Json summaryJson() const;

  private:
    mutable std::mutex _mutex;
    detail::HistogramBuckets _set;
};

/**
 * Thread-safe sliding-window histogram: the window is divided into
 * `numEpochs` rotating epoch buckets; a sample lands in the epoch
 * covering its timestamp and an epoch is recycled (zeroed) the first
 * time a newer timestamp maps onto its slot. Queries aggregate only
 * the epochs still inside the window, so results track the last
 * `windowSeconds` of traffic with epoch-granularity slack.
 *
 * Every public method has an `At`-suffixed twin taking an explicit
 * time (seconds since an arbitrary origin; the no-suffix methods use
 * a steady clock anchored at construction). Tests drive the `At`
 * variants for full determinism.
 */
class SlidingWindowHistogram
{
  public:
    explicit SlidingWindowHistogram(double windowSeconds = 60.0,
                                    std::size_t numEpochs = 12);

    void record(double ms);
    void recordAt(double ms, double atSeconds);

    /** Samples inside the window (0 when none / all expired). */
    std::uint64_t windowCount() const;
    std::uint64_t windowCountAt(double atSeconds) const;

    /** Mean of windowed samples (0 when the window is empty). */
    double windowMeanMsAt(double atSeconds) const;

    /** Windowed quantile, same estimator as LatencyHistogram. */
    double windowQuantileMs(double q) const;
    double windowQuantileMsAt(double q, double atSeconds) const;

    /**
     * Fraction of windowed samples slower than `thresholdMs`,
     * measured at bucket granularity (a bucket counts as breaching
     * when its geometric midpoint exceeds the threshold). Evaluated
     * at query time, so the threshold may change freely — e.g. when
     * the serve layer derives it from the windowed p99.
     */
    double breachFraction(double thresholdMs) const;
    double breachFractionAt(double thresholdMs,
                            double atSeconds) const;

    /**
     * SLO burn rate: breachFraction / errorBudget. 1.0 means the
     * service is burning its error budget exactly as fast as allowed;
     * above 1.0 the SLO will be violated if the window's behaviour
     * persists. Returns 0 when the budget is not positive.
     */
    double burnRate(double thresholdMs, double errorBudget) const;
    double burnRateAt(double thresholdMs, double errorBudget,
                      double atSeconds) const;

    double windowSeconds() const { return _windowSeconds; }

    /**
     * {"window_s":..,"count":..,"mean_ms":..,"p50_ms":..,
     *  "p95_ms":..,"p99_ms":..} — the windowed counterpart of
     * LatencyHistogram::summaryJson.
     */
    Json summaryJson() const;
    Json summaryJsonAt(double atSeconds) const;

  private:
    struct Epoch
    {
        std::int64_t index = -1; // floor(t / epochSeconds), -1 empty
        detail::HistogramBuckets set;
    };

    double nowSeconds() const;
    /** Merged view of the in-window epochs. */
    detail::HistogramBuckets mergedLocked(double atSeconds) const;

    const double _windowSeconds;
    const double _epochSeconds;

    mutable std::mutex _mutex;
    std::vector<Epoch> _epochs;
    std::chrono::steady_clock::time_point _origin;
};

} // namespace amos

#endif // AMOS_SUPPORT_HISTOGRAM_HH
