#include "histogram.hh"

#include <algorithm>
#include <cmath>

namespace amos {

namespace {

// Buckets span [kLoMs, kLoMs * kGrowth^kBuckets): 1us .. ~128s with
// a 1.25x growth factor needs ceil(log(1.28e8)/log(1.25)) = 84.
constexpr double kLoMs = 1e-3;
constexpr double kGrowth = 1.25;
constexpr std::size_t kBuckets = 84;

std::size_t
bucketFor(double ms)
{
    if (ms <= kLoMs)
        return 0;
    auto idx = static_cast<std::size_t>(
        std::log(ms / kLoMs) / std::log(kGrowth));
    return std::min(idx, kBuckets - 1);
}

/** Geometric midpoint of a bucket. */
double
bucketMid(std::size_t idx)
{
    double lo = kLoMs * std::pow(kGrowth, static_cast<double>(idx));
    return lo * std::sqrt(kGrowth);
}

} // namespace

namespace detail {

HistogramBuckets::HistogramBuckets() : buckets(kBuckets, 0) {}

void
HistogramBuckets::add(double ms)
{
    ++buckets[bucketFor(ms)];
    if (count == 0) {
        min = max = ms;
    } else {
        min = std::min(min, ms);
        max = std::max(max, ms);
    }
    ++count;
    sum += ms;
}

void
HistogramBuckets::merge(const HistogramBuckets &other)
{
    if (other.count == 0)
        return;
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
}

void
HistogramBuckets::clear()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    count = 0;
    sum = 0.0;
}

double
HistogramBuckets::mean() const
{
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double
HistogramBuckets::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample, 1-based, ceil for the usual "at least
    // a fraction q of samples are <= the answer" reading.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return std::clamp(bucketMid(i), min, max);
    }
    return max;
}

double
HistogramBuckets::fractionAbove(double ms) const
{
    if (count == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i)
        if (bucketMid(i) > ms)
            above += buckets[i];
    return static_cast<double>(above) / static_cast<double>(count);
}

void
HistogramBuckets::summarize(Json &out) const
{
    out.set("count", Json(static_cast<std::int64_t>(count)));
    out.set("mean_ms", Json(mean()));
    out.set("p50_ms", Json(quantile(0.50)));
    out.set("p95_ms", Json(quantile(0.95)));
    out.set("p99_ms", Json(quantile(0.99)));
}

} // namespace detail

void
LatencyHistogram::record(double ms)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _set.add(ms);
}

std::uint64_t
LatencyHistogram::count() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _set.count;
}

double
LatencyHistogram::meanMs() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _set.mean();
}

double
LatencyHistogram::quantileMs(double q) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _set.quantile(q);
}

Json
LatencyHistogram::summaryJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json out = Json::object();
    _set.summarize(out);
    return out;
}

SlidingWindowHistogram::SlidingWindowHistogram(double windowSeconds,
                                               std::size_t numEpochs)
    : _windowSeconds(windowSeconds),
      _epochSeconds(windowSeconds /
                    static_cast<double>(numEpochs ? numEpochs : 1)),
      _epochs(numEpochs ? numEpochs : 1),
      _origin(std::chrono::steady_clock::now())
{}

double
SlidingWindowHistogram::nowSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - _origin)
        .count();
}

void
SlidingWindowHistogram::record(double ms)
{
    recordAt(ms, nowSeconds());
}

void
SlidingWindowHistogram::recordAt(double ms, double atSeconds)
{
    if (atSeconds < 0)
        atSeconds = 0;
    auto index = static_cast<std::int64_t>(atSeconds / _epochSeconds);
    std::lock_guard<std::mutex> lock(_mutex);
    Epoch &epoch =
        _epochs[static_cast<std::size_t>(index) % _epochs.size()];
    if (epoch.index != index) {
        // The slot last held an expired epoch — recycle it.
        epoch.index = index;
        epoch.set.clear();
    }
    epoch.set.add(ms);
}

detail::HistogramBuckets
SlidingWindowHistogram::mergedLocked(double atSeconds) const
{
    detail::HistogramBuckets merged;
    if (atSeconds < 0)
        atSeconds = 0;
    auto current =
        static_cast<std::int64_t>(atSeconds / _epochSeconds);
    auto oldest =
        current - static_cast<std::int64_t>(_epochs.size()) + 1;
    for (const auto &epoch : _epochs)
        if (epoch.index >= oldest && epoch.index <= current)
            merged.merge(epoch.set);
    return merged;
}

std::uint64_t
SlidingWindowHistogram::windowCount() const
{
    return windowCountAt(nowSeconds());
}

std::uint64_t
SlidingWindowHistogram::windowCountAt(double atSeconds) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return mergedLocked(atSeconds).count;
}

double
SlidingWindowHistogram::windowMeanMsAt(double atSeconds) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return mergedLocked(atSeconds).mean();
}

double
SlidingWindowHistogram::windowQuantileMs(double q) const
{
    return windowQuantileMsAt(q, nowSeconds());
}

double
SlidingWindowHistogram::windowQuantileMsAt(double q,
                                           double atSeconds) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return mergedLocked(atSeconds).quantile(q);
}

double
SlidingWindowHistogram::breachFraction(double thresholdMs) const
{
    return breachFractionAt(thresholdMs, nowSeconds());
}

double
SlidingWindowHistogram::breachFractionAt(double thresholdMs,
                                         double atSeconds) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return mergedLocked(atSeconds).fractionAbove(thresholdMs);
}

double
SlidingWindowHistogram::burnRate(double thresholdMs,
                                 double errorBudget) const
{
    return burnRateAt(thresholdMs, errorBudget, nowSeconds());
}

double
SlidingWindowHistogram::burnRateAt(double thresholdMs,
                                   double errorBudget,
                                   double atSeconds) const
{
    if (errorBudget <= 0.0)
        return 0.0;
    return breachFractionAt(thresholdMs, atSeconds) / errorBudget;
}

Json
SlidingWindowHistogram::summaryJson() const
{
    return summaryJsonAt(nowSeconds());
}

Json
SlidingWindowHistogram::summaryJsonAt(double atSeconds) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json out = Json::object();
    out.set("window_s", Json(_windowSeconds));
    mergedLocked(atSeconds).summarize(out);
    return out;
}

} // namespace amos
