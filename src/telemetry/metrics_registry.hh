/**
 * @file
 * Named-metric registry: counters, gauges and fixed-bucket
 * histograms, safe to update from concurrent sweep jobs.
 *
 * Determinism: serialisation walks the metrics in name order and
 * goes through JsonWriter, so identical metric values produce
 * byte-identical output. Wall-clock span totals (names ending in
 * ".wall_ns") are inherently non-deterministic and are therefore
 * excluded from serialisation unless explicitly requested — the
 * same rule writeSweepJson applies to its timing section.
 */

#ifndef PRISM_TELEMETRY_METRICS_REGISTRY_HH
#define PRISM_TELEMETRY_METRICS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"

namespace prism::telemetry
{

/** Monotonic event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value-wins instantaneous measurement. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram with upper-inclusive bucket bounds: a value
 * v lands in the first bucket whose bound satisfies v <= bound, and
 * values above the last bound land in the overflow bucket (index
 * numBounds). Bounds must be strictly ascending.
 */
class Histogram
{
  public:
    explicit Histogram(std::span<const double> bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Buckets including the overflow bucket. */
    std::size_t numBuckets() const { return buckets_.size(); }

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /**
     * The @p q quantile (q in [0, 1], e.g. 0.5 / 0.95 / 0.99),
     * linearly interpolated inside the bucket holding the target
     * rank. Observations are assumed non-negative (the first bucket
     * interpolates from 0); ranks landing in the overflow bucket
     * report the last bound (the histogram cannot resolve beyond
     * it). Returns 0 for an empty histogram.
     */
    double quantile(double q) const;

    /**
     * @p count strictly ascending bounds growing geometrically from
     * @p first by @p factor — the standard latency-bucket ladder
     * (e.g. first=1, factor=2, count=20 covers 1us..1s in microsecond
     * units).
     */
    static std::vector<double>
    exponentialBounds(double first, double factor, std::size_t count);

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * The two counters behind one scoped-timer name. Null pointers mean
 * "telemetry disabled": a ScopedSpan built from a default SpanStats
 * never reads the clock (the zero-cost-when-disabled contract).
 */
struct SpanStats
{
    Counter *calls = nullptr;
    Counter *wallNanos = nullptr;

    explicit operator bool() const { return calls != nullptr; }
};

/**
 * Registry of named metrics. Registration and updates are
 * thread-safe; metric objects live as long as the registry and keep
 * stable addresses, so hot paths hold direct pointers and never
 * touch the registry lock.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The counter named @p name, creating it on first use. */
    Counter &counter(const std::string &name);

    /** The gauge named @p name, creating it on first use. */
    Gauge &gauge(const std::string &name);

    /**
     * The histogram named @p name, creating it with @p bounds on
     * first use; later calls return the existing histogram (the
     * original bounds win).
     */
    Histogram &histogram(const std::string &name,
                         std::span<const double> bounds);

    /**
     * The scoped-timer stats for @p name: counters "<name>.calls"
     * and "<name>.wall_ns".
     */
    SpanStats span(const std::string &name);

    /** Whether @p name carries wall-clock data (".wall_ns" suffix). */
    static bool isWallClock(std::string_view name);

    /** Sorted name/value snapshot of every counter. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterValues() const;

    /**
     * Walk every metric in name order under the registry lock —
     * counters first, then gauges, then histograms. Null callbacks
     * skip that kind; wall-clock counters are always skipped. The
     * serve observer's Prometheus renderer lives on this.
     */
    void
    visit(const std::function<void(const std::string &,
                                   const Counter &)> &counter_fn,
          const std::function<void(const std::string &,
                                   const Gauge &)> &gauge_fn,
          const std::function<void(const std::string &,
                                   const Histogram &)> &histogram_fn)
        const;

    /**
     * Serialise as one JSON object {counters, gauges, histograms},
     * names sorted. Wall-clock counters are skipped unless
     * @p include_wall is set.
     */
    void writeJson(JsonWriter &w, bool include_wall = false) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace prism::telemetry

#endif // PRISM_TELEMETRY_METRICS_REGISTRY_HH
