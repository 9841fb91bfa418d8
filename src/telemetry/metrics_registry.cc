#include "telemetry/metrics_registry.hh"

#include "common/prism_assert.hh"

namespace prism::telemetry
{

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        panicIf(bounds_[i] <= bounds_[i - 1],
                "Histogram: bounds must be strictly ascending");
}

void
Histogram::observe(double v)
{
    std::size_t bucket = bounds_.size(); // overflow by default
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (v <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    else if (q > 1.0)
        q = 1.0;

    // Rank of the target observation (1-based); walk cumulative
    // bucket counts until it is covered.
    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        const std::uint64_t in_bucket = bucketCount(i);
        if (in_bucket == 0)
            continue;
        const std::uint64_t below = cumulative;
        cumulative += in_bucket;
        if (rank > static_cast<double>(cumulative))
            continue;
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        const double hi = bounds_[i];
        const double frac =
            (rank - static_cast<double>(below)) /
            static_cast<double>(in_bucket);
        return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac);
    }
    // Overflow bucket: the histogram cannot resolve past the last
    // bound, so saturate there.
    return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double>
Histogram::exponentialBounds(double first, double factor,
                             std::size_t count)
{
    panicIf(first <= 0.0 || factor <= 1.0 || count == 0,
            "exponentialBounds: need first > 0, factor > 1, count > 0");
    std::vector<double> bounds;
    bounds.reserve(count);
    double bound = first;
    for (std::size_t i = 0; i < count; ++i) {
        bounds.push_back(bound);
        bound *= factor;
    }
    return bounds;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::span<const double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(bounds);
    return *slot;
}

SpanStats
MetricsRegistry::span(const std::string &name)
{
    return SpanStats{&counter(name + ".calls"),
                     &counter(name + ".wall_ns")};
}

bool
MetricsRegistry::isWallClock(std::string_view name)
{
    constexpr std::string_view suffix = ".wall_ns";
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, c->value());
    return out;
}

void
MetricsRegistry::visit(
    const std::function<void(const std::string &, const Counter &)>
        &counter_fn,
    const std::function<void(const std::string &, const Gauge &)>
        &gauge_fn,
    const std::function<void(const std::string &, const Histogram &)>
        &histogram_fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counter_fn)
        for (const auto &[name, c] : counters_) {
            if (isWallClock(name))
                continue;
            counter_fn(name, *c);
        }
    if (gauge_fn)
        for (const auto &[name, g] : gauges_)
            gauge_fn(name, *g);
    if (histogram_fn)
        for (const auto &[name, h] : histograms_)
            histogram_fn(name, *h);
}

void
MetricsRegistry::writeJson(JsonWriter &w, bool include_wall) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    w.beginObject();

    w.key("counters");
    w.beginObject();
    for (const auto &[name, c] : counters_) {
        if (!include_wall && isWallClock(name))
            continue;
        w.kv(name, c->value());
    }
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &[name, g] : gauges_)
        w.kv(name, g->value());
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name);
        w.beginObject();
        w.kv("bounds", std::span<const double>(h->bounds()));
        std::vector<std::uint64_t> buckets(h->numBuckets());
        for (std::size_t i = 0; i < buckets.size(); ++i)
            buckets[i] = h->bucketCount(i);
        w.kv("buckets", std::span<const std::uint64_t>(buckets));
        w.kv("count", h->count());
        w.kv("sum", h->sum());
        w.endObject();
    }
    w.endObject();

    w.endObject();
}

} // namespace prism::telemetry
