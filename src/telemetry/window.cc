#include "telemetry/window.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace prism::telemetry
{

namespace
{

/**
 * Relative-drift denominators are floored so that a tiny EWMA does
 * not turn ordinary noise into a huge ratio: one-twentieth of the
 * miss-rate scale, and 1.0 for slowdown (whose EWMA is >= 1 anyway).
 */
constexpr double kMissRateDriftFloor = 0.05;
constexpr double kSlowdownDriftFloor = 1.0;

double
at(const std::vector<double> &v, std::size_t i)
{
    return i < v.size() ? v[i] : 0.0;
}

std::uint64_t
at(const std::vector<std::uint64_t> &v, std::size_t i)
{
    return i < v.size() ? v[i] : 0;
}

/** Exact quantile of a sorted series, linear interpolation. */
double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

} // namespace

SlidingWindow::SlidingWindow(std::uint32_t tenants,
                             std::size_t capacity)
    : tenants_(tenants), rows_(std::max<std::size_t>(1, capacity)),
      ewma_(tenants)
{
}

void
SlidingWindow::push(const IntervalSample &sample)
{
    // Fold the interval into the EWMA state before the ring may
    // drop it: drift tracks the whole stream, not just the window.
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        const std::uint64_t hits = at(sample.hits, t);
        const std::uint64_t misses = at(sample.misses, t);
        const double acc = static_cast<double>(hits + misses);
        const double miss_rate =
            acc > 0.0 ? static_cast<double>(misses) / acc : 0.0;
        const double slowdown = fairSlowdown(miss_rate);
        Ewma &e = ewma_[t];
        if (!e.seeded) {
            e.seeded = true;
            e.missRate = miss_rate;
            e.slowdown = slowdown;
            e.missRateDrift = 0.0;
            e.slowdownDrift = 0.0;
        } else {
            e.missRateDrift =
                std::fabs(miss_rate - e.missRate) /
                std::max(e.missRate, kMissRateDriftFloor);
            e.slowdownDrift =
                std::fabs(slowdown - e.slowdown) /
                std::max(e.slowdown, kSlowdownDriftFloor);
            e.missRate = kEwmaAlpha * miss_rate +
                         (1.0 - kEwmaAlpha) * e.missRate;
            e.slowdown = kEwmaAlpha * slowdown +
                         (1.0 - kEwmaAlpha) * e.slowdown;
        }
    }
    rows_.record(sample);
}

TenantWindowStats
SlidingWindow::stats(std::uint32_t t) const
{
    TenantWindowStats s;
    s.intervals = rows_.size();
    if (t < ewma_.size()) {
        const Ewma &e = ewma_[t];
        s.ewmaMissRate = e.missRate;
        s.missRateDrift = e.missRateDrift;
        s.ewmaSlowdown = e.slowdown;
        s.slowdownDrift = e.slowdownDrift;
    }
    if (rows_.size() == 0 || t >= tenants_)
        return s;

    std::vector<double> hit_ratios;
    std::vector<double> slowdowns;
    hit_ratios.reserve(rows_.size());
    slowdowns.reserve(rows_.size());
    double churn_sum = 0.0;
    double prev_ev_prob = 0.0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const IntervalSample &r = rows_.sample(i);
        const std::uint64_t hits = at(r.hits, t);
        const std::uint64_t misses = at(r.misses, t);
        const double ev_prob = at(r.evProb, t);
        s.hits += hits;
        s.misses += misses;
        s.evictions += at(r.evictions, t);
        const double acc = static_cast<double>(hits + misses);
        const double hr =
            acc > 0.0 ? static_cast<double>(hits) / acc : 1.0;
        hit_ratios.push_back(hr);
        slowdowns.push_back(fairSlowdown(1.0 - hr));
        if (i > 0)
            churn_sum += std::fabs(ev_prob - prev_ev_prob);
        prev_ev_prob = ev_prob;
    }
    const double acc = static_cast<double>(s.hits + s.misses);
    s.hitRatio =
        acc > 0.0 ? static_cast<double>(s.hits) / acc : 1.0;
    s.missRate = acc > 0.0 ? 1.0 - s.hitRatio : 0.0;
    s.slowdown = fairSlowdown(1.0 - s.hitRatio);
    s.churn = rows_.size() > 1
                  ? churn_sum /
                        static_cast<double>(rows_.size() - 1)
                  : 0.0;

    std::sort(hit_ratios.begin(), hit_ratios.end());
    std::sort(slowdowns.begin(), slowdowns.end());
    s.hitRatioP50 = quantileSorted(hit_ratios, 0.5);
    s.hitRatioP90 = quantileSorted(hit_ratios, 0.9);
    s.slowdownP50 = quantileSorted(slowdowns, 0.5);
    s.slowdownP90 = quantileSorted(slowdowns, 0.9);
    return s;
}

} // namespace prism::telemetry
