/**
 * @file
 * Sliding-window aggregator over the live interval stream.
 *
 * The serve engine closes one IntervalSample per allocation interval
 * (docs/SERVING.md). The live observability plane keeps the last K
 * intervals in a ring and maintains, per tenant:
 *
 *   - rolling hit ratio, miss rate and fair slowdown over the window
 *   - E_i churn (mean |ΔE_i| between consecutive intervals)
 *   - window quantiles of per-interval hit ratio and slowdown
 *   - an EWMA of miss rate and slowdown with a relative drift
 *     statistic, feeding the online doctor's drift checks
 *
 * Everything is a pure function of the pushed samples — no wall
 * clock, no allocation-order dependence — so a window populated from
 * the engine's sequential interval-close path is byte-deterministic
 * at any --threads value, and the exporter can golden-test its
 * snapshots like every other artifact.
 *
 * Quantiles are exact over the retained window (sorted copy of at
 * most K values per query), not an approximate sketch: K is small
 * (default 64) and determinism is worth more here than O(log K).
 *
 * The serve observer keeps two windows over the same stream: the
 * live one (K = --window) and the run's history (K =
 * ServeConfig::recorderCapacity, default 4096). The history is read
 * only once the run has ended: a final snapshot renders its rows and
 * the doctor grades them.
 */

#ifndef PRISM_TELEMETRY_WINDOW_HH
#define PRISM_TELEMETRY_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "telemetry/interval_recorder.hh"

namespace prism::telemetry
{

/** Tuning knobs for SlidingWindow. */
struct WindowConfig
{
    /** Intervals retained (K); at least 1. */
    std::size_t capacity = 64;

    /** EWMA smoothing factor in (0, 1]; 1 = no smoothing. */
    double ewmaAlpha = 0.25;

    /**
     * Relative miss latency used by the fair-slowdown model
     * (matches DoctorThresholds::serveMissPenalty).
     */
    double missPenalty = 25.0;
};

/** Per-tenant rollup over the retained window. */
struct TenantWindowStats
{
    /** Intervals contributing (== window size). */
    std::uint64_t intervals = 0;

    // Sums over the window.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    // Window-aggregate rates (1.0 hit ratio when no accesses).
    double hitRatio = 1.0;
    double missRate = 0.0;
    double slowdown = 1.0;

    /** Mean |ΔE_i| between consecutive retained intervals. */
    double churn = 0.0;

    // Exact quantiles of the per-interval series in the window.
    double hitRatioP50 = 1.0;
    double hitRatioP90 = 1.0;
    double slowdownP50 = 1.0;
    double slowdownP90 = 1.0;

    // EWMA state over ALL pushed intervals (not just retained).
    double ewmaMissRate = 0.0;
    double missRateDrift = 0.0; ///< |x − ewma| / max(ewma, floor)
    double ewmaSlowdown = 1.0;
    double slowdownDrift = 0.0;
};

/** Bounded ring of the last K closed intervals, per-tenant stats. */
class SlidingWindow
{
  public:
    /** One retained interval; parallel vectors indexed by tenant. */
    struct Row
    {
        std::uint64_t interval = 0;
        std::vector<double> occupancy;
        std::vector<double> target;
        std::vector<double> evProb;
        std::vector<std::uint64_t> hits;
        std::vector<std::uint64_t> misses;
        std::vector<std::uint64_t> evictions;
    };

    SlidingWindow(std::uint32_t tenants, WindowConfig config = {});

    std::uint32_t tenants() const { return tenants_; }
    std::size_t capacity() const { return config_.capacity; }
    const WindowConfig &config() const { return config_; }

    /**
     * Fold one closed interval into the window. @p evictions is the
     * per-tenant eviction count for that interval (may be empty).
     * The sample's per-tenant vectors may be shorter than the tenant
     * count; missing entries read as zero.
     */
    void push(const IntervalSample &sample,
              std::span<const std::uint64_t> evictions);

    /** Retained intervals (<= capacity). */
    std::size_t size() const { return ring_.size(); }

    /** Intervals ever pushed, including ones that fell out. */
    std::uint64_t pushed() const { return pushed_; }

    /** Retained row @p i, 0 = oldest retained. */
    const Row &row(std::size_t i) const;

    /** 1-based index of the newest retained interval (0 if empty). */
    std::uint64_t lastInterval() const;

    /** Rollup for tenant @p t over the current window. */
    TenantWindowStats stats(std::uint32_t t) const;

  private:
    std::uint32_t tenants_;
    WindowConfig config_;

    std::vector<Row> ring_; ///< grows to capacity, then wraps
    std::size_t head_ = 0;  ///< next write position once full
    std::uint64_t pushed_ = 0;

    // EWMA state survives ring wrap: one entry per tenant.
    struct Ewma
    {
        bool seeded = false;
        double missRate = 0.0;
        double missRateDrift = 0.0;
        double slowdown = 1.0;
        double slowdownDrift = 0.0;
    };
    std::vector<Ewma> ewma_;
};

} // namespace prism::telemetry

#endif // PRISM_TELEMETRY_WINDOW_HH
