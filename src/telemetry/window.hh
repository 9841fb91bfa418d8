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
 * The window's rows are the engine's IntervalSamples, kept as pushed
 * in an IntervalRecorder of capacity max(1, K); the window adds only
 * the EWMA state and stats(). The serve observer also keeps the
 * run's history, a plain IntervalRecorder of capacity
 * max(1, ServeConfig::recorderCapacity), which only a snapshot taken
 * after the run ended renders and the doctor then grades. Both
 * sections are written by one exporter routine.
 */

#ifndef PRISM_TELEMETRY_WINDOW_HH
#define PRISM_TELEMETRY_WINDOW_HH

#include <cstddef>
#include <cstdint>
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

/** The last K closed intervals, with per-tenant stats over them. */
class SlidingWindow
{
  public:
    SlidingWindow(std::uint32_t tenants, WindowConfig config = {});

    /**
     * Fold one closed interval into the window. The sample's
     * per-tenant vectors (evictions included) may be shorter than the
     * tenant count; stats() reads missing entries as zero.
     */
    void push(const IntervalSample &sample);

    /** The retained intervals, oldest first, stored as pushed. */
    const IntervalRecorder &rows() const { return rows_; }

    /** Rollup for tenant @p t over the current window. */
    TenantWindowStats stats(std::uint32_t t) const;

  private:
    std::uint32_t tenants_;
    WindowConfig config_;
    IntervalRecorder rows_;

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
