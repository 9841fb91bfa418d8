/**
 * @file
 * PrismController: the one PriSM interval control loop, shared by
 * every backend (DESIGN.md §8, "One control loop, three backends").
 *
 * Owns targets → hardened Equation 1 → AliasSampler →
 * degraded-mode fallback for a set of partition domains. A backend
 * adapter (PrismScheme over the simulator cache, TenantArbiter over
 * the serving store, WayMaskScheme over per-core way masks) hands
 * recompute() one IntervalSnapshot per interval together with its
 * PrismAllocPolicy and consumes the resulting eviction
 * distribution — either by sampling victim domains through
 * sampleVictim() or by quantising the targets into an enforcement
 * mechanism of its own.
 *
 * Degradation (docs/RELIABILITY.md): clamped Equation 1 inputs,
 * stale snapshots and repaired distributions mark the interval
 * degraded; an unrecoverable distribution turns fallbackActive() on
 * until the next successful recompute, telling the backend to defer
 * to its native replacement order.
 */

#ifndef PRISM_PLANE_PRISM_CONTROLLER_HH
#define PRISM_PLANE_PRISM_CONTROLLER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "fault/fault_injector.hh"
#include "fault/invariant_auditor.hh"
#include "plane/alias_sampler.hh"
#include "plane/eq1.hh"
#include "telemetry/interval_recorder.hh"
#include "telemetry/metrics_registry.hh"

namespace prism
{

struct IntervalSnapshot;
class PrismAllocPolicy;

/** Control-loop knobs shared by every backend. */
struct ControllerParams
{
    /**
     * Bits used to represent each probability; 0 keeps the exact
     * floating-point values (the paper's baseline; 6 bits is shown
     * to be performance-neutral, Figure 12).
     */
    unsigned probBits = 0;
};

/** The shared targets → Equation 1 → sampler → fallback loop. */
class PrismController
{
  public:
    PrismController(std::uint32_t domains, std::uint64_t seed,
                    const ControllerParams &params = {});

    // --- the per-eviction hot path ---------------------------------

    /**
     * Core-Selection generalised: draw a victim domain according to
     * E. Consumes exactly one uniform and maps it through the O(1)
     * alias-family sampler — draw-for-draw identical to the seed
     * inverse-CDF walk (see AliasSampler).
     */
    std::uint32_t
    sampleVictim()
    {
        return sampler_.sample(rng_.uniform());
    }

    /** The sampler over the current E (test hook). */
    const AliasSampler &sampler() const { return sampler_; }

    /** Eviction distribution in effect. */
    const std::vector<double> &evictionProbs() const { return e_; }

    /** Targets in effect (uniform before the first recompute). */
    const std::vector<double> &targets() const { return targets_; }

    /**
     * Whether the loop is deferring to the backend's native
     * replacement order (the last distribution was unrecoverable).
     */
    bool fallbackActive() const { return fallback_; }

    // --- the interval recompute ------------------------------------

    /**
     * Close one interval. In order: advance the interval index and
     * honour an injected dropped-recompute fault; skew a copy of
     * @p snap's shadow histograms when a fault injector is attached;
     * ask @p policy for targets; derive C_i and M_i from the
     * snapshot and apply stale-snapshot and poisoned-input faults;
     * then Equation 1 with N = @p capacity_units and
     * W = snap.intervalMisses, K-bit quantisation,
     * quantisation-saturation faults, the checked-mode
     * audit/repair/fallback ladder, degraded-interval accounting and
     * the sampler rebuild. Timed by the recompute span.
     *
     * @param snap One entry per domain; occupancy fractions are
     *        occupancyBlocks / totalBlocks in the backend's capacity
     *        unit (blocks, or bytes for the serving store).
     * @return false when an injected fault dropped the recompute:
     *         the previous distribution serves another interval.
     */
    bool recompute(const IntervalSnapshot &snap,
                   PrismAllocPolicy &policy,
                   std::uint64_t capacity_units);

    /** Interval index of the last recompute (1-based). */
    std::uint64_t intervalIndex() const { return interval_idx_; }

    /**
     * Overwrite the eviction distribution, applying the configured
     * K-bit quantisation exactly as a recompute would. Test hook for
     * the Core-Selection statistics; @p e must have one entry per
     * domain and sum to ~1.
     */
    void setEvictionProbs(std::span<const double> e);

    // --- robustness: fault injection, auditing, degradation --------

    /** Attach a fault injector (non-owning); null detaches. */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }

    FaultInjector *faultInjector() const { return injector_; }

    /** Audit the distribution each recompute and recover in place. */
    void setChecked(bool on) { checked_ = on; }
    bool checked() const { return checked_; }

    std::uint64_t recomputes() const { return recomputes_; }
    std::uint64_t degradedIntervals() const
    {
        return degraded_intervals_;
    }
    std::uint64_t droppedRecomputes() const
    {
        return dropped_recomputes_;
    }
    std::uint64_t fallbackEntries() const { return fallback_entries_; }
    std::uint64_t invariantViolations() const
    {
        return auditor_.violations();
    }
    std::uint64_t clampedInputs() const
    {
        return eq1_stats_.clampedInputs;
    }
    std::uint64_t eq1Fallbacks() const
    {
        return eq1_stats_.fallbackActivations;
    }

    /** Mean/stddev tracker of domain @p d's eviction probability. */
    const RunningStat &probStat(std::uint32_t d) const
    {
        return prob_stats_[d];
    }

    // --- telemetry -------------------------------------------------

    /**
     * Attach an interval recorder (non-owning; null detaches): the
     * controller emits instant events for degraded intervals,
     * dropped recomputes, distribution repairs and fallback entries.
     */
    void setRecorder(telemetry::IntervalRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Scoped-timer stats for recompute(); default = disabled. */
    void setRecomputeSpan(const telemetry::SpanStats &span)
    {
        recompute_span_ = span;
    }

  private:
    /** Advance the interval; false when a fault dropped it. */
    bool beginRecompute();

    /** Apply stale-snapshot and poisoned-input faults in place. */
    void conditionInputs(std::vector<double> &c,
                         std::vector<double> &m);

    /** Equation 1 through the sampler rebuild (see recompute()). */
    void commitRecompute(std::vector<double> targets,
                         const std::vector<double> &c,
                         const std::vector<double> &m,
                         std::uint64_t capacity_units,
                         std::uint64_t interval_misses);

    void emitEvent(telemetry::EventKind kind, double value = 0.0);

    /**
     * Clamp and renormalise e_ in place after an audit failure.
     * @return false when the distribution is unrecoverable (no
     *         probability mass left) and fallback mode is required.
     */
    bool repairDistribution();

    std::uint32_t domains_;
    Rng rng_;
    ControllerParams params_;

    std::vector<double> e_;       ///< eviction distribution
    AliasSampler sampler_;        ///< O(1) sampler over e_
    std::vector<double> targets_; ///< last computed T_i

    std::uint64_t recomputes_ = 0;
    std::vector<RunningStat> prob_stats_;

    // --- robustness state ---
    FaultInjector *injector_ = nullptr; ///< non-owning; may be null
    InvariantAuditor auditor_;
    bool checked_ = false;
    bool fallback_ = false; ///< defer to the backend this interval
    bool degraded_ = false; ///< recompute-in-progress degradation
    std::uint64_t interval_idx_ = 0;
    std::uint64_t degraded_intervals_ = 0;
    std::uint64_t dropped_recomputes_ = 0;
    std::uint64_t fallback_entries_ = 0;
    Eq1Stats eq1_stats_;
    std::vector<double> prev_c_; ///< last clean C_i (stale fault)
    std::vector<double> prev_m_; ///< last clean M_i (stale fault)

    // --- telemetry ---
    telemetry::IntervalRecorder *recorder_ = nullptr; ///< non-owning
    telemetry::SpanStats recompute_span_{};
};

/**
 * Implemented by every backend that embeds a PrismController, so
 * generic wiring (telemetry recording, fault injection, checked
 * mode, result extraction) reaches the one shared control loop
 * without knowing which backend it is talking to.
 */
class ControllerHost
{
  public:
    virtual ~ControllerHost() = default;

    virtual PrismController &controller() = 0;
    virtual const PrismController &controller() const = 0;
};

} // namespace prism

#endif // PRISM_PLANE_PRISM_CONTROLLER_HH
