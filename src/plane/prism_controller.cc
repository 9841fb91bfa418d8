#include "plane/prism_controller.hh"

#include <cmath>

#include "common/fixed_point.hh"
#include "common/prism_assert.hh"
#include "common/types.hh"
#include "prism/alloc_policy.hh"
#include "telemetry/span.hh"

namespace prism
{

PrismController::PrismController(std::uint32_t domains,
                                 std::uint64_t seed,
                                 const ControllerParams &params)
    : domains_(domains), rng_(seed), params_(params)
{
    fatalIf(domains_ == 0, "PrismController: no domains");
    e_.assign(domains_, 1.0 / domains_);
    targets_.assign(domains_, 1.0 / domains_);
    prob_stats_.resize(domains_);
    sampler_.build(e_);
}

void
PrismController::setEvictionProbs(std::span<const double> e)
{
    panicIf(e.size() != domains_,
            "setEvictionProbs: distribution size != domain count");
    e_.assign(e.begin(), e.end());
    if (params_.probBits > 0) {
        const FixedPointCodec codec(params_.probBits);
        e_ = codec.quantiseDistribution(e_);
    }
    sampler_.build(e_);
}

void
PrismController::emitEvent(telemetry::EventKind kind, double value)
{
    if (recorder_)
        recorder_->addEvent(telemetry::TelemetryEvent{
            kind, interval_idx_, invalidCore, value});
}

bool
PrismController::recompute(const IntervalSnapshot &snap,
                           PrismAllocPolicy &policy,
                           std::uint64_t capacity_units)
{
    PRISM_SPAN(recompute_span_);
    panicIf(snap.numCores() != domains_,
            "PrismController: snapshot domain count mismatch");

    if (!beginRecompute())
        return false;

    // Shadow-skew faults perturb a copy: the caller's snapshot stays
    // what the backend observed.
    const IntervalSnapshot *input = &snap;
    IntervalSnapshot perturbed;
    if (injector_) {
        perturbed = snap;
        injector_->skewShadow(perturbed, interval_idx_);
        input = &perturbed;
    }

    std::vector<double> targets = policy.computeTargets(*input);

    std::vector<double> c(domains_), m(domains_);
    for (std::uint32_t i = 0; i < domains_; ++i) {
        c[i] = input->occupancyFraction(i);
        m[i] = input->missFraction(i);
    }
    conditionInputs(c, m);
    commitRecompute(std::move(targets), c, m, capacity_units,
                    input->intervalMisses);
    return true;
}

bool
PrismController::beginRecompute()
{
    ++interval_idx_;
    degraded_ = false;

    if (injector_ && injector_->dropRecompute(interval_idx_)) {
        // The recompute event was lost: keep serving the previous
        // distribution for another interval.
        ++dropped_recomputes_;
        ++degraded_intervals_;
        emitEvent(telemetry::EventKind::DroppedRecompute);
        emitEvent(telemetry::EventKind::DegradedInterval);
        return false;
    }
    return true;
}

void
PrismController::conditionInputs(std::vector<double> &c,
                                 std::vector<double> &m)
{
    if (!injector_)
        return;
    std::vector<double> clean_c = c, clean_m = m;
    if (!prev_c_.empty() && injector_->staleSnapshot(interval_idx_)) {
        c = prev_c_;
        m = prev_m_;
        degraded_ = true;
    }
    injector_->poisonInputs(c, m, interval_idx_);
    prev_c_ = std::move(clean_c);
    prev_m_ = std::move(clean_m);
}

void
PrismController::commitRecompute(std::vector<double> targets,
                                 const std::vector<double> &c,
                                 const std::vector<double> &m,
                                 std::uint64_t capacity_units,
                                 std::uint64_t interval_misses)
{
    targets_ = std::move(targets);

    Eq1Stats recompute_stats;
    e_ = evictionDistribution(c, targets_, m, capacity_units,
                              interval_misses, &recompute_stats);
    eq1_stats_.clampedInputs += recompute_stats.clampedInputs;
    eq1_stats_.fallbackActivations +=
        recompute_stats.fallbackActivations;
    if (recompute_stats.clampedInputs > 0)
        degraded_ = true;

    if (params_.probBits > 0) {
        const FixedPointCodec codec(params_.probBits);
        e_ = codec.quantiseDistribution(e_);
    }

    if (injector_)
        injector_->saturateQuantisation(e_, interval_idx_);

    fallback_ = false;
    if (checked_ && !auditor_.checkDistribution(e_).ok()) {
        degraded_ = true;
        if (!repairDistribution())
            fallback_ = true;
        emitEvent(telemetry::EventKind::DistributionRepair,
                  fallback_ ? 0.0 : 1.0);
        if (fallback_) {
            ++fallback_entries_;
            emitEvent(telemetry::EventKind::FallbackEntered);
        }
    }

    if (degraded_) {
        ++degraded_intervals_;
        emitEvent(telemetry::EventKind::DegradedInterval);
    }
    degraded_ = false;

    // Rebuild the victim-selection table once per recompute — after
    // every mutation of e_ (quantisation, injected saturation,
    // repair) so the table and the distribution never diverge.
    sampler_.build(e_);

    ++recomputes_;
    for (std::uint32_t i = 0; i < domains_; ++i)
        prob_stats_[i].add(e_[i]);
}

bool
PrismController::repairDistribution()
{
    double sum = 0.0;
    for (double &v : e_) {
        if (!std::isfinite(v) || v < 0.0)
            v = 0.0;
        else if (v > 1.0)
            v = 1.0;
        sum += v;
    }
    if (sum <= 0.0) {
        // No probability mass survived: leave a safe uniform
        // distribution behind and tell the caller to fall back to
        // the backend's native replacement until the next interval.
        e_.assign(domains_, 1.0 / domains_);
        return false;
    }
    for (double &v : e_)
        v /= sum;
    return true;
}

} // namespace prism
