#include "serve/tenant_arbiter.hh"

#include <algorithm>

#include "common/prism_assert.hh"

namespace prism::serve
{

namespace
{

/**
 * Give every tenant @p floor, then distribute the remaining mass
 * proportionally to @p scores (uniformly when the scores are all
 * zero). Keeps the result a distribution for any non-negative
 * inputs; floors that would oversubscribe are scaled down first.
 */
std::vector<double>
floorsPlusProportional(std::vector<double> floors,
                       const std::vector<double> &scores)
{
    const std::size_t n = floors.size();
    double floor_sum = 0.0;
    for (const double f : floors)
        floor_sum += f;
    if (floor_sum > 1.0) {
        for (double &f : floors)
            f /= floor_sum;
        floor_sum = 1.0;
    }

    double score_sum = 0.0;
    for (const double s : scores)
        score_sum += s;

    const double spare = 1.0 - floor_sum;
    std::vector<double> targets(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double share =
            score_sum > 0.0 ? scores[i] / score_sum
                            : 1.0 / static_cast<double>(n);
        targets[i] = floors[i] + spare * share;
    }
    return targets;
}

/**
 * Hit-maximising targets: a tenant's claim grows with the reuse it
 * realised (hits) and the reuse it was denied (ghost-list shadow
 * hits, weighted up because each one is a miss an extra byte of
 * capacity would likely have converted). A small uniform floor keeps
 * idle tenants probeable so the loop can notice them warming up.
 */
class HitMaxPolicy final : public PrismAllocPolicy
{
  public:
    std::string name() const override { return "HitMax"; }

    std::vector<double>
    computeTargets(const IntervalSnapshot &snap) override
    {
        static constexpr double kShadowWeight = 4.0;
        const std::size_t n = snap.cores.size();
        double floor = kMinTargetFrac;
        if (floor * static_cast<double>(n) > 1.0)
            floor = 1.0 / static_cast<double>(n);

        std::vector<double> scores(n);
        for (std::size_t i = 0; i < n; ++i)
            scores[i] =
                static_cast<double>(snap.cores[i].sharedHits) +
                kShadowWeight * snap.cores[i].standAloneHits();
        return floorsPlusProportional(
            std::vector<double>(n, floor), scores);
    }

    unsigned
    arithmeticOps(unsigned tenants) const override
    {
        // Two per score, four per tenant in floorsPlusProportional.
        return 6 * tenants + 1;
    }

  private:
    static constexpr double kMinTargetFrac = 0.02;
};

/** Weighted fair share: targets proportional to QoS weights. */
class FairSharePolicy final : public PrismAllocPolicy
{
  public:
    explicit FairSharePolicy(std::vector<TenantQos> qos)
        : qos_(std::move(qos))
    {
    }

    std::string name() const override { return "Fair"; }

    std::vector<double>
    computeTargets(const IntervalSnapshot &snap) override
    {
        const std::size_t n = snap.cores.size();
        std::vector<double> weights(n, 1.0);
        for (std::size_t i = 0; i < n && i < qos_.size(); ++i)
            weights[i] = std::max(0.0, qos_[i].weight);
        return floorsPlusProportional(std::vector<double>(n, 0.0),
                                      weights);
    }

    unsigned
    arithmeticOps(unsigned tenants) const override
    {
        // Four per tenant in floorsPlusProportional.
        return 4 * tenants + 1;
    }

  private:
    std::vector<TenantQos> qos_;
};

/**
 * QoS floors: protected tenants (floorFrac > 0) are guaranteed their
 * capacity fraction; whatever remains is split by weight across all
 * tenants, so protected tenants can still grow past their floor when
 * the others leave capacity on the table.
 */
class QosFloorPolicy final : public PrismAllocPolicy
{
  public:
    explicit QosFloorPolicy(std::vector<TenantQos> qos)
        : qos_(std::move(qos))
    {
    }

    std::string name() const override { return "QoS"; }

    std::vector<double>
    computeTargets(const IntervalSnapshot &snap) override
    {
        const std::size_t n = snap.cores.size();
        std::vector<double> floors(n, 0.0);
        std::vector<double> weights(n, 1.0);
        for (std::size_t i = 0; i < n && i < qos_.size(); ++i) {
            floors[i] = std::max(0.0, qos_[i].floorFrac);
            weights[i] = std::max(0.0, qos_[i].weight);
        }
        return floorsPlusProportional(std::move(floors), weights);
    }

    unsigned
    arithmeticOps(unsigned tenants) const override
    {
        // Four per tenant in floorsPlusProportional.
        return 4 * tenants + 1;
    }

  private:
    std::vector<TenantQos> qos_;
};

} // namespace

IntervalSnapshot
toIntervalSnapshot(const TenantSnapshot &snap)
{
    IntervalSnapshot out;
    out.totalBlocks = snap.capacityBytes;
    out.cores.resize(snap.occupancyBytes.size());
    for (std::size_t t = 0; t < out.cores.size(); ++t) {
        CoreIntervalStats &d = out.cores[t];
        d.occupancyBlocks = snap.occupancyBytes[t];
        d.sharedHits = snap.hits[t];
        d.sharedMisses = snap.misses[t];
        d.shadowHitsAtPosition.assign(
            1, static_cast<double>(snap.shadowHits[t]));
        out.intervalMisses += snap.misses[t];
    }
    return out;
}

std::unique_ptr<PrismAllocPolicy>
makeTenantPolicy(char kind, std::vector<TenantQos> qos)
{
    switch (kind) {
      case 'H':
        return std::make_unique<HitMaxPolicy>();
      case 'F':
        return std::make_unique<FairSharePolicy>(std::move(qos));
      case 'Q':
        return std::make_unique<QosFloorPolicy>(std::move(qos));
      default:
        return nullptr;
    }
}

TenantArbiter::TenantArbiter(std::uint32_t tenants,
                             std::unique_ptr<PrismAllocPolicy> policy,
                             std::uint64_t seed, Params)
    : policy_(std::move(policy)),
      controller_(std::max<std::uint32_t>(1, tenants), seed)
{
    fatalIf(tenants == 0, "TenantArbiter: no tenants");
    fatalIf(!policy_, "TenantArbiter: null target policy");
}

void
TenantArbiter::recompute(const TenantSnapshot &snap)
{
    // The byte analogue of the paper's block counts: N objects of
    // average size fill the capacity, and the interval spanned the
    // realised number of misses (the final interval can run short).
    const std::uint64_t blocks_n =
        snap.capacityBytes / std::max<std::uint64_t>(
                                 1, snap.avgObjectBytes);
    controller_.recompute(toIntervalSnapshot(snap), *policy_,
                          std::max<std::uint64_t>(1, blocks_n));
}

} // namespace prism::serve
