/**
 * @file
 * PriSM interval control loop over *tenants* of a shared object
 * store.
 *
 * The paper manages per-core occupancy of a shared hardware cache;
 * the serving plane (docs/SERVING.md) transplants the same loop one
 * level up: tenants of a multi-tenant key-value store share one byte
 * budget, and every W misses the arbiter recomputes per-tenant
 * occupancy targets T_i and the Equation 1 eviction distribution
 * E_i. Each capacity eviction then samples a *victim tenant* from
 * E through the same O(1) AliasSampler the simulator's
 * Core-Selection uses, and the data plane evicts that tenant's LRU
 * object.
 *
 * The arbiter is the serving store's adapter onto the one shared
 * PrismController (DESIGN.md §8): it maps each interval's byte
 * observations onto an IntervalSnapshot whose domains are tenants,
 * and the target policies are ordinary PrismAllocPolicy
 * implementations — the exact control loop PrismScheme runs over
 * the simulated cache and WayMaskScheme runs over CAT-style way
 * masks.
 */

#ifndef PRISM_SERVE_TENANT_ARBITER_HH
#define PRISM_SERVE_TENANT_ARBITER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "plane/prism_controller.hh"
#include "prism/alloc_policy.hh"

namespace prism::serve
{

/** Per-tenant quality-of-service inputs to the target policies. */
struct TenantQos
{
    /** Relative share weight (Fair policy). */
    double weight = 1.0;
    /** Guaranteed capacity fraction; 0 = unprotected (QoS policy). */
    double floorFrac = 0.0;
    /** Hit-ratio SLO floor the doctor checks; 0 = no SLO. */
    double sloHitRatio = 0.0;
};

/** One interval's observations, in bytes and raw counts. */
struct TenantSnapshot
{
    std::uint64_t capacityBytes = 0;
    /** Mean live-object size; the byte analogue of a cache block. */
    std::uint64_t avgObjectBytes = 1;

    // Per-tenant; all vectors share the tenant-count length.
    std::vector<std::uint64_t> occupancyBytes;
    std::vector<std::uint64_t> hits;       ///< this interval
    std::vector<std::uint64_t> misses;     ///< this interval
    std::vector<std::uint64_t> shadowHits; ///< ghost hits, interval
};

/**
 * The controller's view of @p snap: one domain per tenant, occupancy
 * in bytes over capacityBytes, interval hits and misses as shared
 * hits and misses, ghost hits as a one-entry shadow histogram, and
 * W = the interval's realised miss count.
 */
IntervalSnapshot toIntervalSnapshot(const TenantSnapshot &snap);

/**
 * Build the serving target policy selected by @p kind: 'H'
 * hit-maximising (shadow hits weigh reuse a tenant was denied), 'F'
 * weighted fair share, 'Q' QoS floors with weighted distribution of
 * the remainder. Null for any other kind.
 */
std::unique_ptr<PrismAllocPolicy>
makeTenantPolicy(char kind, std::vector<TenantQos> qos);

/** Control-loop knobs for TenantArbiter. */
struct ArbiterParams
{
    /** Misses per allocation interval (the paper's W). */
    std::uint64_t intervalMisses = 16384;
};

/**
 * The serving-plane adapter onto the shared PrismController
 * (src/plane/): maps tenant byte observations into the controller's
 * targets → Equation 1 → sampler loop, exactly as PrismScheme maps
 * core block observations.
 */
class TenantArbiter : public ControllerHost
{
  public:
    using Params = ArbiterParams;

    /** The engine closes intervals every @p params.intervalMisses
     *  misses; the arbiter recomputes whenever it is asked to. */
    TenantArbiter(std::uint32_t tenants,
                  std::unique_ptr<PrismAllocPolicy> policy,
                  std::uint64_t seed, Params params = Params());

    // --- ControllerHost ---
    PrismController &controller() override { return controller_; }
    const PrismController &controller() const override
    {
        return controller_;
    }

    /**
     * Draw the victim tenant for one capacity eviction: one uniform
     * through the O(1) alias table, stream-identical to the
     * inverse-CDF reference walk.
     */
    std::uint32_t
    sampleVictimTenant()
    {
        return controller_.sampleVictim();
    }

    /**
     * End-of-interval recompute: the controller's recompute over
     * toIntervalSnapshot(@p snap) with N = capacity / avg-object-size.
     */
    void recompute(const TenantSnapshot &snap);

    std::uint64_t recomputes() const
    {
        return controller_.recomputes();
    }

  private:
    std::unique_ptr<PrismAllocPolicy> policy_;
    PrismController controller_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_TENANT_ARBITER_HH
