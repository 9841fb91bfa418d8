/**
 * @file
 * WayMaskScheme: the CAT-style way-mask backend of the shared
 * control loop (DESIGN.md §8) — scheme name "PriSM-WM".
 *
 * Commodity hardware exposes no per-miss probabilistic victim hook;
 * what it does expose is per-core way masks (Intel CAT and
 * look-alikes). This backend runs the exact same PrismController
 * interval loop as the simulator's PrismScheme — targets T_i →
 * hardened Equation 1 → sampler → degraded-mode fallback — but
 * *enforces* the targets by quantising T_i to an integral way
 * allocation (largest-remainder rounding, one-way minimum; see
 * roundFractionsToWays) and letting the inherited way-partition
 * enforcement pick victims, the way LFOC maps its buckets onto CAT
 * allocations. The gap between the real-valued targets and the
 * quantised ways is tracked as the way-quantisation error the
 * doctor WARNs about when it exceeds a way on average.
 */

#ifndef PRISM_PLANE_WAY_MASK_SCHEME_HH
#define PRISM_PLANE_WAY_MASK_SCHEME_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "plane/prism_controller.hh"
#include "policies/way_partition.hh"
#include "prism/alloc_policy.hh"

namespace prism
{

/** PriSM control loop enforced through per-core way masks. */
class WayMaskScheme : public WayPartitionScheme, public ControllerHost
{
  public:
    WayMaskScheme(std::uint32_t num_cores, std::uint32_t ways,
                  std::unique_ptr<PrismAllocPolicy> policy,
                  std::uint64_t seed,
                  const ControllerParams &params = {});

    std::string name() const override { return "PriSM-WM"; }

    /**
     * Run the shared controller recompute, then install
     * roundFractionsToWays(T, ways) as the new way allocation.
     * While the controller is in fallback the previous allocation is
     * kept (the way masks are always a safe enforcement mechanism).
     */
    void onIntervalEnd(const IntervalSnapshot &snap) override;

    // --- ControllerHost ---
    PrismController &controller() override { return controller_; }
    const PrismController &controller() const override
    {
        return controller_;
    }

    // --- introspection ---
    /**
     * Mean absolute gap |alloc_i − T_i · ways| in ways, averaged over
     * cores, one sample per recompute. A mean above one way means the
     * mask granularity is too coarse to express the targets
     * (prism_doctor's analyzePlane check).
     */
    const RunningStat &wayQuantError() const { return quant_err_; }

  private:
    std::unique_ptr<PrismAllocPolicy> policy_;
    PrismController controller_;

    RunningStat quant_err_; // |alloc - T*ways| per recompute
};

} // namespace prism

#endif // PRISM_PLANE_WAY_MASK_SCHEME_HH
