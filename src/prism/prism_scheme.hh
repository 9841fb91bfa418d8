/**
 * @file
 * The PriSM probabilistic cache manager (paper §3.1) — the
 * simulator backend of the shared control loop (DESIGN.md §8).
 *
 * Replacement under PriSM is two-step: Core-Selection draws a victim
 * core from the eviction probability distribution E, then
 * Victim-Identification asks the underlying replacement policy for
 * the victim block of that core in the indexed set. When the
 * selected core has no block in the set, the fallback walks the
 * replacement order and takes the first candidate owned by any core
 * with non-zero eviction probability (§3.1); such "victimless"
 * events are counted for the Figure 13 analysis.
 *
 * The interval control loop itself — targets → hardened Equation 1
 * → AliasSampler → degraded-mode fallback — lives in the shared
 * PrismController (src/plane/); this class hands it each interval's
 * snapshot and keeps only the cache-specific Victim-Identification
 * above. Robustness and telemetry wiring, the eviction distribution
 * and its statistics are reached through controller(). The same
 * controller drives the serving store (serve::TenantArbiter) and the
 * CAT-style way-mask backend (WayMaskScheme).
 */

#ifndef PRISM_PRISM_PRISM_SCHEME_HH
#define PRISM_PRISM_PRISM_SCHEME_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/partition_scheme.hh"
#include "plane/prism_controller.hh"
#include "prism/alloc_policy.hh"

namespace prism
{

/** PriSM manager configuration: the shared control-loop knobs. */
using PrismParams = ControllerParams;

/** The PriSM management scheme. */
class PrismScheme : public PartitionScheme, public ControllerHost
{
  public:
    PrismScheme(std::uint32_t num_cores,
                std::unique_ptr<PrismAllocPolicy> policy,
                std::uint64_t seed, const PrismParams &params = {});

    std::string name() const override;

    int chooseVictim(SharedCache &cache, CoreId core,
                     const SetView &set) override;
    void onIntervalEnd(const IntervalSnapshot &snap) override;

    // --- ControllerHost ---
    PrismController &controller() override { return controller_; }
    const PrismController &controller() const override
    {
        return controller_;
    }

    // --- introspection ---
    /** Replacements where the selected core had no block in the set. */
    std::uint64_t victimlessReplacements() const { return victimless_; }
    std::uint64_t replacements() const { return replacements_; }

    double
    victimlessFraction() const
    {
        return replacements_ ? static_cast<double>(victimless_) /
                                   static_cast<double>(replacements_)
                             : 0.0;
    }

  private:
    std::unique_ptr<PrismAllocPolicy> policy_;
    PrismController controller_;

    std::vector<char> allowed_; // victim-mask scratch
    std::vector<int> order_;    // eviction-order scratch

    std::uint64_t victimless_ = 0;
    std::uint64_t replacements_ = 0;
};

} // namespace prism

#endif // PRISM_PRISM_PRISM_SCHEME_HH
