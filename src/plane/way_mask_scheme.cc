#include "plane/way_mask_scheme.hh"

#include <cmath>

#include "common/prism_assert.hh"

namespace prism
{

WayMaskScheme::WayMaskScheme(std::uint32_t num_cores,
                             std::uint32_t ways,
                             std::unique_ptr<PrismAllocPolicy> policy,
                             std::uint64_t seed,
                             const ControllerParams &params)
    : WayPartitionScheme(num_cores, ways),
      policy_(std::move(policy)),
      controller_(num_cores, seed, params)
{
    fatalIf(!policy_, "WayMaskScheme: null allocation policy");
}

void
WayMaskScheme::onIntervalEnd(const IntervalSnapshot &snap)
{
    if (!controller_.recompute(snap, *policy_, snap.totalBlocks) ||
        controller_.fallbackActive())
        return;

    // Enforcement: quantise the real-valued targets onto the way
    // masks and record how much expressiveness the quantisation
    // cost.
    const std::vector<double> &t = controller_.targets();
    std::vector<std::uint32_t> alloc = roundFractionsToWays(t, ways_);
    double err = 0.0;
    for (std::uint32_t i = 0; i < num_cores_; ++i)
        err += std::abs(static_cast<double>(alloc[i]) -
                        t[i] * static_cast<double>(ways_));
    quant_err_.add(err / static_cast<double>(num_cores_));
    setAllocation(std::move(alloc));
}

} // namespace prism
