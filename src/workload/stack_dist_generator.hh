/**
 * @file
 * Stack-distance-driven access generator.
 *
 * The generator keeps its own LRU stack of previously touched blocks
 * (an OrderStatList) and, for each access, either touches a brand-new
 * block (a compulsory miss, probability @c coldFrac) or draws a stack
 * distance d from a power-law CDF and re-touches the d-th most
 * recently used block.
 *
 * Because the miss ratio of an LRU cache of capacity C equals the
 * probability of drawing a distance greater than C, the parameters
 * (workingSetBlocks, theta, coldFrac) give direct control over the
 * program's miss-ratio curve:
 *
 *   P(distance <= d) = (1 - coldFrac) * (d / workingSet)^theta
 *
 * Small theta concentrates reuse at short distances (cache friendly);
 * theta near 1 spreads it uniformly (cache insensitive until the
 * whole working set fits); a large coldFrac makes the program
 * streaming. This is the repo's substitute for SPEC traces — see
 * DESIGN.md, "Substitutions".
 */

#ifndef PRISM_WORKLOAD_STACK_DIST_GENERATOR_HH
#define PRISM_WORKLOAD_STACK_DIST_GENERATOR_HH

#include <cstdint>
#include <memory>

#include "common/zipf.hh"
#include "workload/generator.hh"
#include "workload/order_stat_list.hh"

namespace prism
{

/** Parameters defining a stack-distance stream's locality. */
struct StackDistParams
{
    /** Maximum LRU-stack depth, in blocks (the working-set size). */
    std::uint64_t workingSetBlocks = 1 << 14;

    /** Power-law exponent of the stack-distance CDF, in (0, inf). */
    double theta = 0.7;

    /** Probability that an access touches a never-seen block. */
    double coldFrac = 0.02;

    /**
     * Probability that an access comes from a cyclic loop over
     * @c loopBlocks dedicated blocks. A cyclic reuse pattern is the
     * classic anti-LRU workload: it hits only when the *whole* loop
     * fits in the space the program effectively holds, giving the
     * program a capacity knee (an MRC cliff) — the structure real
     * SPEC codes like 179.art exhibit and utility-based allocation
     * policies exploit.
     */
    double loopFrac = 0.0;

    /** Size of the cyclic loop, in blocks. */
    std::uint64_t loopBlocks = 0;

    /**
     * Block stride of the loop. Loop addresses are *sequential*
     * (not hashed): real array sweeps map to consecutive cache sets,
     * and power-of-two strides concentrate the loop in 1/stride of
     * the sets. Set-skewed footprints are where per-set-uniform way
     * quotas waste space and PriSM's per-set flexibility pays off
     * (paper §2).
     */
    std::uint64_t loopStride = 1;

    /**
     * Reuse model for the stack component. The default samples block
     * *ranks* directly from the power-law CDF (independent reference
     * model): O(1) per access, with an LRU miss-ratio curve of the
     * same (d/W)^theta shape. Setting exactLru maintains a true LRU
     * stack (order-statistic treap) and draws exact stack distances —
     * O(log W) per access; used by the generator-fidelity tests and
     * available for studies where exact reuse ordering matters.
     */
    bool exactLru = false;
};

/** Generator realising the distribution described in the file docs. */
class StackDistGenerator : public AccessGenerator
{
  public:
    /**
     * @param stream_id Disjoint address-space tag (usually core id).
     * @param params Locality parameters.
     * @param seed Seed for all stochastic choices of this stream.
     */
    StackDistGenerator(std::uint32_t stream_id,
                       const StackDistParams &params, std::uint64_t seed);

    Addr next() override;

    /** Current LRU-stack depth (== workingSetBlocks after init). */
    std::uint64_t stackDepth() const { return stack_.size(); }

  private:
    Addr touchNewBlock();

    std::uint32_t stream_id_;
    StackDistParams params_;
    Rng rng_;
    OrderStatList stack_;
    std::uint64_t next_block_ = 0;
    std::uint64_t cold_block_ = 0;
    std::uint64_t loop_pos_ = 0;
    /** Inverse CDF of u^(1/theta): the shared skewed-stream law
     *  (common/zipf.hh), one immutable table per theta shared by
     *  every generator that uses it. */
    std::shared_ptr<const PowerLawTable> dist_cdf_;
};

} // namespace prism

#endif // PRISM_WORKLOAD_STACK_DIST_GENERATOR_HH
