#include "workload/stack_dist_generator.hh"

#include "common/prism_assert.hh"

namespace prism
{

StackDistGenerator::StackDistGenerator(std::uint32_t stream_id,
                                       const StackDistParams &params,
                                       std::uint64_t seed)
    : stream_id_(stream_id), params_(params), rng_(seed),
      stack_(seed ^ 0xC0FFEEULL),
      dist_cdf_(PowerLawTable::shared(params.theta > 0.0 ? params.theta
                                                          : 1.0))
{
    fatalIf(params_.workingSetBlocks == 0,
            "StackDistGenerator: empty working set");
    fatalIf(params_.theta <= 0.0, "StackDistGenerator: theta <= 0");
    fatalIf(params_.coldFrac < 0.0 || params_.coldFrac > 1.0,
            "StackDistGenerator: coldFrac out of [0,1]");

    if (params_.exactLru) {
        // Pre-populate the whole working set: a real program's
        // resident set exists from the start, and an empty stack
        // would make every early access artificially hot.
        for (std::uint64_t i = 0; i < params_.workingSetBlocks; ++i)
            stack_.pushFront(makeBlockAddr(stream_id_, next_block_++));
    }
}

Addr
StackDistGenerator::touchNewBlock()
{
    if (!params_.exactLru) {
        // IRM mode: cold accesses touch a fresh one-shot block in a
        // disjoint range; the resident working set itself is fixed.
        return makeBlockAddr(stream_id_,
                             (1ull << 38) | cold_block_++);
    }
    const Addr a = makeBlockAddr(stream_id_, next_block_++);
    stack_.pushFront(a);
    // Bound the stack depth: the oldest block is retired for good,
    // keeping selectToFront costs at O(log workingSet).
    if (stack_.size() > params_.workingSetBlocks)
        stack_.popBack();
    return a;
}

Addr
StackDistGenerator::next()
{
    if (params_.loopFrac > 0.0 && rng_.chance(params_.loopFrac)) {
        // Loop region: half the accesses sweep cyclically (the
        // capacity knee — hits only when the whole region is
        // resident), half re-reference a random loop element (real
        // array codes mix sweeps with irregular row reuse; a pure
        // cyclic sweep would be maximally adversarial to every
        // replacement policy at once).
        std::uint64_t pos;
        if (rng_.chance(0.5)) {
            pos = loop_pos_;
            loop_pos_ = (loop_pos_ + 1) % params_.loopBlocks;
        } else {
            pos = rng_.below(params_.loopBlocks);
        }
        return (static_cast<Addr>(stream_id_) << 40) | (1ull << 39) |
               (pos * params_.loopStride + stream_id_ * 1009ull);
    }

    if (rng_.chance(params_.coldFrac))
        return touchNewBlock();

    const double u = rng_.uniform();
    if (!params_.exactLru) {
        // IRM fast path: draw a popularity rank straight from the
        // inverse CDF; block rank r is touched with the same
        // probability mass as stack distance r in the exact model.
        const double scaled =
            dist_cdf_->fraction(u) *
            static_cast<double>(params_.workingSetBlocks);
        std::uint64_t r = static_cast<std::uint64_t>(scaled);
        if (r >= params_.workingSetBlocks)
            r = params_.workingSetBlocks - 1;
        return makeBlockAddr(stream_id_, r);
    }

    const double scaled =
        dist_cdf_->fraction(u) * static_cast<double>(stack_.size());
    std::size_t d = static_cast<std::size_t>(scaled);
    if (d >= stack_.size())
        d = stack_.size() - 1;
    return stack_.selectToFront(d);
}

} // namespace prism
