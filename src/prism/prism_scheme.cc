#include "prism/prism_scheme.hh"

#include "cache/shared_cache.hh"
#include "common/prism_assert.hh"

namespace prism
{

PrismScheme::PrismScheme(std::uint32_t num_cores,
                         std::unique_ptr<PrismAllocPolicy> policy,
                         std::uint64_t seed, const PrismParams &params)
    : policy_(std::move(policy)), controller_(num_cores, seed, params)
{
    fatalIf(!policy_, "PrismScheme: null allocation policy");
    allowed_.assign(256, 0);
}

std::string
PrismScheme::name() const
{
    return "PriSM-" + policy_->name();
}

int
PrismScheme::chooseVictim(SharedCache &cache, CoreId core, const SetView &set)
{
    (void)core;
    ++replacements_;

    if (controller_.fallbackActive()) {
        // Degraded: the last recompute produced an unrecoverable
        // distribution, so probabilistic core selection is off and
        // the underlying replacement policy serves the interval.
        return cache.repl().victim(set);
    }

    const CoreId victim_core = controller_.sampleVictim();
    const std::uint8_t *owner = set.blocks.owner;
    const double *e = controller_.evictionProbs().data();

    if (cache.repl().victimOrderIsRecency()) {
        // LRU-family fast path: victimAmong() is the back-to-front
        // walk of the recency order and evictionOrder() is that same
        // order reversed, so Victim-Identification and the §3.1
        // fallback fuse into one walk. Every valid way is in the
        // list (LRU fills insert unconditionally), making this
        // draw-for-draw identical to the masked two-pass scan below.
        const OrderList &order = set.state.order;
        int fallback_way = invalidWay;
        for (std::size_t i = order.size(); i-- > 0;) {
            const int way = order[i];
            const CoreId o = owner[static_cast<std::size_t>(way)];
            if (o == victim_core)
                return way;
            if (fallback_way == invalidWay && e[o] > 0.0)
                fallback_way = way;
        }
        ++victimless_;
        if (fallback_way != invalidWay)
            return fallback_way;
        // Every owner in this set has E == 0: overall candidate.
        return order.empty() ? invalidWay : order.back();
    }

    const std::size_t num_ways = set.ways();
    if (allowed_.size() < num_ways)
        allowed_.resize(num_ways);
    // Contiguous single-field scans over the SoA metadata.
    const std::uint8_t *valid = set.blocks.valid;
    bool present = false;
    for (std::size_t w = 0; w < num_ways; ++w) {
        const bool mine = valid[w] && owner[w] == victim_core;
        allowed_[w] = mine;
        present |= mine;
    }

    if (present) {
        const int way = cache.repl().victimAmong(
            set, std::span<const char>(allowed_.data(), num_ways));
        if (way != invalidWay)
            return way;
    }

    // Fallback (§3.1): first replacement candidate owned by a core
    // with non-zero eviction probability.
    ++victimless_;
    cache.repl().evictionOrder(set, order_);
    for (int way : order_) {
        if (e[owner[static_cast<std::size_t>(way)]] > 0.0)
            return way;
    }
    // Every owner in this set has E == 0: take the overall candidate.
    return order_.empty() ? invalidWay : order_.front();
}

void
PrismScheme::onIntervalEnd(const IntervalSnapshot &snap)
{
    controller_.recompute(snap, *policy_, snap.totalBlocks);
}

} // namespace prism
