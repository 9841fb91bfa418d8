/**
 * @file
 * Winner tree over the per-core clocks: System::run's scheduler.
 *
 * The simulator steps the core with the lowest clock next, the
 * lowest index on ties. A linear scan finds that core in O(cores)
 * per step and touches every core's state to do it; this tree keeps
 * the pick at its root and, when one core's clock moves, replays
 * only that core's leaf-to-root path: log2 of the core count,
 * rounded up, comparisons over one small array.
 *
 * Each node holds its winner's clock next to the winner's index, so
 * a replay compares against the sibling node without a second load.
 * Leaves are padded to a power of two with +inf clocks. On a tie the
 * left operand wins, and it always holds the lower index, so the
 * root is exactly the scan's choice for any core count and any
 * finite clocks, and a padding leaf never wins.
 */

#ifndef PRISM_SIM_CLOCK_TREE_HH
#define PRISM_SIM_CLOCK_TREE_HH

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/prism_assert.hh"
#include "common/types.hh"

namespace prism
{

/** The earliest of a fixed set of clocks, kept under updates. */
class ClockTree
{
  public:
    /** @param clocks Initial clock of each core; at least one. */
    explicit ClockTree(std::span<const double> clocks)
    {
        fatalIf(clocks.empty(), "ClockTree: no clocks");
        while (leaves_ < clocks.size())
            leaves_ *= 2;
        node_.resize(2 * leaves_);
        for (std::size_t i = 0; i < leaves_; ++i)
            node_[leaves_ + i] = Node{
                i < clocks.size()
                    ? clocks[i]
                    : std::numeric_limits<double>::infinity(),
                static_cast<CoreId>(i)};
        for (std::size_t pos = leaves_ - 1; pos >= 1; --pos)
            node_[pos] = winner(node_[2 * pos], node_[2 * pos + 1]);
    }

    /** The core to step next: lowest clock, lowest index on ties. */
    CoreId next() const { return node_[1].core; }

    /** Core @p core's clock is now @p clock. */
    void
    update(CoreId core, double clock)
    {
        std::size_t pos = leaves_ + core;
        node_[pos] = Node{clock, core};
        for (; pos > 1; pos >>= 1)
            node_[pos >> 1] =
                winner(node_[pos & ~std::size_t{1}], node_[pos | 1]);
    }

  private:
    struct Node
    {
        double clock = 0.0;
        CoreId core = 0;
    };

    /** @p left covers lower indices than @p right, so it wins ties. */
    static const Node &
    winner(const Node &left, const Node &right)
    {
        return right.clock < left.clock ? right : left;
    }

    std::size_t leaves_ = 1;
    /** node_[1] is the root, node_[leaves_ + i] core i's leaf. */
    std::vector<Node> node_;
};

} // namespace prism

#endif // PRISM_SIM_CLOCK_TREE_HH
