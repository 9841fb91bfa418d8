/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span carries a name, the layer it is charged to, a request id
 * (round index, job id, interval index), its parent span, start and
 * end. Spans stay in memory while the workload runs and are written
 * out once at the end. Two kinds exist:
 *
 *   - timed spans: start/end read from the clock around one call or
 *     stage; busy time is end - start;
 *   - aggregate spans: a child of a timed span that carries the busy
 *     time and call count of many calls inside it (the simulator's
 *     per-interval layer children), laid end to end.
 *
 * A span's self time is its busy time minus the time its children of
 * other layers cover: the sum of aggregate children, plus the union
 * of timed children. A layer's share of wall time sums the self time
 * of its outermost spans; children of the span's own layer (parallel
 * shard tasks under their stage) are inside that wall time already.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

struct Span
{
    const char *name = "";
    /** Layer charged with the span's self time; null = none. */
    const char *layer = nullptr;
    std::uint64_t id = 0;
    std::int64_t parent = -1; ///< index into the recorder, -1 = root
    std::int64_t startNs = 0; ///< relative to the recorder's origin
    std::int64_t endNs = 0;
    std::int64_t busyNs = 0;
    std::uint64_t calls = 1;
    bool aggregate = false;
};

class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    std::int64_t
    at(Clock::time_point t) const
    {
        return nanosBetween(origin_, t);
    }

    std::int64_t now() const { return at(Clock::now()); }

    /** Append a timed span [start, end] and return its index. */
    std::int64_t
    timed(const char *name, const char *layer, std::uint64_t id,
          std::int64_t parent, std::int64_t start, std::int64_t end)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.id = id;
        s.parent = parent;
        s.startNs = start;
        s.endNs = end;
        s.busyNs = end - start;
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /** Append an aggregate child of @p parent. */
    std::int64_t
    aggregate(const char *name, const char *layer, std::uint64_t id,
              std::int64_t parent, std::int64_t busy,
              std::uint64_t calls)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.id = id;
        s.parent = parent;
        s.startNs = parent >= 0 ? spans_[parent].startNs : 0;
        s.endNs = s.startNs + busy;
        s.busyNs = busy;
        s.calls = calls;
        s.aggregate = true;
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /** Close timed span @p idx at @p end. */
    void
    close(std::int64_t idx, std::int64_t end)
    {
        spans_[idx].endNs = end;
        spans_[idx].busyNs = end - spans_[idx].startNs;
    }

    /**
     * Wall time per layer: self time summed over each layer's
     * outermost spans. Key "" collects the self time of spans charged
     * to no layer (root spans' own bookkeeping).
     */
    std::map<std::string, double> selfNsByLayer() const;

    /**
     * Wall nanoseconds of [@p from, @p to] covered by no named layer:
     * the unnamed spans' self time plus the time no root span covers.
     */
    double unattributedNs(std::int64_t from, std::int64_t to) const;

    /** Write the spans as JSON lines; false when the file fails. */
    bool write(const std::string &path, const std::string &workload) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
