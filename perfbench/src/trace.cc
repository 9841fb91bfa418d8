#include "trace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace perfbench
{

namespace
{

/** Wall nanoseconds covered by the union of [start, end) intervals. */
double
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    std::int64_t cur_start = 0;
    std::int64_t cur_end = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (!open || s > cur_end) {
            if (open)
                covered += static_cast<double>(cur_end - cur_start);
            cur_start = s;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open)
        covered += static_cast<double>(cur_end - cur_start);
    return covered;
}

bool
sameLayer(const char *a, const char *b)
{
    if (!a || !b)
        return a == b;
    return std::strcmp(a, b) == 0;
}

/** A span nested in a span of its own layer (a parallel task). */
bool
insideOwnLayer(const std::vector<Span> &spans, const Span &s)
{
    return s.parent >= 0 && sameLayer(s.layer, spans[s.parent].layer);
}

/**
 * Self time of every span, by index: its busy time minus what its
 * children of other layers cover. Children of the span's own layer
 * (shard tasks under their stage) run inside its wall time and are
 * not subtracted.
 */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> aggregate_cover(spans.size(), 0.0);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> timed(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || insideOwnLayer(spans, s))
            continue;
        if (s.aggregate) {
            aggregate_cover[s.parent] += static_cast<double>(s.busyNs);
        } else {
            const Span &p = spans[s.parent];
            timed[s.parent].emplace_back(std::max(s.startNs, p.startNs),
                                         std::min(s.endNs, p.endNs));
        }
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double cover = aggregate_cover[i] + unionNs(timed[i]);
        self[i] = static_cast<double>(spans[i].busyNs) - cover;
    }
    return self;
}

} // namespace

std::map<std::string, double>
SpanRecorder::selfNsByLayer() const
{
    const std::vector<double> self = selfTimes(spans_);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (!insideOwnLayer(spans_, spans_[i]))
            out[spans_[i].layer ? spans_[i].layer : ""] += self[i];
    return out;
}

double
SpanRecorder::unattributedNs(std::int64_t from, std::int64_t to) const
{
    const std::vector<double> self = selfTimes(spans_);
    std::vector<std::pair<std::int64_t, std::int64_t>> roots;
    double unnamed = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!s.layer && s.startNs >= from && s.endNs <= to)
            unnamed += std::max(0.0, self[i]);
        if (s.parent < 0 && s.endNs > from && s.startNs < to)
            roots.emplace_back(std::max(s.startNs, from),
                               std::min(s.endNs, to));
    }
    return unnamed + static_cast<double>(to - from) - unionNs(roots);
}

bool
SpanRecorder::write(const std::string &path,
                    const std::string &workload) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"schema\": \"perfbench-spans-v1\", \"workload\": \""
       << workload << "\", \"spans\": " << spans_.size() << "}\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"i\": " << i << ", \"name\": \"" << s.name
           << "\", \"layer\": \"" << (s.layer ? s.layer : "")
           << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs
           << ", \"busy_ns\": " << s.busyNs << ", \"calls\": " << s.calls
           << "}\n";
    }
    return static_cast<bool>(os.flush());
}

} // namespace perfbench
