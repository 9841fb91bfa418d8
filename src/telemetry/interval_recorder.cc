#include "telemetry/interval_recorder.hh"

#include <utility>

#include "common/prism_assert.hh"

namespace prism::telemetry
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::CoreFinish:
        return "core_finish";
      case EventKind::DegradedInterval:
        return "degraded_interval";
      case EventKind::DroppedRecompute:
        return "dropped_recompute";
      case EventKind::DistributionRepair:
        return "distribution_repair";
      case EventKind::FallbackEntered:
        return "fallback_entered";
      case EventKind::OwnershipRepair:
        return "ownership_repair";
      case EventKind::JobRetry:
        return "job_retry";
      case EventKind::JobTimeout:
        return "job_timeout";
      case EventKind::JobQuarantine:
        return "job_quarantine";
    }
    return "?";
}

IntervalRecorder::IntervalRecorder(std::size_t capacity)
    : capacity_(capacity)
{
    fatalIf(capacity_ == 0, "IntervalRecorder: zero capacity");
}

void
IntervalRecorder::record(IntervalSample sample)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(sample));
    } else {
        ring_[head_] = std::move(sample);
        head_ = (head_ + 1) % capacity_;
    }
    ++recorded_;
}

const IntervalSample &
IntervalRecorder::sample(std::size_t i) const
{
    panicIf(i >= ring_.size(), "IntervalRecorder: sample out of range");
    return ring_[(head_ + i) % ring_.size()];
}

void
IntervalRecorder::addEvent(const TelemetryEvent &event)
{
    if (events_.size() < capacity_) {
        events_.push_back(event);
    } else {
        events_[events_head_] = event;
        events_head_ = (events_head_ + 1) % capacity_;
    }
    ++events_seen_;
}

const TelemetryEvent &
IntervalRecorder::event(std::size_t i) const
{
    panicIf(i >= events_.size(),
            "IntervalRecorder: event out of range");
    return events_[(events_head_ + i) % events_.size()];
}

double
finishOccupancy(const IntervalRecorder &recorder, CoreId core)
{
    for (std::size_t i = 0; i < recorder.eventCount(); ++i) {
        const TelemetryEvent &ev = recorder.event(i);
        if (ev.kind == EventKind::CoreFinish && ev.core == core)
            return ev.value;
    }
    return 0.0;
}

RunningStat
evProbStat(const IntervalRecorder &recorder, CoreId core)
{
    RunningStat stat;
    for (std::size_t i = 0; i < recorder.size(); ++i) {
        const IntervalSample &s = recorder.sample(i);
        if (core < s.evProb.size())
            stat.add(s.evProb[core]);
    }
    return stat;
}

} // namespace prism::telemetry
