/**
 * @file
 * Per-interval time-series recorder for the PriSM control loop.
 *
 * PriSM's behaviour is temporal: the paper's diagnostics are
 * per-interval trajectories of occupancy C_i, targets T_i, eviction
 * probabilities E_i and misses M_i (Figures 4 and 11). The recorder
 * captures one IntervalSample per allocation interval — plus a
 * stream of instant TelemetryEvents (core completions, degraded
 * intervals, repairs) — into bounded ring buffers with
 * oldest-dropped semantics and drop counters.
 *
 * The recorder is single-writer (one simulation thread); in sweeps
 * each job owns its own recorder, so no synchronisation is needed
 * and the recorded series is deterministic at any thread count.
 *
 * IntervalSample is also the serve plane's interval row: the live
 * observer keeps its sliding window and the run's history in
 * recorders of these samples and renders both from them in its
 * prism-metrics-v1 snapshots (telemetry/window.hh,
 * analysis/online_doctor.hh).
 */

#ifndef PRISM_TELEMETRY_INTERVAL_RECORDER_HH
#define PRISM_TELEMETRY_INTERVAL_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace prism::telemetry
{

class MetricsRegistry;

/** Run-level telemetry knobs, carried on SchemeOptions. */
struct TelemetryConfig
{
    /** Master switch; off = no recorder, no samples, no spans. */
    bool enabled = false;

    /** Ring-buffer capacity in intervals (and in events). */
    std::size_t capacity = 4096;

    /**
     * Span/metric sink (non-owning; may be null). Safe to share
     * between concurrent sweep jobs — MetricsRegistry is
     * thread-safe and spans aggregate commutatively.
     */
    MetricsRegistry *metrics = nullptr;
};

/** One interval boundary's per-core state. */
struct IntervalSample
{
    /** 1-based interval index (matches SharedCache::intervals()). */
    std::uint64_t interval = 0;

    /** Misses in this interval (W, barring the final partial one). */
    std::uint64_t missesInInterval = 0;

    // Per-core series; indexed by CoreId.
    std::vector<double> occupancy; ///< C_i as a fraction of blocks
    std::vector<double> missFrac;  ///< M_i within the interval
    std::vector<double> ipc;       ///< interval IPC (0 without timing)
    std::vector<std::uint64_t> hits;
    std::vector<std::uint64_t> misses;

    // PriSM-only series; empty under other schemes.
    std::vector<double> target; ///< T_i from the allocation policy
    std::vector<double> evProb; ///< E_i after quantisation/repair

    /**
     * Serve only: objects evicted per tenant in the interval, filled
     * by ServeEngine. The simulator leaves it empty and TraceWriter
     * does not write it.
     */
    std::vector<std::uint64_t> evictions;
};

/** Kinds of instant events the trace can carry. */
enum class EventKind
{
    CoreFinish,         ///< a core crossed its instruction budget
    DegradedInterval,   ///< PriSM served an interval degraded
    DroppedRecompute,   ///< an injected fault lost the recompute
    DistributionRepair, ///< auditor clamped/renormalised E
    FallbackEntered,    ///< E unrecoverable; repl policy serves
    OwnershipRepair,    ///< cache occupancy counters were repaired

    // Exec-layer events (sweep supervision): the interval index
    // carries the 1-based job spec index, the value the attempt.
    JobRetry,      ///< a failed attempt was retried
    JobTimeout,    ///< an attempt hit the deadline watchdog
    JobQuarantine, ///< the job exhausted its attempts
};

const char *eventKindName(EventKind kind);

/** One instant event, anchored to an interval index. */
struct TelemetryEvent
{
    EventKind kind = EventKind::DegradedInterval;
    /** 1-based interval the event belongs to. */
    std::uint64_t interval = 0;
    /** Affected core, or invalidCore for whole-cache events. */
    CoreId core = invalidCore;
    /** Kind-specific payload (e.g. occupancy at finish). */
    double value = 0.0;
};

/** Bounded ring of interval samples plus a ring of instant events. */
class IntervalRecorder
{
  public:
    /**
     * @param capacity Samples (and events) retained; at least 1. It
     * is only a bound: storage grows with what is recorded.
     */
    explicit IntervalRecorder(std::size_t capacity);

    IntervalRecorder(const IntervalRecorder &) = delete;
    IntervalRecorder &operator=(const IntervalRecorder &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Append @p sample, dropping the oldest retained one when full. */
    void record(IntervalSample sample);

    /** Retained samples (<= capacity). */
    std::size_t size() const { return ring_.size(); }

    /** Samples ever recorded, including dropped ones. */
    std::uint64_t recorded() const { return recorded_; }

    std::uint64_t
    droppedSamples() const
    {
        return recorded_ - ring_.size();
    }

    /** Retained sample @p i, 0 = oldest retained. */
    const IntervalSample &sample(std::size_t i) const;

    /** Append @p event, dropping the oldest retained one when full. */
    void addEvent(const TelemetryEvent &event);

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t eventsSeen() const { return events_seen_; }

    std::uint64_t
    droppedEvents() const
    {
        return events_seen_ - events_.size();
    }

    /** Retained event @p i, 0 = oldest retained. */
    const TelemetryEvent &event(std::size_t i) const;

  private:
    std::size_t capacity_;

    std::vector<IntervalSample> ring_; ///< grows to capacity_, then wraps
    std::size_t head_ = 0;             ///< next write position once full
    std::uint64_t recorded_ = 0;

    std::vector<TelemetryEvent> events_;
    std::size_t events_head_ = 0;
    std::uint64_t events_seen_ = 0;
};

/**
 * Occupancy fraction carried by @p core's CoreFinish event — the
 * figure 4 statistic; 0 when the event was not recorded (dropped or
 * the run did not finish).
 */
double finishOccupancy(const IntervalRecorder &recorder, CoreId core);

/**
 * Welford statistics over the recorded E_i series of @p core — the
 * figure 11 statistic. With no dropped samples this replays exactly
 * the sequence PrismScheme::probStat accumulates, so mean and
 * stddev match bit for bit.
 */
RunningStat evProbStat(const IntervalRecorder &recorder, CoreId core);

} // namespace prism::telemetry

#endif // PRISM_TELEMETRY_INTERVAL_RECORDER_HH
