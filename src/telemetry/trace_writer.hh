/**
 * @file
 * Export recorded telemetry as Chrome trace-event JSON and flat CSV.
 *
 * The JSON file loads directly in chrome://tracing and in Perfetto's
 * legacy-trace importer: each job becomes one process (pid = job
 * index in spec order), per-core interval series become counter
 * tracks ("C" events), and recorder events become instant events
 * ("i"). The time axis is *simulated*: one allocation interval is
 * rendered as 1 ms of trace time (ts = interval × 1000 µs), so the
 * output depends only on simulation state.
 *
 * Determinism contract (docs/OBSERVABILITY.md): same seed and config
 * ⇒ byte-identical files at any sweep --threads value. Everything
 * written goes through JsonWriter and derives from deterministic
 * simulation state; wall-clock span totals are excluded unless
 * TraceOptions::includeWallTime opts in.
 */

#ifndef PRISM_TELEMETRY_TRACE_WRITER_HH
#define PRISM_TELEMETRY_TRACE_WRITER_HH

#include <iosfwd>
#include <span>
#include <string>

#include "telemetry/interval_recorder.hh"
#include "telemetry/metrics_registry.hh"

namespace prism::telemetry
{

/** One recorded run to export; name labels the trace process. */
struct TraceJob
{
    std::string name;
    const IntervalRecorder *recorder = nullptr;
    /**
     * For a sweep's exec pseudo-job, whose instants carry a 1-based
     * job spec index as their interval: the sweep's job ids in spec
     * order. Each such instant then names its job (a "job" arg).
     */
    std::span<const std::string> jobIds = {};
};

/** TraceWriter knobs. */
struct TraceOptions
{
    /**
     * Emit wall-clock span aggregates ("X" duration events and
     * ".wall_ns" counters). Off by default: wall time breaks the
     * byte-identical determinism contract.
     */
    bool includeWallTime = false;
};

/** Serialises TraceJobs as Chrome trace JSON or flat CSV. */
class TraceWriter
{
  public:
    explicit TraceWriter(const TraceOptions &options = {})
        : options_(options)
    {
    }

    /**
     * Write the "prism-trace-v1" Chrome trace-event document for
     * @p jobs; @p metrics (may be null) adds the span/counter
     * snapshot to otherData. A non-zero @p restored_jobs, the count
     * of a resumed sweep's jobs restored from its checkpoint (which
     * keeps no series, so they are not in @p jobs), is recorded as
     * otherData.restored_jobs.
     */
    void writeChromeTrace(std::ostream &os,
                          std::span<const TraceJob> jobs,
                          const MetricsRegistry *metrics = nullptr,
                          std::uint64_t restored_jobs = 0) const;

    /**
     * Write the interval series as flat CSV, one row per
     * (job, interval, core); PriSM-only columns are empty under
     * other schemes.
     */
    void writeCsv(std::ostream &os,
                  std::span<const TraceJob> jobs) const;

  private:
    TraceOptions options_;
};

} // namespace prism::telemetry

#endif // PRISM_TELEMETRY_TRACE_WRITER_HH
