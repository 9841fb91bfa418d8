/**
 * @file
 * The serve live plane's observer: the sliding window, the run's
 * history, metrics snapshots and the online doctor verdict.
 *
 * The offline pipeline grades a finished run (doctor.hh); a
 * long-running prism_serve instance would stay a black box until
 * shutdown. The observer closes that gap: after every interval close
 * it renders its own snapshot as prism-metrics-v1 text, parses it
 * back and runs analyze() on seriesFromMetricsJson at the default
 * DoctorThresholds. That is exactly what `prism_doctor FILE` does
 * with a written snapshot, so the online verdict is the offline one
 * by construction: same checks, same thresholds, same verdict
 * taxonomy, including the drift.* checks over the window's EWMA
 * statistics.
 *
 * When the run ends, the observer grades once more. A snapshot taken
 * then carries the run's history, an IntervalRecorder sized to
 * ServeConfig::recorderCapacity that holds every interval the run
 * closed (up to that bound), and the doctor grades those rows
 * instead of the window's. The final snapshot is therefore the serve
 * run's whole-run document, and its embedded verdict is the one
 * prism_doctor computes from it.
 *
 * The latest verdict is embedded in every metrics snapshot, so the
 * exposition file tells the operator *when* the control loop went
 * unhealthy. A periodic snapshot written in a round that closed no
 * interval carries the verdict of the latest close.
 *
 * Everything is evaluated in the engine's sequential sections from
 * deterministic state, so verdicts — like the snapshots — are
 * byte-identical at any --threads value.
 */

#ifndef PRISM_ANALYSIS_ONLINE_DOCTOR_HH
#define PRISM_ANALYSIS_ONLINE_DOCTOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/doctor.hh"
#include "common/status.hh"
#include "serve/serve_engine.hh"
#include "telemetry/exporter.hh"
#include "telemetry/window.hh"

namespace prism::analysis
{

/** What the live observer maintains and where it exports. */
struct LiveObserverOptions
{
    /** Sliding-window capacity K in intervals. */
    std::size_t windowCapacity = 64;

    /** Grade the run after every interval close and once more when
     *  it ends. */
    bool onlineDoctor = false;

    /** prism-metrics-v1 output; "" = none. */
    std::string metricsJsonPath;
    /** Prometheus text exposition output; "" = none. */
    std::string metricsPromPath;
    /** Snapshot cadence in rounds; 0 = final snapshot only. */
    std::uint64_t metricsEvery = 0;
};

/**
 * The live-plane observer prism_serve wires into
 * ServeConfig::observer: feeds the sliding window and the history,
 * grades the run, and writes metrics snapshots on the
 * --metrics-every cadence. flushFinal() writes the last snapshot
 * unconditionally — the SIGINT/SIGTERM path relies on it.
 */
class ServeLiveObserver final : public serve::ServeObserver
{
  public:
    ServeLiveObserver(const serve::ServeConfig &config,
                      LiveObserverOptions options);

    /** Reads the interval's evictions from @p sample. */
    void
    onIntervalClosed(const telemetry::IntervalSample &sample,
                     std::span<const std::uint64_t> evictions,
                     const serve::ServeLiveState &state) override;
    void onRoundEnd(const serve::ServeLiveState &state) override;
    void onRunEnd(const serve::ServeLiveState &state) override;

    /** The final snapshot write; ok() when no export is configured. */
    Status flushFinal();

    /** Snapshot of the latest observed state. */
    telemetry::MetricsSnapshot snapshot() const;

    /** Every closed interval, up to ServeConfig::recorderCapacity. */
    const telemetry::IntervalRecorder &history() const
    {
        return history_;
    }

    /** The latest online verdict; null until the doctor graded. */
    const Verdict *
    verdict() const
    {
        return verdict_ ? &*verdict_ : nullptr;
    }

  private:
    /** prism_doctor's grading of snapshot(), rendered as text. */
    void grade();

    serve::ServeConfig config_; ///< for SLO floors / policy / sizes
    LiveObserverOptions options_;
    telemetry::SlidingWindow window_;
    telemetry::IntervalRecorder history_;
    std::optional<Verdict> verdict_;
    telemetry::MetricsExporter exporter_;
    serve::ServeLiveState last_;
    /** onRunEnd ran: snapshots carry the history section. */
    bool ended_ = false;
    Status exportStatus_;
};

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_ONLINE_DOCTOR_HH
