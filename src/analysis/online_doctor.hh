/**
 * @file
 * The serve live plane's observer: the sliding window, the run's
 * history, metrics snapshots and the online doctor verdict.
 *
 * The offline pipeline grades a finished run (doctor.hh); a
 * long-running prism_serve instance would stay a black box until
 * shutdown. The observer closes that gap. It is the only producer of
 * prism-metrics-v1 snapshots (telemetry/exporter.hh), which it
 * writes atomically (tmp + fsync + rename), so a tailing reader such
 * as prism_top never observes a torn file.
 *
 * The observer grades only when it builds a snapshot. With the
 * online doctor on, building one renders it without a verdict,
 * parses that text back and runs analyze() on seriesFromMetricsJson
 * at the default DoctorThresholds. That is exactly what
 * `prism_doctor FILE` does with a written snapshot, so the verdict
 * embedded in every snapshot, periodic or final, is the offline one
 * on that snapshot's own text: same checks, same thresholds, same
 * verdict taxonomy, including the drift.* checks over the window's
 * EWMA statistics. The observer keeps no verdict between calls.
 *
 * A snapshot built after the run ended carries the run's history, an
 * IntervalRecorder sized to ServeConfig::recorderCapacity that holds
 * every interval the run closed (up to that bound), and the doctor
 * grades those rows instead of the window's. The final snapshot is
 * therefore the serve run's whole-run document.
 *
 * Everything is evaluated in the engine's sequential sections from
 * deterministic state, so verdicts — like the snapshots — are
 * byte-identical at any --threads value.
 */

#ifndef PRISM_ANALYSIS_ONLINE_DOCTOR_HH
#define PRISM_ANALYSIS_ONLINE_DOCTOR_HH

#include <cstdint>
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

    /** Embed prism_doctor's verdict in every snapshot built. */
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
 * and writes metrics snapshots on the --metrics-every cadence.
 * flushFinal() writes the last snapshot unconditionally — the
 * SIGINT/SIGTERM path relies on it.
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
    Status flushFinal() const;

    /**
     * Snapshot of the latest observed state; with the online doctor
     * on, it embeds grade()'s verdict.
     */
    telemetry::MetricsSnapshot snapshot() const;

    /**
     * prism_doctor's verdict on snapshot(): its rendering without a
     * verdict, parsed back and analyzed at DoctorThresholds{}.
     */
    Verdict grade() const;

    /** Every closed interval, up to ServeConfig::recorderCapacity. */
    const telemetry::IntervalRecorder &history() const
    {
        return history_;
    }

  private:
    /** snapshot() without the doctor section. */
    telemetry::MetricsSnapshot ungraded() const;

    /** Write snapshot() to the configured outputs, if any. */
    Status flush() const;

    serve::ServeConfig config_; ///< for SLO floors / policy / sizes
    LiveObserverOptions options_;
    telemetry::SlidingWindow window_;
    telemetry::IntervalRecorder history_;
    serve::ServeLiveState last_;
    /** onRunEnd ran: snapshots carry the history section. */
    bool ended_ = false;
    Status exportStatus_;
};

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_ONLINE_DOCTOR_HH
