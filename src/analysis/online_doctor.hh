/**
 * @file
 * Online doctor: the offline diagnostics run incrementally against
 * the live sliding window of a serving session.
 *
 * The offline pipeline grades a finished run (doctor.hh); a
 * long-running prism_serve instance would stay a black box until
 * shutdown. The online doctor closes that gap: after every interval
 * close it assembles a RunSeries from the SlidingWindow plus the
 * engine's cumulative totals — the exact shape seriesFromMetricsJson
 * produces — and re-runs analyze() over it. Same checks, same
 * thresholds, same verdict taxonomy; plus the drift.* checks over
 * the window's EWMA statistics.
 *
 * When the run ends, the observer grades its history instead: a
 * second window, sized to ServeConfig::recorderCapacity, that holds
 * every interval the run closed (up to that bound). The final
 * snapshot carries those rows as its "history" section, so it is the
 * serve run's whole-run document, and its embedded verdict is the
 * one prism_doctor computes from it.
 *
 * The latest verdict is embedded in every metrics snapshot, so the
 * exposition file tells the operator *when* the control loop went
 * unhealthy.
 *
 * Everything is evaluated in the engine's sequential sections from
 * deterministic state, so verdicts — like the snapshots — are
 * byte-identical at any --threads value, and each embedded verdict
 * matches what prism_doctor computes offline from its snapshot.
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

/** Incremental re-grading of a live serve run. */
class OnlineDoctor
{
  public:
    explicit OnlineDoctor(DoctorThresholds thresholds = {})
        : thresholds_(std::move(thresholds))
    {
    }

    /**
     * The live RunSeries for (@p window, @p state, @p config):
     * identity and series shape match seriesFromMetricsJson,
     * counters and hit ratios come from the cumulative totals, drift
     * comes from the window's EWMA state.
     */
    static RunSeries
    buildSeries(const telemetry::SlidingWindow &window,
                const serve::ServeLiveState &state,
                const serve::ServeConfig &config);

    /** Re-grade the live state. */
    const Verdict &evaluate(const telemetry::SlidingWindow &window,
                            const serve::ServeLiveState &state,
                            const serve::ServeConfig &config);

    bool evaluated() const { return evaluated_; }
    const Verdict &verdict() const { return verdict_; }
    const DoctorThresholds &thresholds() const
    {
        return thresholds_;
    }

  private:
    DoctorThresholds thresholds_;
    Verdict verdict_;
    bool evaluated_ = false;
};

/** What the live observer maintains and where it exports. */
struct LiveObserverOptions
{
    /** Sliding-window capacity K in intervals. */
    std::size_t windowCapacity = 64;
    /** EWMA smoothing factor for the drift statistics. */
    double ewmaAlpha = 0.25;

    /** Run the online doctor after every interval close and grade
     *  the run's history when it ends. */
    bool onlineDoctor = false;
    DoctorThresholds thresholds;

    /** prism-metrics-v1 output; "" = none. */
    std::string metricsJsonPath;
    /** Prometheus text exposition output; "" = none. */
    std::string metricsPromPath;
    /** Snapshot cadence in rounds; 0 = final snapshot only. */
    std::uint64_t metricsEvery = 0;
};

/**
 * The live-plane observer prism_serve wires into
 * ServeConfig::observer: feeds the live window and the history
 * window, runs the online doctor, and writes metrics snapshots on
 * the --metrics-every cadence. flushFinal() writes the last
 * snapshot unconditionally — the SIGINT/SIGTERM path relies on it.
 */
class ServeLiveObserver final : public serve::ServeObserver
{
  public:
    ServeLiveObserver(const serve::ServeConfig &config,
                      LiveObserverOptions options);

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

    const telemetry::SlidingWindow &window() const
    {
        return window_;
    }
    /** Every closed interval, up to ServeConfig::recorderCapacity. */
    const telemetry::SlidingWindow &history() const
    {
        return history_;
    }
    bool doctorEnabled() const { return options_.onlineDoctor; }
    const OnlineDoctor &doctor() const { return doctor_; }

    /** Snapshots written (periodic + final). */
    std::uint64_t exportsWritten() const
    {
        return exporter_.exports();
    }
    /** First error any periodic export hit; ok() otherwise. */
    const Status &exportStatus() const { return exportStatus_; }

  private:
    serve::ServeConfig config_; ///< for SLO floors / policy / sizes
    LiveObserverOptions options_;
    telemetry::SlidingWindow window_;
    telemetry::SlidingWindow history_;
    OnlineDoctor doctor_;
    telemetry::MetricsExporter exporter_;
    serve::ServeLiveState last_;
    /** onRunEnd ran: snapshots carry the history section. */
    bool ended_ = false;
    Status exportStatus_;
};

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_ONLINE_DOCTOR_HH
