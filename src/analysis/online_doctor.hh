/**
 * @file
 * The serve live plane's observer: the sliding window, the run's
 * history, metrics snapshots and the online doctor verdict.
 *
 * The offline pipeline grades a finished run (doctor.hh); a
 * long-running prism_serve instance would stay a black box until
 * shutdown. The observer closes that gap. It is the only producer of
 * prism-metrics-v1 snapshots, which it renders straight from what it
 * holds — its copy of the ServeConfig, the last ServeLiveState, the
 * sliding window, the history once the run has ended, and the
 * verdict when the online doctor is on — as JSON and as Prometheus
 * text (snapshot_writer.cc). It writes them atomically (tmp + fsync
 * + rename), so a tailing reader such as prism_top never observes a
 * torn file.
 *
 * The observer grades only when it renders a snapshot. With the
 * online doctor on, rendering one first renders it without a
 * verdict, parses that text back and runs analyze() on
 * seriesFromMetricsJson. That is exactly what `prism_doctor FILE`
 * does with a written snapshot, so the verdict embedded in every
 * snapshot, periodic or final, is the offline one on that snapshot's
 * own text: same checks, same thresholds, same verdict taxonomy,
 * including the drift.* checks over the window's EWMA statistics.
 * The observer keeps no verdict between calls.
 *
 * A snapshot rendered after the run ended carries the run's history,
 * an IntervalRecorder sized to ServeConfig::recorderCapacity that
 * holds every interval the run closed (up to that bound), and the
 * doctor grades those rows instead of the window's. The final
 * snapshot is therefore the serve run's whole-run document.
 *
 * Everything is evaluated in the engine's sequential sections from
 * deterministic state, so verdicts — like the snapshots — are
 * byte-identical at any --threads value.
 */

#ifndef PRISM_ANALYSIS_ONLINE_DOCTOR_HH
#define PRISM_ANALYSIS_ONLINE_DOCTOR_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "analysis/doctor.hh"
#include "common/status.hh"
#include "serve/serve_engine.hh"
#include "telemetry/window.hh"

namespace prism::analysis
{

/** What the live observer maintains and where it exports. */
struct LiveObserverOptions
{
    /** Sliding-window capacity K in intervals. */
    std::size_t windowCapacity = 64;

    /** Embed prism_doctor's verdict in every snapshot rendered. */
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
     * Render the snapshot of the latest observed state as a
     * prism-metrics-v1 document; with the online doctor on, it
     * embeds grade()'s verdict.
     */
    void writeJson(std::ostream &os) const;

    /** The same snapshot in Prometheus text exposition format. */
    void writePrometheus(std::ostream &os) const;

    /**
     * prism_doctor's verdict on the snapshot: its rendering without
     * a verdict, parsed back and analyzed.
     */
    Verdict grade() const;

    /** Every closed interval, up to ServeConfig::recorderCapacity. */
    const telemetry::IntervalRecorder &history() const
    {
        return history_;
    }

  private:
    /** grade() with the online doctor on; nothing otherwise. */
    std::optional<Verdict> embeddedVerdict() const;

    /** The snapshot's JSON, with a doctor section when @p verdict
     *  holds one. */
    void renderJson(std::ostream &os,
                    const std::optional<Verdict> &verdict) const;
    /** The snapshot's Prometheus text; the same @p verdict rule. */
    void renderPrometheus(std::ostream &os,
                          const std::optional<Verdict> &verdict) const;

    /** Write the snapshot to the configured outputs, if any. */
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
