/**
 * @file
 * RunSeries: the diagnostics engine's normalised view of one run.
 *
 * The doctor consumes runs from five places — a live IntervalRecorder
 * (in-process, `prism_bench --doctor` / `prism_doctor --run`), a
 * `prism-stats-v1` document (counters only), a `prism-trace-v1`
 * Chrome trace (series + events reconstructed offline), one job of a
 * `prism-bench-v1` sweep file (counters + performance), and a
 * `prism-metrics-v1` snapshot (a serve run, or a sweep's progress).
 * Each source fills what it has and flags the rest absent, so the
 * analysis layer can emit explicit SKIP findings instead of
 * guessing.
 */

#ifndef PRISM_ANALYSIS_SERIES_HH
#define PRISM_ANALYSIS_SERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/status.hh"
#include "sim/runner.hh"
#include "telemetry/interval_recorder.hh"

namespace prism::analysis
{

/** Everything the doctor can know about one run. */
struct RunSeries
{
    std::string name;   ///< e.g. "Q7/PriSM-H" or the job id
    std::string scheme; ///< scheme name; "" when unknown
    std::uint32_t cores = 0;

    /** Backend that produced the run: "sim" (simulated
     *  cache), "store" (serving store), "way-mask" (PriSM-WM); ""
     *  when the input predates the plane field. */
    std::string plane;
    /** PriSM-WM mean way-quantisation error in ways (hasWayQuant). */
    double wayQuantError = 0.0;
    bool hasWayQuant = false;

    // --- per-interval series (parallel arrays, oldest first) -------
    bool hasSeries = false;
    bool prism = false; ///< target/evProb series are populated
    std::vector<std::uint64_t> interval;        ///< 1-based indices
    std::vector<std::vector<double>> occupancy; ///< [t][core] C_i
    std::vector<std::vector<double>> target;    ///< [t][core] T_i
    std::vector<std::vector<double>> evProb;    ///< [t][core] E_i

    // --- robustness / control-loop counters -------------------------
    bool hasCounters = false;
    std::uint64_t intervals = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t degradedIntervals = 0;
    std::uint64_t droppedRecomputes = 0;
    std::uint64_t distributionRepairs = 0;
    std::uint64_t fallbackEntries = 0;
    std::uint64_t invariantViolations = 0;
    std::uint64_t ownershipRepairs = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t clampedEq1Inputs = 0;
    std::uint64_t eq1Fallbacks = 0;

    // --- telemetry ring totals --------------------------------------
    std::uint64_t droppedSamples = 0;
    std::uint64_t droppedEvents = 0;

    // --- performance context (QoS / fairness attainment) ------------
    bool hasPerf = false;
    std::vector<double> ipc;
    std::vector<double> ipcStandalone;
    /** PriSM-Q IPC floor fraction; 0 = not a QoS run. */
    double qosTargetFrac = 0.0;

    // --- serving-mode data (serve metrics snapshots) ----------------
    /** This run is a prism_serve session over tenants, not a
     *  simulated cache over cores; "core" indices are tenant ids and
     *  the serve.* checks apply. */
    bool serve = false;
    std::vector<double> serveHitRatio; ///< per tenant, whole run
    std::vector<double> serveSloFloor; ///< hit-ratio SLO; 0 = none
    /** Per-interval per-tenant evictions, parallel to evProb rows. */
    std::vector<std::vector<double>> serveEvictions;
    /** Evictions redirected because the sampled tenant was empty. */
    std::uint64_t serveVictimless = 0;

    // --- live-window drift statistics (metrics snapshots / online) --
    /** The input carried sliding-window EWMA drift statistics. */
    bool hasDrift = false;
    /** Per-tenant relative EWMA drift: |x − ewma| / max(ewma, floor)
     *  of the latest interval's miss rate / fair slowdown. */
    std::vector<double> driftMissRate;
    std::vector<double> driftSlowdown;
};

/** Build the series view of a recorded run (samples + events). */
RunSeries seriesFromRecorder(const telemetry::IntervalRecorder &rec,
                             const std::string &name);

/**
 * Merge a RunResult's counters and performance data into @p s —
 * the in-process complement of seriesFromRecorder.
 */
void attachRunResult(RunSeries &s, const RunResult &r);

/**
 * Map a scheme name to its canonical CLI spelling. The stats dump
 * carries the scheme object's internal name ("PriSM-HitMax",
 * "PriSM-QoS", "PriSM-Fair"); the doctor keys its scheme-specific
 * checks off the short names ("PriSM-H", "PriSM-Q", "PriSM-F").
 * Unknown names pass through unchanged.
 */
std::string canonicalSchemeName(const std::string &name);

/** Read one run from a parsed `prism-stats-v1` document. */
Status seriesFromStatsJson(const JsonValue &doc, RunSeries &out);

/**
 * Reconstruct one series per trace process from a parsed
 * `prism-trace-v1` document. Document-level drop totals are
 * attributed to the first job (they are summed over jobs at export).
 */
Status seriesFromTraceJson(const JsonValue &doc,
                           std::vector<RunSeries> &out);

/**
 * Read one job object of a parsed `prism-bench-v1` document: its
 * result through readRunResultFields (the --resume reader) and
 * attachRunResult, plus the job id and `qos_target_frac`.
 */
Status seriesFromBenchJob(const JsonValue &job, RunSeries &out);

/**
 * Read one snapshot from a parsed `prism-metrics-v1` document
 * (src/telemetry/exporter.hh). A serve-sourced snapshot maps tenants
 * onto the per-core series slots, so the tracking/stability/
 * invariant checks grade the tenant control loop unchanged, and the
 * serve-specific fields enable the serve.* checks (SLO attainment,
 * fair slowdown, victim match). The series rows come from the
 * snapshot's "history" section (the whole run; final snapshots
 * only) when present and from its sliding window otherwise; the
 * window's drift statistics enable the drift.* checks. A
 * bench-sourced snapshot yields counters only.
 */
Status seriesFromMetricsJson(const JsonValue &doc, RunSeries &out);

/**
 * Sweep-execution health: the retry/timeout/quarantine manifest the
 * fault-tolerant exec layer produces (docs/RELIABILITY.md). Filled
 * either live (prism_bench --doctor, from the SweepOutcome) or from
 * the "exec" section of a prism-bench-v1 document.
 */
struct ExecSeries
{
    std::uint64_t jobs = 0;
    std::uint64_t completed = 0;
    std::uint64_t recovered = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t skipped = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    /** Injected torn checkpoint flushes (chaos). */
    std::uint64_t tornWrites = 0;
    /** Corrupt / mismatched checkpoints discarded at resume. */
    std::uint64_t checkpointCorrupt = 0;
    /** Ids of quarantined or skipped jobs, spec order. */
    std::vector<std::string> failedIds;
};

/**
 * Read the exec manifest of a parsed `prism-bench-v1` document.
 * @return true when the document carries an "exec" section (clean
 * sweeps omit it; @p out is then left default-initialised).
 */
bool execSeriesFromBenchDoc(const JsonValue &doc, ExecSeries &out);

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_SERIES_HH
