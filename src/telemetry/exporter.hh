/**
 * @file
 * Metrics exposition: deterministic point-in-time snapshots of a
 * running driver, rendered as a versioned `prism-metrics-v1` JSON
 * document and as Prometheus text exposition, written atomically.
 *
 * The snapshot is a plain value assembled by the caller (the serve
 * engine's live observer, or prism_bench's sweep observer) from
 * state that is itself deterministic — cumulative totals, the
 * SlidingWindow, the MetricsRegistry — and keyed by the round index,
 * never the wall clock. A serve run's final snapshot is its only
 * document: besides the live window it carries a "history" section,
 * the run's interval rows up to ServeConfig::recorderCapacity, which
 * the doctor grades instead of the window. Both sections are
 * IntervalSample rows held in an IntervalRecorder, and one routine
 * renders them ("pushed" is the recorder's recorded()). Rendering
 * walks fixed key orders and sorted metric names through JsonWriter,
 * so the same round of the same run produces byte-identical files at
 * any --threads value, and the live plane can be golden-tested like
 * the offline artifacts (docs/OBSERVABILITY.md, "Live metrics &
 * online doctor").
 *
 * Files are written with writeFileAtomic (tmp + fsync + rename): a
 * tailing reader such as prism_top never observes a torn snapshot.
 */

#ifndef PRISM_TELEMETRY_EXPORTER_HH
#define PRISM_TELEMETRY_EXPORTER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hh"
#include "telemetry/window.hh"

namespace prism::telemetry
{

class MetricsRegistry;

/** Per-tenant cumulative state at the snapshot round. */
struct TenantLiveState
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t shadowHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t occupancyBytes = 0;

    double hitRatio = 1.0;  ///< hits / accesses (1.0 when none)
    double occupancy = 0.0; ///< occupancyBytes / capacityBytes
    double target = 0.0;    ///< T_i currently in effect
    double evProb = 0.0;    ///< E_i currently in effect
    double sloHit = 0.0;    ///< configured hit-ratio floor
};

/**
 * One online-doctor finding, decoupled from the analysis layer so
 * telemetry stays a leaf library (statuses travel as their printed
 * names: "PASS" / "WARN" / "FAIL" / "SKIP").
 */
struct DoctorFindingLine
{
    std::string check;
    std::string status;
    double value = 0.0;
    double threshold = 0.0;
    bool hasValue = false;
    std::string detail;
};

/**
 * Everything one snapshot renders. Pointers are non-owning and may
 * be null; empty sections are omitted from the output.
 */
struct MetricsSnapshot
{
    std::string source; ///< "serve" or "bench"
    std::string run;    ///< run identity (e.g. "serve/PriSM-H")
    std::string policy; ///< serve policy long name; "" = omit

    std::uint64_t round = 0; ///< snapshot key (rounds / jobs done)
    std::uint64_t ops = 0;
    std::uint64_t intervals = 0;

    // Serve-wide totals; rendered when tenants is non-empty.
    std::uint64_t evictions = 0;
    std::uint64_t victimlessEvictions = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t eq1Fallbacks = 0;
    std::uint64_t clampedEq1Inputs = 0;
    std::uint64_t occupancyBytes = 0;
    std::uint64_t capacityBytes = 0;
    std::uint64_t objects = 0;
    std::uint64_t rehashes = 0;
    std::vector<TenantLiveState> tenants;

    // Sweep progress; rendered when jobsTotal > 0 (bench source).
    std::uint64_t jobsCompleted = 0;
    std::uint64_t jobsTotal = 0;

    std::uint64_t droppedSamples = 0;
    std::uint64_t droppedEvents = 0;

    /** Live window; adds per-tenant window stats + its rows. */
    const SlidingWindow *window = nullptr;
    /** Whole-run interval rows ("history"); final snapshots only. */
    const IntervalRecorder *history = nullptr;

    // Online-doctor verdict; rendered when doctorOverall non-empty.
    std::string doctorOverall;
    std::vector<DoctorFindingLine> doctorFindings;

    /** Registry section ({counters, gauges, histograms}). */
    const MetricsRegistry *metrics = nullptr;
    /** Include ".wall_ns" counters (non-deterministic). */
    bool includeWallMetrics = false;
};

/** Where and how often MetricsExporter writes. */
struct ExporterConfig
{
    std::string jsonPath; ///< prism-metrics-v1 file; "" = none
    std::string promPath; ///< Prometheus text file; "" = none
    std::uint64_t every = 0; ///< cadence in rounds; 0 = final only
};

/**
 * Periodic snapshot writer. due() implements the `--metrics-every N`
 * cadence on the round counter; flush() writes the configured files,
 * on that cadence and once more on exit (including the SIGINT/SIGTERM
 * path).
 */
class MetricsExporter
{
  public:
    explicit MetricsExporter(ExporterConfig config)
        : config_(std::move(config))
    {
    }

    const ExporterConfig &config() const { return config_; }

    bool
    enabled() const
    {
        return !config_.jsonPath.empty() ||
               !config_.promPath.empty();
    }

    /** Whether the cadence fires at @p round (1-based, > 0). */
    bool
    due(std::uint64_t round) const
    {
        return enabled() && config_.every > 0 && round > 0 &&
               round % config_.every == 0;
    }

    /** Unconditionally write the configured outputs. */
    Status flush(const MetricsSnapshot &snap);

    /** Render @p snap as a prism-metrics-v1 document. */
    static void writeJson(std::ostream &os,
                          const MetricsSnapshot &snap);

    /** Render @p snap in Prometheus text exposition format. */
    static void writePrometheus(std::ostream &os,
                                const MetricsSnapshot &snap);

  private:
    ExporterConfig config_;
};

} // namespace prism::telemetry

#endif // PRISM_TELEMETRY_EXPORTER_HH
