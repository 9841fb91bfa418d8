/**
 * @file
 * Experiment runner: named schemes, stand-alone IPC caching and
 * workload execution.
 *
 * Every figure harness funnels through this module: it instantiates
 * the requested management scheme, runs the workload on the machine,
 * runs (and memoises) the stand-alone reference simulations needed
 * for ANTT/fairness/QoS, and packages the per-core results together
 * with scheme-internal statistics (eviction-probability traces,
 * victimless-replacement fractions).
 */

#ifndef PRISM_SIM_RUNNER_HH
#define PRISM_SIM_RUNNER_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hh"
#include "common/concurrent_memo.hh"
#include "sim/machine_config.hh"
#include "sim/system.hh"
#include "telemetry/interval_recorder.hh"
#include "workload/suites.hh"

namespace prism
{

/** Selector for the built-in management schemes. */
enum class SchemeKind
{
    Baseline,  ///< unmanaged cache under the configured replacement
    UCP,       ///< way-partitioning + lookahead [14]
    PIPP,      ///< promotion/insertion pseudo-partitioning [20]
    TADIP,     ///< thread-aware DIP [7]
    FairWP,    ///< fair way-partitioning [9]
    Vantage,   ///< Vantage on set-associative cache [17]
    PrismH,    ///< PriSM hit-maximisation
    PrismF,    ///< PriSM fairness
    PrismQ,    ///< PriSM QoS for core 0
    PrismLA,   ///< PriSM driven by extended-UCP lookahead (Fig. 7)
    PrismWM,   ///< PriSM targets enforced by CAT-style way masks
    WPHitMax,  ///< Algorithm 1 rounded to ways (Figure 5 comparator)
    StaticWP,  ///< fixed even way split (Figure 6's trivial scheme)
};

const char *schemeName(SchemeKind kind);

/**
 * Parse a scheme name as printed by schemeName() ("LRU" is accepted
 * as an alias for Baseline). @return true and set @p kind on success.
 */
bool schemeFromName(std::string_view name, SchemeKind &kind);

/** Parse a replacement-policy name as printed by replKindName(). */
bool replFromName(std::string_view name, ReplKind &kind);

/** Extra knobs some schemes take. */
struct SchemeOptions
{
    /** K-bit quantisation of PriSM probabilities (0 = float). */
    unsigned probBits = 0;

    /** PriSM-Q: IPC floor as a fraction of stand-alone IPC. */
    double qosTargetFrac = 0.8;

    /** Vantage/extended-UCP lookahead granularity. */
    std::uint32_t vantageUnitsPerWay = 4;

    /** If non-null, System::dumpStats() is written here post-run. */
    std::ostream *statsSink = nullptr;

    /** If non-null, System::dumpStatsJson() is written here post-run. */
    std::ostream *statsJsonSink = nullptr;

    /**
     * Telemetry: when enabled, the run records the per-interval time
     * series into a recorder returned on RunResult::recorder, and —
     * when telemetry.metrics is set — aggregates scoped-timer spans
     * there. Observation only: enabling it perturbs no simulation
     * state, so results are identical with or without it.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * Fault-injection spec ("" = none); grammar in docs/TESTING.md.
     * The injector is seeded from the machine seed, so a fixed
     * (seed, spec) pair reproduces identical fault sequences.
     */
    std::string faultSpec;

    /**
     * Checked mode: audit the eviction distribution and the cache's
     * ownership counters every interval, repairing / degrading
     * instead of propagating violations.
     */
    bool checked = false;

    /**
     * Cooperative cancellation (non-owning; null = never cancelled).
     * The simulation polls the token every few thousand scheduler
     * steps and unwinds with CancelledError — the job supervisor's
     * deadline watchdog and prism_bench's SIGINT handler both feed
     * this. Purely observational until it fires: results are
     * identical with or without a token attached.
     */
    const CancelToken *cancel = nullptr;
};

/** Full outcome of one workload run under one scheme. */
struct RunResult
{
    std::string workload;
    std::string scheme;

    std::vector<std::string> benchmarks;
    std::vector<double> ipc;           ///< shared-mode (MP) IPC
    std::vector<double> ipcStandalone; ///< stand-alone (SP) IPC
    std::vector<std::uint64_t> llcMisses;
    std::vector<std::uint64_t> llcHits;
    std::vector<double> occupancyAtFinish;

    std::uint64_t intervals = 0;

    // --- PriSM-internal statistics (zero for other schemes) ---
    double victimlessFraction = 0.0;
    std::vector<double> evProbMean;
    std::vector<double> evProbStddev;
    std::uint64_t recomputes = 0;

    /**
     * Backend id the doctor reports ("way-mask" for PriSM-WM); empty
     * for the simulator backend, whose JSON stays byte-identical.
     */
    std::string plane;
    /** PriSM-WM: mean way-quantisation error |alloc - T*ways|. */
    double wayQuantError = 0.0;

    // --- robustness statistics (checked mode / fault injection) ---
    std::uint64_t faultsInjected = 0;
    std::uint64_t degradedIntervals = 0;
    /** Distribution + ownership invariant violations detected. */
    std::uint64_t invariantViolations = 0;
    std::uint64_t ownershipRepairs = 0;
    std::uint64_t clampedEq1Inputs = 0;
    std::uint64_t droppedRecomputes = 0;
    /** Intervals served by the repl policy (E unrecoverable). */
    std::uint64_t fallbackEntries = 0;

    /**
     * The run's interval time series; null unless the run was made
     * with SchemeOptions::telemetry.enabled. Shared ownership so
     * results can be copied freely (the series itself is immutable
     * once the run finished).
     */
    std::shared_ptr<const telemetry::IntervalRecorder> recorder;

    double antt() const;
    double fairness() const;
    double ipcThroughput() const;
};

/**
 * Concurrent memo of stand-alone reference IPCs, keyed by (solo
 * machine fingerprint, benchmark). One instance can be shared by
 * many Runners — the sweep engine hands the same memo to every job
 * so each reference simulation executes exactly once per sweep
 * regardless of thread count.
 */
using StandaloneIpcMemo = ConcurrentMemo<double>;

/**
 * Runs workloads and memoises stand-alone reference IPCs.
 *
 * Thread-safety: run() and standaloneIpc() are safe to call from
 * multiple threads concurrently (on the same Runner or on distinct
 * Runners sharing a StandaloneIpcMemo), except that SchemeOptions
 * with a non-null statsSink must not be used concurrently.
 */
class Runner
{
  public:
    /**
     * @param config The evaluation machine.
     * @param memo   Stand-alone-IPC memo to share; a private memo is
     *               created when null.
     */
    explicit Runner(const MachineConfig &config,
                    std::shared_ptr<StandaloneIpcMemo> memo = nullptr)
        : config_(config),
          standalone_memo_(memo ? std::move(memo)
                                : std::make_shared<StandaloneIpcMemo>())
    {
        MachineConfig solo = config_;
        solo.numCores = 1;
        solo_fingerprint_ = solo.fingerprint();
    }

    const MachineConfig &config() const { return config_; }

    /** Run @p workload under @p kind. */
    RunResult run(const Workload &workload, SchemeKind kind,
                  const SchemeOptions &options = {});

    /**
     * Stand-alone IPC of @p benchmark on this machine (whole LLC,
     * unmanaged); memoised across calls and across every Runner
     * sharing this memo. A non-null @p cancel makes the reference
     * simulation cancellable; a cancelled computation is not
     * memoised, so a later retry computes it afresh.
     */
    double standaloneIpc(const std::string &benchmark,
                         const CancelToken *cancel = nullptr);

    /** The memo backing standaloneIpc(). */
    const std::shared_ptr<StandaloneIpcMemo> &
    standaloneMemo() const
    {
        return standalone_memo_;
    }

  private:
    std::unique_ptr<PartitionScheme>
    makeScheme(SchemeKind kind, const SchemeOptions &options,
               double qos_target_ipc) const;

    MachineConfig config_;
    std::string solo_fingerprint_;
    std::shared_ptr<StandaloneIpcMemo> standalone_memo_;
};

} // namespace prism

#endif // PRISM_SIM_RUNNER_HH
