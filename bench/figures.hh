/**
 * @file
 * Declarative figure registry for the paper-reproduction harnesses.
 *
 * Every figure/table of the evaluation is described once as a
 * `Figure`: a declarative sweep spec (the (scheme × workload × seed ×
 * config) grid to simulate), a report function that renders the
 * human-readable tables from the finished sweep, and an optional
 * summary emitter for the figure's headline series in the
 * `BENCH_<id>.json` output.
 *
 * `prism_bench` runs a figure by id (`prism_bench fig02_summary`)
 * through runFigure(), which fans the sweep across a thread pool
 * (`--threads`) and emits machine-readable JSON. A running sweep
 * reports through its `--progress` heartbeat; its whole-sweep
 * telemetry lands in the `--trace` file, whose otherData carries the
 * metrics registry.
 */

#ifndef PRISM_BENCH_FIGURES_HH
#define PRISM_BENCH_FIGURES_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "exec/sweep.hh"

namespace prism::bench
{

/** One reproducible figure/table of the evaluation. */
struct Figure
{
    std::string id;    ///< e.g. "fig02_summary"; names the JSON file
    std::string title; ///< harness header line
    std::string paper; ///< the paper's expectation for this figure

    /** Hidden figures (test fixtures) are excluded from --all. */
    bool listed = true;

    /** Build the sweep grid (honours PRISM_BENCH_SCALE/WORKLOADS). */
    std::function<SweepSpec()> spec;

    /** Render the figure's tables from the finished sweep. */
    std::function<void(const SweepResults &, std::ostream &)> report;

    /** Emit the headline series into the JSON "summary" object. */
    std::function<void(JsonWriter &, const SweepResults &)> summary;
};

/** All registered figures, in paper order. */
const std::vector<Figure> &figureRegistry();

/** Find a figure by id; null when unknown. */
const Figure *findFigure(std::string_view id);

/** Execution options for runFigure(), set from prism_bench's flags. */
struct FigureRunOptions
{
    unsigned threads = 1;
    std::string outDir = ".";
    bool writeJson = true;
    /** false = omit wall-clock fields (deterministic output). */
    bool includeTiming = true;

    /**
     * When set, every job records its interval time series and the
     * combined Chrome trace is written here. Deterministic: the
     * trace is byte-identical at any --threads value (jobs appear
     * in spec order, and no wall-clock data is included). Jobs
     * without a series are left out: quarantined ones appear only
     * through the trace's "exec" process, and jobs restored from a
     * checkpoint (which keeps no series) only as a count, in
     * otherData.restored_jobs and on stderr.
     */
    std::string tracePath;
    /** When set, the same series as flat CSV. */
    std::string traceCsvPath;
    /** Recorder capacity for jobs the figure did not configure. */
    std::size_t traceCapacity = 4096;

    /**
     * Per-job completion heartbeat on stderr ("[done/total] id ...").
     * Off by default; completion-ordered and therefore outside the
     * determinism contract (no wall-clock data either way).
     */
    bool progress = false;

    /**
     * Diagnose every job with the analysis engine after the sweep:
     * telemetry recording is enabled on all jobs (passive), each
     * verdict prints after the tables, and the run exits non-zero
     * when any job FAILs. Verdicts derive from per-job series only,
     * so they are byte-identical at any --threads value.
     */
    bool doctor = false;
    /** When set (with doctor), write the prism-doctor-v1 file here. */
    std::string doctorJsonPath;

    // --- fault-tolerant execution (docs/RELIABILITY.md) ------------
    // Every job runs supervised: failures are classified, transients
    // retried with deterministic backoff, repeat offenders
    // quarantined.

    /** Retries per job after the first attempt. */
    unsigned retries = 2;
    /** Per-attempt deadline in seconds (0 = no watchdog). */
    double deadlineSeconds = 0.0;
    /** Exec-level chaos spec (job_crash@N, ...); "" = none. */
    std::string chaosSpec;
    /** Seeds backoff jitter only; results never depend on it. */
    std::uint64_t chaosSeed = 0;

    /** Crash-safe checkpoint file; "" = no checkpointing. */
    std::string ckptPath;
    /** Flush the checkpoint after every Nth completed job. */
    unsigned ckptEvery = 1;
    /** Restore completed jobs from ckptPath before running. */
    bool resume = false;
    /**
     * Test hook: SIGKILL the process right after the Nth *executed*
     * job's checkpoint flush (0 = off). Exercises the kill/--resume
     * path from the CLI tests.
     */
    unsigned dieAfter = 0;

    /**
     * External stop flag (SIGINT/SIGTERM; non-owning). Once true,
     * queued jobs are skipped, running attempts cancel at their next
     * poll, a final checkpoint is flushed, and runFigure returns 130.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/**
 * Run @p fig: execute its sweep, supervised, under the pool, print
 * the tables, and (unless disabled) write `<outDir>/BENCH_<id>.json`
 * atomically.
 *
 * @return 0 on success; 1 when jobs were quarantined, the doctor
 * FAILed or an output cannot be written; 2 on bad options or a
 * malformed PRISM_BENCH_SCALE / PRISM_BENCH_WORKLOADS (checked
 * before anything runs); 130 when a stop request interrupted the
 * sweep (state checkpointed when --ckpt is set).
 */
int runFigure(const Figure &fig, const FigureRunOptions &options);

} // namespace prism::bench

#endif // PRISM_BENCH_FIGURES_HH
