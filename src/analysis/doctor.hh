/**
 * @file
 * Control-loop diagnostics: per-run health verdicts over a RunSeries.
 *
 * PriSM's correctness is temporal — Equation 1 must drive occupancy
 * C_i towards the targets T_i, the eviction distribution E_i must
 * settle instead of oscillating, and the invariants Σ C_i ≤ 1 and
 * Σ E_i = 1 must hold every interval. analyze() turns a RunSeries
 * into explicit PASS/WARN/FAIL/SKIP findings for each of those
 * properties plus the robustness counters from the fault layer, and
 * the result serialises as the deterministic `prism-doctor-v1`
 * document (docs/OBSERVABILITY.md) — byte-identical for the same run
 * at any sweep thread count.
 */

#ifndef PRISM_ANALYSIS_DOCTOR_HH
#define PRISM_ANALYSIS_DOCTOR_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/series.hh"
#include "common/json.hh"

namespace prism::analysis
{

/** Outcome of one check. */
enum class FindingStatus
{
    Pass,
    Warn,
    Fail,
    Skip, ///< the input lacks the data this check needs
};

const char *findingStatusName(FindingStatus status);

/** One check's result. */
struct Finding
{
    std::string check; ///< stable id, e.g. "tracking.residual"
    FindingStatus status = FindingStatus::Pass;
    double value = 0.0;     ///< measured quantity (when hasValue)
    double threshold = 0.0; ///< bound that decided the status
    bool hasValue = false;
    std::string detail; ///< one human-readable sentence
};

/** All findings for one run plus the aggregated verdict. */
struct Verdict
{
    std::string run;
    /** Backend that produced the run ("sim", "store", "way-mask");
     *  "" for synthetic verdicts (exec, roll-up). */
    std::string backend;
    FindingStatus overall = FindingStatus::Pass;
    std::vector<Finding> findings;

    std::size_t count(FindingStatus status) const;
};

/**
 * Run every applicable check on @p s. The decision bounds are
 * constants calibrated on the paper's evaluation machine
 * (docs/OBSERVABILITY.md lists them).
 */
Verdict analyze(const RunSeries &s);

/**
 * Sweep-execution health checks over the supervision manifest
 * (docs/RELIABILITY.md): retries and deadline timeouts WARN,
 * quarantined jobs and corrupt checkpoints FAIL, and a trace that
 * lacks checkpoint-restored jobs WARNs. The counters the input
 * (ExecSeries::input) does not record SKIP. The verdict's run id is
 * "exec"; callers append it to the per-job verdicts only when
 * something noteworthy happened, so clean runs keep emitting
 * byte-identical doctor documents.
 */
Verdict analyzeExec(const ExecSeries &s);

/**
 * The verdict for sweep job @p id, which left no result to analyse:
 * `exec.job_skipped` (WARN) when it never ran, otherwise
 * `exec.job_quarantined` (FAIL) after @p attempts, naming
 * @p lastFailure when there is one.
 */
Verdict failedJobVerdict(std::string_view id, bool skipped,
                         std::uint64_t attempts,
                         std::string_view lastFailure);

/** Sweep roll-up: per-status job counts plus the worst overall. */
Verdict rollup(const std::vector<Verdict> &jobs);

/** Serialise one verdict as a JSON object (no surrounding doc). */
void writeVerdictJson(JsonWriter &w, const Verdict &v);

/** Write the "findings" key and its array, as in a verdict. */
void writeFindingsJson(JsonWriter &w,
                       const std::vector<Finding> &findings);

/**
 * Write the full `prism-doctor-v1` document: schema, @p source
 * ("run" | "stats" | "trace" | "bench" | "sweep" | "compare"), the
 * job verdicts, the roll-up and the thresholds analyze() applies.
 */
void writeDoctorDocument(std::ostream &os, std::string_view source,
                         const std::vector<Verdict> &jobs);

/** Human-readable health report for one verdict. */
void printReport(std::ostream &os, const Verdict &v);

/** Worst overall across @p jobs (Pass when empty). */
FindingStatus worstOf(const std::vector<Verdict> &jobs);

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_DOCTOR_HH
