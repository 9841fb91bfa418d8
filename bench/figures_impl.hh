/**
 * @file
 * Internal plumbing shared by the figure definition files.
 *
 * Run lengths are scaled for laptop execution (see EXPERIMENTS.md);
 * two environment variables widen every figure's sweep:
 *
 *   PRISM_BENCH_SCALE      multiply instruction budgets (default 1)
 *   PRISM_BENCH_WORKLOADS  workloads per suite (default 6; 0 = all)
 *
 * Both are parsed once per process; runFigure() rejects a malformed
 * value before it builds any sweep.
 */

#ifndef PRISM_BENCH_FIGURES_IMPL_HH
#define PRISM_BENCH_FIGURES_IMPL_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "figures.hh"
#include "sim/runner.hh"
#include "workload/suites.hh"

namespace prism::bench
{

// Figure definitions, grouped as in the paper; each appends its
// figures (in paper order) to the registry under construction.
void registerMotivationFigures(std::vector<Figure> &out);
void registerEvaluationFigures(std::vector<Figure> &out);
void registerAnalysisFigures(std::vector<Figure> &out);

// Per-core instruction budgets at scale 1. Larger machines get
// shorter budgets, mirroring the paper's 500M (4/8 cores) vs 200M
// (16/32 cores) instructions.
inline constexpr double kSmallMachineBudget = 1'500'000;
inline constexpr double kLargeMachineBudget = 1'000'000;
/** The most any figure lengthens machine()'s budget (fig11_evprob). */
inline constexpr double kMaxBudgetStretch = 3;

/** PRISM_BENCH_SCALE: the budget multiplier (1 when unset). */
double scaleFactor();

/** PRISM_BENCH_WORKLOADS: workloads per suite (6 when unset; 0 = all). */
unsigned workloadCap();

/** The evaluation machine for @p cores with bench-scaled budgets. */
inline MachineConfig
machine(unsigned cores)
{
    MachineConfig m = MachineConfig::forCores(cores);
    const double budget =
        cores <= 8 ? kSmallMachineBudget : kLargeMachineBudget;
    m.instrBudget = static_cast<std::uint64_t>(budget * scaleFactor());
    m.warmupInstr = m.instrBudget / 3;
    return m;
}

/** The workload suite for @p cores, capped by PRISM_BENCH_WORKLOADS. */
inline std::vector<Workload>
suite(unsigned cores)
{
    auto all = suites::forCoreCount(cores);
    const unsigned cap = workloadCap();
    if (cap > 0 && all.size() > cap)
        all.resize(cap);
    return all;
}

/** Geomean of ANTT over @p results normalised to @p baseline. */
inline double
geomeanNormAntt(const std::vector<RunResult> &results,
                const std::vector<RunResult> &baseline)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < results.size(); ++i)
        ratios.push_back(results[i].antt() / baseline[i].antt());
    return geomean(ratios);
}

/** Add (workload × scheme) jobs for a whole suite under one config. */
inline void
addSuite(SweepSpec &spec, const MachineConfig &m,
         const std::vector<Workload> &workloads,
         std::initializer_list<SchemeKind> schemes,
         const std::string &tag = "", const SchemeOptions &options = {})
{
    for (const auto &w : workloads)
        for (const SchemeKind s : schemes)
            spec.add(m, w, s, options, tag);
}

/** Collect one scheme's results across a suite, in suite order. */
inline std::vector<RunResult>
collectSuite(const SweepResults &results,
             const std::vector<Workload> &workloads, SchemeKind scheme,
             const std::string &tag = "")
{
    std::vector<RunResult> out;
    out.reserve(workloads.size());
    for (const auto &w : workloads)
        out.push_back(
            results.at(SweepSpec::makeId(tag, w.name, scheme)));
    return out;
}

/** Fairness values of one scheme across a suite. */
inline std::vector<double>
collectFairness(const SweepResults &results,
                const std::vector<Workload> &workloads, SchemeKind scheme,
                const std::string &tag = "")
{
    std::vector<double> out;
    out.reserve(workloads.size());
    for (const auto &w : workloads)
        out.push_back(
            results.at(SweepSpec::makeId(tag, w.name, scheme))
                .fairness());
    return out;
}

/** "c4", "c16", … — the tag used for per-core-count grids. */
inline std::string
coresTag(unsigned cores)
{
    return "c" + std::to_string(cores);
}

} // namespace prism::bench

#endif // PRISM_BENCH_FIGURES_IMPL_HH
