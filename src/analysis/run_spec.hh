/**
 * @file
 * RunSpec: the run vocabulary shared by prism_sim and
 * `prism_doctor --run`, parsed into a runnable simulation
 * description.
 *
 * This is prism_sim's run-flag parser: prism_sim handles only its
 * output and listing flags and hands every other token here, and
 * `prism_doctor --run "--workload Q7 --scheme PriSM-H"` splits its
 * text on whitespace and parses the same vocabulary (--cores,
 * --workload, --mix, --scheme, --repl, --instr, --warmup, --interval,
 * --seed, --bits, --qos-frac, --faults, --checked), so a run command
 * can be copied between the two tools verbatim.
 */

#ifndef PRISM_ANALYSIS_RUN_SPEC_HH
#define PRISM_ANALYSIS_RUN_SPEC_HH

#include <span>
#include <string>
#include <string_view>

#include "common/status.hh"
#include "sim/runner.hh"

namespace prism::analysis
{

/** A fully-resolved single-run request. */
struct RunSpec
{
    MachineConfig machine;
    Workload workload;
    SchemeKind scheme = SchemeKind::PrismH;
    SchemeOptions options;
};

/**
 * Parse the run flags in @p tokens into @p out. The machine is the
 * paper configuration for the resolved core count with prism_sim's
 * default run lengths (1.5M instructions, 500k warm-up). Every
 * input the run would refuse (unknown names, a fault spec with an
 * exec-level kind, a QoS fraction outside (0, 1], an invalid
 * machine) is an error here, before any simulation.
 */
Status parseRunSpec(std::span<const std::string> tokens, RunSpec &out);

/** parseRunSpec over the whitespace-separated flags in @p text. */
Status parseRunSpec(std::string_view text, RunSpec &out);

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_RUN_SPEC_HH
