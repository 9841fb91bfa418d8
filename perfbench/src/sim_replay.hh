/**
 * @file
 * Traced replay of the simulator's step loop.
 *
 * System::run's step loop is private, so the traced run re-drives it
 * from here through the same public calls — AccessGenerator::next,
 * L1Cache::access, SharedCache::access, MemorySystem::request /
 * writeback — with the components built exactly as System builds
 * them. The scheme is wrapped in a forwarding PartitionScheme that
 * times chooseVictim and onIntervalEnd. The replay must reproduce the
 * real run's deterministic counters; callers check that it does.
 *
 * Timing rule: every scheduler step is timed, in blocks. The steps
 * between two samples form one block, timed by one pair of clock
 * reads; a read on each side of a single step would break the overlap
 * between steps and inflate it. Samples come at random gaps (mean K
 * steps) and each times one layer on one step, in rotation: the core
 * pick, AccessGenerator::next, L1Cache::access, SharedCache::access,
 * chooseVictim or MemorySystem. A region's timed busy time, less the
 * calibrated cost of one clock read per measurement, is scaled by
 * calls / timed calls. The step total is thus measured apart from the
 * layers and is checked against the intervals' wall time
 * (checkSimCoverage); what it leaves out is bookkeeping and sampling
 * overhead. Per-call timers inflate cheap calls, so the layers can add
 * up to more than the step; then they are scaled down to fit it
 * (layersNs keeps the raw sum). Interval recomputes are rare, so every
 * one is timed and charged as timed. One span per allocation interval is
 * recorded, with aggregate per-layer children (busy time and calls).
 */

#ifndef PERFBENCH_SIM_REPLAY_HH
#define PERFBENCH_SIM_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/machine_config.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace.hh"

namespace perfbench
{

/** The scheme Runner::run builds for @p kind on @p config. */
std::unique_ptr<prism::PartitionScheme>
makeScheme(prism::SchemeKind kind, const prism::MachineConfig &config);

/** Final counters of one core, as prism-stats-v1 reports them. */
struct ReplayCore
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
};

/** Estimated busy nanoseconds per layer over the whole replay. */
struct ReplayLayers
{
    double sched = 0;     ///< next-core pick
    double workload = 0;  ///< AccessGenerator::next
    double l1 = 0;        ///< L1Cache::access
    double llc = 0;       ///< SharedCache::access, hooks included
    double victim = 0;    ///< scheme chooseVictim
    double recompute = 0; ///< scheme onIntervalEnd
    double mem = 0;       ///< MemorySystem::request + writeback
};

struct ReplayOutcome
{
    /** Measured-phase results, as System::run returns them. */
    prism::SystemResult result;
    /** Final counters (warm-up included), for the stats check. */
    std::vector<ReplayCore> cores;
    std::uint64_t totalMisses = 0;
    std::uint64_t writebacks = 0;

    double wallSeconds = 0.0;
    /** Step time from the timed blocks, summed over the intervals. */
    double stepNs = 0.0;
    /** Measured wall time of the intervals (ns). */
    double intervalWallNs = 0.0;
    /** Raw layer estimates (sched, workload, L1, LLC, memory) summed. */
    double layersNs = 0.0;
    std::int64_t startNs = 0; ///< traced window on the recorder
    std::int64_t endNs = 0;

    ReplayLayers layers;
    std::uint64_t steps = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t victimCalls = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t memCalls = 0;
    /** PriSM victimless replacements / replacements (PriSM only). */
    double victimlessFraction = 0.0;
    bool prism = false;
};

/**
 * Replay @p workload under @p kind on @p config, recording one span
 * per interval into @p rec. @p hook_layer names the layer charged
 * with the scheme hooks ("plane" or "policies"); @p timer_ns is the
 * calibrated cost of one clock read; one step in @p sample_every,
 * on average, is timed.
 */
ReplayOutcome replaySystem(const prism::MachineConfig &config,
                           const prism::Workload &workload,
                           prism::SchemeKind kind, const char *hook_layer,
                           double timer_ns, unsigned sample_every,
                           SpanRecorder &rec);

/** Cost of one steady_clock read in nanoseconds (median estimate). */
double calibrateTimerNs();

/**
 * Compare @p replay with the prism-stats-v1 document @p stats_json and
 * the RunResult of the real run; returns "" when every deterministic
 * counter matches, else the first mismatch.
 */
std::string compareReplay(const ReplayOutcome &replay,
                          const std::string &stats_json,
                          const prism::RunResult &real);

/**
 * Check "trace.coverage": the step time of @p replays covers their
 * measured wall time within 10%, either way.
 */
void checkSimCoverage(const std::vector<ReplayOutcome> &replays,
                      Report &report);

/**
 * Per-layer metrics of the simulator layers over @p replays: per-call
 * busy times, hit ratios and each layer's share of @p wall_ns (self
 * time from the interval spans in @p rec). Hook metrics go to the
 * "plane" or "policies" family by the layer each replay charged.
 */
void reportSimLayers(const std::vector<ReplayOutcome> &replays,
                     const std::vector<std::string> &hook_layers,
                     const SpanRecorder &rec, double wall_ns,
                     Report &report);

} // namespace perfbench

#endif // PERFBENCH_SIM_REPLAY_HH
