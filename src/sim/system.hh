/**
 * @file
 * The multicore system simulator.
 *
 * Trace-driven timing model: each core interleaves bursts of
 * non-memory instructions (costing CPI_ideal cycles each) with memory
 * accesses that traverse its private L1, the shared LLC and — on an
 * LLC miss — the DRAM model. Cores advance on their own clocks and
 * are scheduled in global time order; a core that exhausts its
 * instruction budget keeps generating cache pressure (as in the
 * paper's methodology, which reports statistics only for each
 * program's first N instructions) until every core has finished.
 *
 * The system drives the cache's interval machinery: at every
 * interval boundary it augments the snapshot with per-core CPI
 * statistics so that timing-aware allocation policies (PriSM-F,
 * PriSM-Q) see the performance counters the paper assumes.
 *
 * Step loop. A ClockTree (sim/clock_tree.hh) over the core clocks
 * names the next core to step, the lowest clock with the lowest
 * index on ties, and each step replays one leaf-to-root path instead
 * of scanning every core. Each core draws its next access one step
 * ahead from its own generator and store RNG, so every stream keeps
 * its draw order and every output its bytes. Right after the draw
 * the system prefetches the host cache lines that access will read
 * (L1Cache::prefetch, SharedCache::prefetch): a 32-core job's
 * simulator state is several times the host's L2, so the step loop
 * mostly waits on memory, and the core steps again only after the
 * others have, by which time the lines have arrived.
 */

#ifndef PRISM_SIM_SYSTEM_HH
#define PRISM_SIM_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "cache/l1_cache.hh"
#include "common/cancel.hh"
#include "common/rng.hh"
#include "cache/partition_scheme.hh"
#include "cache/shared_cache.hh"
#include "sim/machine_config.hh"
#include "sim/memory_system.hh"
#include "telemetry/interval_recorder.hh"
#include "workload/profiles.hh"
#include "workload/suites.hh"

namespace prism
{

/** Per-core outcome of a simulation. */
struct CoreResult
{
    std::uint64_t instructions = 0; ///< measured instructions
    double cycles = 0.0;            ///< cycles to retire them
    double llcStallCycles = 0.0;    ///< DRAM stall within those
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    /** LLC occupancy fraction when the core finished its budget. */
    double occupancyAtFinish = 0.0;

    double
    ipc() const
    {
        return cycles > 0.0 ? static_cast<double>(instructions) / cycles
                            : 0.0;
    }
};

/** Whole-run outcome. */
struct SystemResult
{
    std::vector<CoreResult> cores;
    std::uint64_t intervals = 0; ///< allocation recomputations
};

/** One simulated machine running one multi-programmed workload. */
class System
{
  public:
    /**
     * @param config Machine description.
     * @param workload Benchmark mix (size must equal numCores).
     * @param scheme Cache-management scheme (may be null for the
     *        unmanaged baseline); not owned.
     */
    System(const MachineConfig &config, const Workload &workload,
           PartitionScheme *scheme);

    /** Run warm-up plus the measured phase; returns per-core stats. */
    SystemResult run();

    SharedCache &llc() { return llc_; }
    const MemorySystem &mem() const { return mem_; }

    /**
     * Dump a hierarchical statistics report (cache, memory system,
     * per-core timing) to @p os. Intended for post-run inspection
     * (the CLI's --stats flag); purely observational.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * The same statistics as dumpStats() as a "prism-stats-v1" JSON
     * document (the CLI's --stats-json flag). Deterministic: written
     * through JsonWriter, structure mirrors the text counter tree.
     */
    void dumpStatsJson(std::ostream &os) const;

    /**
     * Attach an interval recorder (non-owning; null detaches): the
     * system then captures one IntervalSample per allocation
     * interval — per-core {C_i, T_i, E_i, M_i, hits, IPC} — and
     * emits CoreFinish / OwnershipRepair instant events.
     */
    void setRecorder(telemetry::IntervalRecorder *recorder);

    /**
     * Attach a cancellation token (non-owning; null detaches). run()
     * polls it every few thousand scheduler steps and throws
     * CancelledError once it fires, leaving the run unfinished; the
     * caller discards the System. Cooperative only: a token cannot
     * interrupt a single step, so cancellation latency is one poll
     * window of simulated progress, never a torn simulator state.
     */
    void setCancelToken(const CancelToken *cancel) { cancel_ = cancel; }

  private:
    struct Core
    {
        const BenchmarkProfile *profile;
        std::unique_ptr<AccessGenerator> gen;
        L1Cache l1;
        Rng store_rng; ///< classifies accesses as loads/stores
        /** The core's next access, drawn one step ahead. */
        Addr next_addr = 0;
        bool next_store = false;
        double cycle = 0.0;
        double instr_carry = 0.0;
        std::uint64_t instructions = 0;
        double llc_stall = 0.0;
        std::uint64_t llc_hits = 0;
        std::uint64_t llc_misses = 0;
        bool finished = false;
        double finish_cycle = 0.0;
        double finish_occupancy = 0.0;
        // Interval bookkeeping (previous totals at last boundary).
        std::uint64_t prev_instr = 0;
        double prev_cycle = 0.0;
        double prev_stall = 0.0;
    };

    /** Advance @p core by one access segment. */
    void step(CoreId id);

    /**
     * Draw @p c's next access from its generator and store RNG and
     * prefetch the L1 and LLC lines that access will read.
     */
    void drawNext(Core &c);

    /** Reset measured statistics after warm-up. */
    void resetStats();

    void fillTiming(IntervalSnapshot &snap);

    /** Interval-observer target: build and record one sample. */
    void recordInterval(const IntervalSnapshot &snap,
                        std::uint64_t interval);

    MachineConfig config_;
    std::string workload_name_;
    SharedCache llc_;
    MemorySystem mem_;
    std::vector<Core> cores_;
    PartitionScheme *scheme_;

    /** Throw CancelledError when the attached token fired. */
    void
    pollCancel()
    {
        // Poll every 8192 steps: frequent enough for sub-second
        // cancellation latency, rare enough to stay invisible in
        // profiles.
        if (cancel_ && (++cancel_check_ & 0x1FFFu) == 0)
            cancel_->poll();
    }

    telemetry::IntervalRecorder *recorder_ = nullptr; ///< non-owning
    const CancelToken *cancel_ = nullptr;             ///< non-owning
    std::uint64_t cancel_check_ = 0;
    std::uint64_t seen_ownership_repairs_ = 0;
};

} // namespace prism

#endif // PRISM_SIM_SYSTEM_HH
