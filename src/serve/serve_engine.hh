/**
 * @file
 * The serving engine: closed-loop load through the sharded store
 * under the PriSM tenant arbiter, with deterministic output.
 *
 * Execution is round-based. Each round: (1) every logical stream
 * fills its slice of one stream-major request buffer and routes it,
 * recording each request's shard and the stream's put count
 * (streams fan out over the worker pool), (2) a sequential pass
 * appends each request's index to its shard's list in a fixed
 * round-robin interleave (batch position, then stream), (3) each
 * shard's list is applied in that order under one hold of the
 * shard's lock (ShardedStore::lockShard; shards fan out over the
 * pool), and before releasing the lock the task records the shard's
 * LRU tails for the plan (ShardLock::recordTails), (4) after the
 * barrier one sequential pass samples victim tenants from the
 * arbiter's Equation 1 distribution and plans each eviction in the
 * store, reading victims from the tail records, until occupancy net
 * of the planned evictions fits the byte budget; then one pool task
 * per shard executes that shard's plan, and (5) once the interval's
 * miss quota W is met, the control loop closes the interval and
 * recomputes targets and distribution.
 *
 * Concurrency: a fill task writes only its stream's slice and put
 * count, and an apply or eviction task touches only its shard,
 * under that shard's lock. The sequential sections run between
 * barriers (ThreadPool::wait), so the plan reads the tail records
 * the apply tasks left without taking a lock, and no lock is open
 * until the eviction tasks take theirs.
 *
 * Because streams (not threads) own the RNGs, the interleave is a
 * pure function of batch shape, shard routing is a pure function of
 * keys, per-shard application order follows the interleave, a tail
 * record holds only what the plan would read from the LRU list, the
 * victim draws and the control loop run sequentially, and each
 * shard's eviction task depends only on that shard's plan, every
 * deterministic output is byte-identical at any `--threads` for a
 * fixed op budget. Wall-clock metrics (the per-tenant latency
 * histograms in ServeResult::metrics, the run's wall time) are
 * collected only when timing is on; a run without timing registers
 * no histogram, so its metrics snapshots stay deterministic
 * (docs/SERVING.md).
 *
 * The engine writes no document itself. Each closed interval
 * reaches the observer as one IntervalSample, the row type of the
 * live window and the run's history; the live observer
 * (analysis/online_doctor.hh) renders the run as prism-metrics-v1
 * snapshots, the final one with the whole run's interval rows.
 */

#ifndef PRISM_SERVE_SERVE_ENGINE_HH
#define PRISM_SERVE_SERVE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/load_gen.hh"
#include "serve/sharded_store.hh"
#include "serve/tenant_arbiter.hh"
#include "telemetry/interval_recorder.hh"
#include "telemetry/metrics_registry.hh"

namespace prism::serve
{

class ServeObserver;

/** Long name of a target policy kind ('H' -> "HitMax", ...). */
const char *policyName(char kind);

/** Everything a serve run needs to know. */
struct ServeConfig
{
    std::vector<TenantSpec> tenants;

    std::uint32_t threads = 1;
    /** Logical request streams (fixed; independent of threads). */
    std::uint32_t streams = 16;
    std::uint32_t shards = 64;
    /** Requests per stream per round. */
    std::uint32_t batch = 2048;

    std::uint64_t capacityBytes = 64ull << 20;
    /** The paper's W, in get misses. */
    std::uint64_t intervalMisses = 16384;
    /** Target policy: 'H', 'F' or 'Q'. */
    char policy = 'H';
    std::uint64_t seed = 42;

    /** Total requests; 0 = run by wall clock instead. */
    std::uint64_t opBudget = 0;
    /**
     * Wall-clock run length when opBudget == 0; the constructor
     * refuses one that is not finite or overruns the steady clock.
     */
    double seconds = 5.0;

    /** Collect wall-clock latency/throughput (non-deterministic). */
    bool timing = true;
    /** Interval rows a final metrics snapshot keeps as the run's
     *  history; intervals beyond it count as dropped samples. */
    std::size_t recorderCapacity = 4096;
    /** Ghost-list keys per tenant per shard. */
    std::uint32_t ghostPerTenant = 1024;

    /**
     * Live-plane hooks, invoked from the engine's sequential
     * sections only (docs/OBSERVABILITY.md). Non-owning; null = no
     * observation.
     */
    ServeObserver *observer = nullptr;

    /**
     * Cooperative stop flag (the shared SIGINT/SIGTERM handler,
     * common/stop_signal.hh). Polled at every round boundary; a
     * raised flag ends the run after the usual tail-interval close,
     * so the final metrics snapshot still gets written.
     * Non-owning; null = never stops early.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** Final per-tenant totals. */
struct TenantTotals
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t shadowHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t occupancyBytes = 0;
};

/**
 * Cumulative engine state at an observation point, assembled in the
 * sequential part of the round pipeline — every field is a pure
 * function of the op sequence, so observers see byte-identical
 * state at any --threads value.
 */
struct ServeLiveState
{
    std::uint64_t rounds = 0; ///< rounds completed (snapshot key)
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t intervals = 0; ///< intervals closed so far

    std::uint64_t evictions = 0;
    /** Sampled tenant held nothing; max-occupancy tenant evicted. */
    std::uint64_t victimlessEvictions = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t eq1Fallbacks = 0;
    std::uint64_t clampedEq1Inputs = 0;

    std::uint64_t occupancyBytes = 0;
    std::uint64_t objects = 0;
    /** Store hash-table growths so far. */
    std::uint64_t rehashes = 0;

    std::uint64_t droppedSamples = 0;
    std::uint64_t droppedEvents = 0;

    /** Whole-run cumulative totals per tenant. */
    std::vector<TenantTotals> tenants;

    /** Targets / eviction probabilities currently in effect. */
    std::vector<double> targets;
    std::vector<double> evProbs;

    /** Per-tenant latency histograms etc. (timing runs only). */
    std::shared_ptr<telemetry::MetricsRegistry> metrics;
};

/**
 * Hooks into the serve round pipeline. All callbacks fire on the
 * engine thread inside the sequential control sections, after the
 * round's eviction tasks have finished — implementations need no
 * locking and must not block.
 */
class ServeObserver
{
  public:
    virtual ~ServeObserver() = default;

    /**
     * An allocation interval closed (after the arbiter recompute, so
     * @p state carries the *next* distribution while @p sample holds
     * the one in effect during the interval). @p sample.evictions is
     * the closed interval's per-tenant eviction row; @p evictions
     * views the same counts, valid for the call only, and stays for
     * the observers that read it (perfbench's serve workload).
     */
    virtual void
    onIntervalClosed(const telemetry::IntervalSample &sample,
                     std::span<const std::uint64_t> evictions,
                     const ServeLiveState &state) = 0;

    /** A round finished (after eviction + interval close). */
    virtual void onRoundEnd(const ServeLiveState &state) = 0;

    /** The run ended; @p state is final (tail interval included). */
    virtual void onRunEnd(const ServeLiveState &state) { (void)state; }
};

/** The outcome of one serve run: the final live state plus the
 *  run's wall time. The interval series reaches observers only. */
struct ServeResult : ServeLiveState
{
    /** Wall-clock seconds spent serving; 0 without timing. */
    double wallSeconds = 0.0;

    /** The run ended early on the cooperative stop flag. */
    bool stopped = false;
};

/** Runs one configured serve session. */
class ServeEngine
{
  public:
    explicit ServeEngine(const ServeConfig &config);

    ServeResult run();

  private:
    ServeConfig config_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_SERVE_ENGINE_HH
