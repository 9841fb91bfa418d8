/**
 * @file
 * Closed-loop load generation for prism_serve.
 *
 * Requests are produced by a fixed number of logical *streams*,
 * deliberately decoupled from the worker-thread count: stream s
 * draws its whole request sequence from Rng(deriveSeed(seed, s)),
 * so the generated load — and therefore every deterministic output
 * of the engine — is byte-identical whether 1 or 64 threads execute
 * the streams. Worker threads are merely the machinery that fills
 * stream batches in parallel (docs/SERVING.md, "Determinism").
 *
 * Each tenant gets a Zipfian keyspace plus a value-size range;
 * value sizes are a pure function of (tenant, key), never of the
 * request sequence, so an object's size is identical no matter
 * which stream or round (re)inserts it.
 */

#ifndef PRISM_SERVE_LOAD_GEN_HH
#define PRISM_SERVE_LOAD_GEN_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "common/zipf.hh"

namespace prism::serve
{

/** One tenant's workload shape and service terms. */
struct TenantSpec
{
    /** Keyspace size. */
    std::uint64_t keys = 300000;
    /** Zipf exponent of key popularity. */
    double zipf = 0.99;
    /** Fraction of requests that are gets (rest are puts). */
    double getFrac = 0.95;
    /** Value-size range in bytes, inclusive. */
    std::uint32_t vmin = 64;
    std::uint32_t vmax = 256;
    /** Fair-share weight (Fair/QoS policies). */
    double weight = 1.0;
    /** Hit-ratio SLO floor the doctor checks; 0 disables. */
    double sloHit = 0.02;
    /** Guaranteed capacity fraction (QoS policy); 0 = none. */
    double floorFrac = 0.0;
};

/**
 * Parse a `key=value[,key=value...]` tenant spec. Keys: keys, zipf,
 * get, vmin, vmax, weight, slo-hit, floor. Unset keys keep the
 * defaults of @p out as passed in, so a base spec can be refined.
 */
Status parseTenantSpec(std::string_view text, TenantSpec &out);

/** One generated request. */
struct Request
{
    std::uint32_t tenant = 0;
    std::uint64_t key = 0;
    /** Size of the object (puts write it; get misses fill it). */
    std::uint32_t valueBytes = 0;
    bool isPut = false;
};

/** Fixed-stream deterministic request generator. */
class LoadGen
{
  public:
    LoadGen(std::vector<TenantSpec> specs, std::uint32_t streams,
            std::uint64_t seed);

    std::uint32_t streamCount() const
    {
        return static_cast<std::uint32_t>(rngs_.size());
    }
    std::uint32_t tenantCount() const
    {
        return static_cast<std::uint32_t>(specs_.size());
    }
    const std::vector<TenantSpec> &specs() const { return specs_; }

    /**
     * Fill @p batch with stream @p stream's next requests. Streams
     * are independent: concurrent fills of *different* streams are
     * safe; a single stream must be filled by one thread at a time.
     */
    void fill(std::uint32_t stream, std::span<Request> batch);

    /** The value size of (tenant, key): pure, sequence-independent. */
    std::uint32_t valueBytes(std::uint32_t tenant,
                             std::uint64_t key) const;

  private:
    std::vector<TenantSpec> specs_;
    std::vector<ZipfGenerator> zipf_; ///< per tenant, immutable
    std::vector<Rng> rngs_;           ///< per stream
    std::uint64_t value_salt_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_LOAD_GEN_HH
