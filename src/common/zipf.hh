/**
 * @file
 * Skewed-popularity samplers shared by the workload and serving
 * layers.
 *
 * Two subsystems need "popular things are touched more often" draw
 * streams: the serving load generator (Zipfian key popularity, YCSB
 * style) and the simulator's trace generator (power-law stack
 * distances). They historically kept private copies; this header is
 * the single home for both samplers so neither layer re-implements
 * the numerics. Both are deterministic: all randomness comes from
 * the caller's Rng, so a stream's draw sequence depends on its seed
 * alone.
 *
 * ZipfGenerator — O(1) rank sampler, exact for any exponent >= 0.
 * Key popularity in cache-serving workloads is classically Zipfian
 * (YCSB uses exponent 0.99). The naive inverse-CDF table costs O(n)
 * memory and O(log n) per draw, which is unacceptable at the
 * multi-million-key keyspaces prism_serve targets, so this is the
 * rejection-inversion sampler of Hörmann & Derflinger ("Rejection-
 * inversion to generate variates from monotone discrete
 * distributions", 1996): O(1) state, O(1) expected draws, exact
 * without precomputation over the keyspace.
 *
 * PowerLawTable — tabulated inverse CDF of u -> u^(1/theta), the
 * stack-distance law P(distance <= d) = (d/W)^theta the trace
 * generator is built on (stack_dist_generator.hh). Tabulation keeps
 * std::pow off the per-access path; the piecewise-linear lookup is
 * the exact code the generator always used, so draw streams are
 * byte-identical to the pre-extraction ones. The table is immutable,
 * so PowerLawTable::shared() hands every stream with the same theta
 * one copy: a 32-core job's generators then read at most as many
 * 32 KB tables as there are distinct exponents, instead of one each.
 */

#ifndef PRISM_COMMON_ZIPF_HH
#define PRISM_COMMON_ZIPF_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/prism_assert.hh"
#include "common/rng.hh"

namespace prism
{

/** O(1) sampler of ranks in [0, n) with P(r) proportional to
 *  1/(r+1)^s. Immutable; safe to share between generator streams. */
class ZipfGenerator
{
  public:
    /**
     * @param num_elements Keyspace size n; at least 1.
     * @param exponent Zipf exponent s >= 0 (0 = uniform).
     */
    ZipfGenerator(std::uint64_t num_elements, double exponent)
        : n_(num_elements), s_(exponent)
    {
        panicIf(n_ == 0, "ZipfGenerator: empty keyspace");
        panicIf(!(s_ >= 0.0), "ZipfGenerator: exponent must be >= 0");
        h_x1_ = hIntegral(1.5) - 1.0;
        h_n_ = hIntegral(static_cast<double>(n_) + 0.5);
        s_factor_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
    }

    /** Draw one rank in [0, n) using uniforms from @p rng. */
    std::uint64_t
    next(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        // Rejection-inversion over the hat function h(x) = x^-s:
        // invert the hat's integral at a uniform point, round to the
        // nearest integer rank, and accept when the rank's true mass
        // covers the point (the s_factor short-cut accepts the vast
        // majority of draws without evaluating hIntegral again).
        for (;;) {
            const double u =
                h_n_ + rng.uniform() * (h_x1_ - h_n_);
            const double x = hIntegralInverse(u);
            double k = std::floor(x + 0.5);
            if (k < 1.0)
                k = 1.0;
            else if (k > static_cast<double>(n_))
                k = static_cast<double>(n_);
            if (k - x <= s_factor_ ||
                u >= hIntegral(k + 0.5) - h(k))
                return static_cast<std::uint64_t>(k) - 1;
        }
    }

    std::uint64_t numElements() const { return n_; }
    double exponent() const { return s_; }

  private:
    /** Integral of the hat: H(x) = ∫ x^-s dx, via helpers that stay
     *  accurate through the s -> 1 singularity. */
    double
    hIntegral(double x) const
    {
        const double log_x = std::log(x);
        return helper2((1.0 - s_) * log_x) * log_x;
    }

    double h(double x) const { return std::exp(-s_ * std::log(x)); }

    double
    hIntegralInverse(double x) const
    {
        double t = x * (1.0 - s_);
        if (t < -1.0)
            t = -1.0; // round-off guard at the left boundary
        return std::exp(helper1(t) * x);
    }

    /** log1p(x)/x, Taylor-expanded near 0. */
    static double
    helper1(double x)
    {
        if (std::abs(x) > 1e-8)
            return std::log1p(x) / x;
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
    }

    /** expm1(x)/x, Taylor-expanded near 0. */
    static double
    helper2(double x)
    {
        if (std::abs(x) > 1e-8)
            return std::expm1(x) / x;
        return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
    }

    std::uint64_t n_;
    double s_;
    double h_x1_;     ///< hIntegral(1.5) - 1
    double h_n_;      ///< hIntegral(n + 0.5)
    double s_factor_; ///< acceptance short-cut bound
};

/**
 * Tabulated inverse CDF of the power law u -> u^(1/theta) on [0, 1],
 * looked up by piecewise-linear interpolation over a fixed grid.
 * fraction(u) maps a uniform draw to a distance (or rank) fraction
 * with the CDF P(fraction <= f) = f^theta — the skewed-stream law
 * the trace generator realises (stack_dist_generator.hh).
 */
class PowerLawTable
{
  public:
    /** @param theta Power-law exponent, in (0, inf). */
    explicit PowerLawTable(double theta)
    {
        panicIf(theta <= 0.0, "PowerLawTable: theta <= 0");
        // Tabulate the inverse CDF u -> u^(1/theta) so the per-draw
        // path needs no std::pow.
        const double inv_theta = 1.0 / theta;
        inv_cdf_.resize(tableSize + 1);
        for (std::size_t i = 0; i <= tableSize; ++i)
            inv_cdf_[i] = std::pow(
                static_cast<double>(i) / tableSize, inv_theta);
    }

    /**
     * The table for @p theta, shared with every other caller that
     * holds one for the same theta (bit-equal exponents). A registry
     * keeps only weak references, so a table is freed with its last
     * holder and the next request builds it again. Thread-safe.
     */
    static std::shared_ptr<const PowerLawTable> shared(double theta);

    /** Fraction in [0, 1] for uniform draw @p u. */
    double
    fraction(double u) const
    {
        const double x = u * tableSize;
        const std::size_t lo = static_cast<std::size_t>(x);
        const double frac = x - static_cast<double>(lo);
        if (lo >= tableSize)
            return inv_cdf_[tableSize];
        return inv_cdf_[lo] +
               frac * (inv_cdf_[lo + 1] - inv_cdf_[lo]);
    }

  private:
    static constexpr std::size_t tableSize = 4096;

    std::vector<double> inv_cdf_;
};

} // namespace prism

#endif // PRISM_COMMON_ZIPF_HH
