/**
 * @file
 * K-bit fixed-point representation of probabilities.
 *
 * Section 5.6 ("Bits required for Eviction-probability") of the paper
 * stores eviction probabilities as K = 6/8/10/12 bit integers so that
 * the allocation policy can communicate them to the cache controller
 * cheaply. This header provides the encode/decode pair plus a helper
 * that quantises a whole distribution while keeping it normalised.
 */

#ifndef PRISM_COMMON_FIXED_POINT_HH
#define PRISM_COMMON_FIXED_POINT_HH

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/prism_assert.hh"

namespace prism
{

/**
 * Encoder/decoder for probabilities in [0, 1] as K-bit unsigned
 * integers, value v representing v / (2^K - 1).
 */
class FixedPointCodec
{
  public:
    /** @param bits Number of bits K; must be in [1, 31]. */
    explicit FixedPointCodec(unsigned bits)
        : bits_(bits), scale_(scaleFor(bits))
    {
    }

    unsigned bits() const { return bits_; }

    /** Largest representable raw code. */
    std::uint32_t maxCode() const { return scale_; }

    /** Quantise probability @p p (clamped to [0,1]) to a raw code. */
    std::uint32_t
    encode(double p) const
    {
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return scale_;
        return static_cast<std::uint32_t>(std::lround(p * scale_));
    }

    /** Decode a raw code back to a probability. */
    double
    decode(std::uint32_t code) const
    {
        panicIf(code > scale_, "FixedPointCodec::decode: code overflow");
        return static_cast<double>(code) / scale_;
    }

    /** Round-trip a probability through the K-bit representation. */
    double
    quantise(double p) const
    {
        return decode(encode(p));
    }

    /**
     * Quantise a probability distribution.
     *
     * Each entry is rounded to K bits and the result is renormalised so
     * the quantised values still sum to one — mirroring the hardware,
     * where the core-selection step consumes the distribution as a
     * cumulative table and only relative magnitudes matter.
     *
     * @return The quantised (and renormalised) distribution. If every
     *         entry quantises to zero the input is returned unchanged.
     */
    std::vector<double>
    quantiseDistribution(std::span<const double> probs) const
    {
        std::vector<double> out(probs.begin(), probs.end());
        double sum = 0.0;
        for (auto &p : out) {
            p = quantise(p);
            sum += p;
        }
        if (sum <= 0.0)
            return std::vector<double>(probs.begin(), probs.end());
        for (auto &p : out)
            p /= sum;
        return out;
    }

  private:
    /** 2^K - 1, range-checked before the shift (UB at K >= 32). */
    static std::uint32_t
    scaleFor(unsigned bits)
    {
        fatalIf(bits < 1 || bits > 31, "FixedPointCodec: bits out of range");
        return (1u << bits) - 1u;
    }

    unsigned bits_;
    std::uint32_t scale_;
};

} // namespace prism

#endif // PRISM_COMMON_FIXED_POINT_HH
