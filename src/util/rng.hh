/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic components (trace generators, process variation,
 * fault injection) draw from this xoshiro256** generator so that every
 * experiment is reproducible from a seed.  std::mt19937 is avoided for
 * speed and because libstdc++ distribution implementations are not
 * stable across versions; the distributions here are hand-rolled.
 */

#ifndef SUIT_UTIL_RNG_HH
#define SUIT_UTIL_RNG_HH

#include <cstdint>

namespace suit::util {

/**
 * xoshiro256** PRNG (Blackman & Vigna), seeded through splitmix64.
 *
 * Passes BigCrush; 2^256-1 period; trivially copyable so simulator
 * state can be snapshotted.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5317C0DEULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Exponentially distributed double with the given mean. */
    double nextExponential(double mean);

    /** Standard normal via Box-Muller (cached second value). */
    double nextGaussian();

    /** Normal with given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Log-normal parameterised by the *underlying* normal mu/sigma. */
    double nextLogNormal(double mu, double sigma);

    /** Pareto with scale x_m > 0 and shape alpha > 0. */
    double nextPareto(double x_m, double alpha);

    /** Fork a decorrelated child generator (for parallel streams). */
    Rng split();

  private:
    static constexpr std::uint64_t kDefaultSeed = 0x5317C0DEULL;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace suit::util

#endif // SUIT_UTIL_RNG_HH
