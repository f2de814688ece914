#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace suit::util {

namespace {

/** splitmix64 step, used for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    SUIT_ASSERT(bound > 0, "nextBelow() requires a positive bound");
    // A power-of-two bound divides 2^64: the rejection threshold
    // below is 0 and the modulo is a mask, so skip both divisions.
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    SUIT_ASSERT(lo <= hi, "nextRange() requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextExponential(double mean)
{
    SUIT_ASSERT(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

double
Rng::nextGaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

double
Rng::nextLogNormal(double mu, double sigma)
{
    return std::exp(nextGaussian(mu, sigma));
}

double
Rng::nextPareto(double x_m, double alpha)
{
    SUIT_ASSERT(x_m > 0.0 && alpha > 0.0,
                "pareto parameters must be positive");
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return x_m / std::pow(u, 1.0 / alpha);
}

Rng
Rng::split()
{
    // Two fresh draws give a decorrelated seed for the child stream.
    const std::uint64_t a = next();
    const std::uint64_t b = next();
    return Rng(a ^ rotl(b, 32));
}

} // namespace suit::util
