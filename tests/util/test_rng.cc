/**
 * @file
 * Tests of the deterministic RNG and its distributions.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using suit::util::Rng;
using suit::util::RunningStats;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(5);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowMatchesRejectionSampling)
{
    // Reference: the plain rejection algorithm, with no power-of-two
    // shortcut.  The fast path must return the same values and
    // consume the same number of draws.
    auto reference = [](Rng &rng, std::uint64_t bound) {
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold)
                return r % bound;
        }
    };
    for (std::uint64_t bound :
         {1ULL, 2ULL, 3ULL, 16ULL, 1ULL << 40, 1ULL << 63,
          (1ULL << 63) + 1}) {
        Rng fast(99), slow(99);
        for (int i = 0; i < 10'000; ++i)
            ASSERT_EQ(fast.nextBelow(bound), reference(slow, bound))
                << "bound " << bound << ", draw " << i;
        EXPECT_EQ(fast.next(), slow.next()) << "bound " << bound;
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(6);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(8);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextExponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.15);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(10);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextGaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, LogNormalMean)
{
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
    Rng rng(11);
    RunningStats s;
    const double mu = 1.0, sigma = 0.5;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.nextLogNormal(mu, sigma));
    EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2), 0.05);
}

TEST(Rng, ParetoRespectsScale)
{
    Rng rng(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextPareto(2.0, 1.5), 2.0);
}

TEST(Rng, SplitDecorrelates)
{
    Rng parent(13);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += parent.next() == child.next();
    EXPECT_LT(equal, 3);
}

} // namespace
