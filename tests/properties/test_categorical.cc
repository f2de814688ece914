/**
 * @file
 * Exactness of util::CategoricalSampler.
 *
 * The sampler must return, for every input, exactly what the
 * early-exit running-subtraction loop returns (kept here as the
 * oracle): on adversarial weights (interleaved zeros, subnormal and
 * tiny weights, sums that round above or below 1), on every built-in
 * trace profile's kind mix and on every Fig. 14 program mix, at u = 0,
 * at each running-sum boundary and one ulp either side of it, and over
 * 10^6 random draws per weight set.
 */

#include <array>
#include <bit>
#include <cstdint>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "trace/profile.hh"
#include "uarch/program.hh"
#include "util/categorical.hh"
#include "util/rng.hh"

namespace {

using suit::util::CategoricalSampler;
using suit::util::Rng;

constexpr std::size_t kN = 12;
using Weights = std::array<double, kN>;
using Sampler = CategoricalSampler<int, kN>;

/** The running-subtraction loop the sampler replaces. */
int
referenceSample(const Weights &w, double u, int fallback)
{
    for (std::size_t i = 0; i < kN; ++i) {
        u -= w[i];
        if (u < 0.0)
            return static_cast<int>(i);
    }
    return fallback;
}

int
lastPositive(const Weights &w)
{
    for (std::size_t i = kN; i-- > 0;) {
        if (w[i] > 0.0)
            return static_cast<int>(i);
    }
    return -1;
}

/** The oracle's running difference after weight @p k. */
double
runningDifference(const Weights &w, double u, std::size_t k)
{
    for (std::size_t i = 0; i <= k; ++i)
        u -= w[i];
    return u;
}

/**
 * Smallest u >= 0 whose running difference after weight @p k is
 * non-negative: the exact boundary between two categories.  The
 * difference is monotone in u, and non-negative doubles order like
 * their bit patterns, so a binary search over the bits finds it.
 */
double
boundary(const Weights &w, std::size_t k, double hi)
{
    std::uint64_t lo_bits = 0;
    std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(hi);
    while (lo_bits < hi_bits) {
        const std::uint64_t mid = lo_bits + (hi_bits - lo_bits) / 2;
        if (runningDifference(w, std::bit_cast<double>(mid), k) >= 0.0)
            hi_bits = mid;
        else
            lo_bits = mid + 1;
    }
    return std::bit_cast<double>(lo_bits);
}

/**
 * Every probe point: 0, the smallest normal and subnormal, each
 * prefix sum of the weights, each exact category boundary, one ulp
 * either side of all of these, and values at and past the total.
 */
std::vector<double>
probes(const Weights &w)
{
    std::vector<double> u = {0.0, std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min()};
    double total = 0.0;
    for (double wi : w) {
        total += wi;
        u.push_back(total);
    }
    const double hi = 2.0 * total + 1.0;
    for (std::size_t k = 0; k < kN; ++k)
        u.push_back(boundary(w, k, hi));
    const std::size_t base = u.size();
    for (std::size_t i = 0; i < base; ++i) {
        if (u[i] > 0.0) // the sampler's domain is u >= 0
            u.push_back(std::nextafter(u[i], 0.0));
        u.push_back(std::nextafter(u[i], hi));
    }
    u.push_back(2.0 * total);
    u.push_back(1.0);
    u.push_back(std::nextafter(1.0, 0.0));
    return u;
}

void
expectMatchesOracle(const Weights &w, double scale,
                    const std::string &label)
{
    SCOPED_TRACE(label);
    const int fallback_last = lastPositive(w);
    const Sampler last(w, label);
    const Sampler first(w, 0, label);

    for (double u : probes(w)) {
        ASSERT_EQ(last.sample(u), referenceSample(w, u, fallback_last))
            << "u = " << u;
        ASSERT_EQ(first.sample(u), referenceSample(w, u, 0))
            << "u = " << u;
    }

    Rng rng(0xC47E6011ULL);
    for (int i = 0; i < 1'000'000; ++i) {
        const double u = rng.nextDouble() * scale;
        ASSERT_EQ(last.sample(u), referenceSample(w, u, fallback_last))
            << "u = " << u;
        ASSERT_EQ(first.sample(u), referenceSample(w, u, 0))
            << "u = " << u;
    }
}

double
sum(const Weights &w)
{
    double s = 0.0;
    for (double wi : w)
        s += wi;
    return s;
}

TEST(CategoricalSampler, MatchesOracleOnAdversarialWeights)
{
    const double sub = std::numeric_limits<double>::denorm_min();
    const double tiny = std::numeric_limits<double>::min();
    const std::vector<std::pair<std::string, Weights>> sets = {
        {"interleaved zeros",
         {0, 0.25, 0, 0, 0.125, 0, 0.5, 0, 0, 0, 0.125, 0}},
        {"single weight", {0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0}},
        {"single weight at the end", {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
        {"subnormals", {sub, 0.5, 3 * sub, 0, 0.5, sub, 0, 0, 0, 0, 0, sub}},
        {"tiny and huge",
         {1e-300, 1.0, tiny, 1e-17, 1e-16, 0, 0, 0, 0, 0, 0, 1e-30}},
        {"tenths summing below 1",
         {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0, 0}},
        {"sum rounding above 1",
         {0.7, 0.2, 0.1, 1e-16, 3e-17, 0, 0, 0, 0, 0, 0, 0}},
        {"thirds", {1.0 / 3, 1.0 / 3, 1.0 / 3, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"unnormalised", {3, 0, 7, 1e-9, 0, 2.5, 0, 0, 0, 0, 11, 0.0007}},
    };
    for (const auto &[label, w] : sets) {
        expectMatchesOracle(w, 1.0, label + " (u in [0, 1))");
        expectMatchesOracle(w, sum(w), label + " (u scaled by sum)");
    }
}

TEST(CategoricalSampler, MatchesOracleOnEveryProfileKindMix)
{
    static_assert(suit::isa::kNumFaultableKinds == kN);
    for (const suit::trace::WorkloadProfile &p :
         suit::trace::allProfiles())
        expectMatchesOracle(p.kindMix, 1.0, p.name);
}

TEST(CategoricalSampler, MatchesOracleOnEveryProgramMix)
{
    // The program generator scales u by the weights' sum.
    for (const suit::uarch::ProgramMix &mix :
         suit::uarch::figure14Mixes()) {
        Weights w{};
        for (std::size_t i = 0; i < suit::uarch::kNumOpClasses; ++i)
            w[i] = mix.weights[i];
        expectMatchesOracle(w, sum(w), mix.name);
    }
}

TEST(CategoricalSamplerDeathTest, RejectsBadWeights)
{
    Weights negative{};
    negative[2] = 0.5;
    negative[4] = -0.25;
    EXPECT_DEATH(Sampler(negative, "mix 'neg'"), "mix 'neg': weight 4");

    Weights nan{};
    nan[0] = 1.0;
    nan[7] = std::nan("");
    EXPECT_DEATH(Sampler(nan, 0, "mix 'nan'"), "mix 'nan': weight 7");

    Weights inf{};
    inf[1] = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(Sampler(inf, "mix 'inf'"), "mix 'inf': weight 1");

    EXPECT_DEATH(Sampler(Weights{}, "mix 'zero'"),
                 "mix 'zero' has no positive weight");
}

} // namespace
