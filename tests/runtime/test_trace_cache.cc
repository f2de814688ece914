/**
 * @file
 * TraceCache policy and concurrency tests: CLOCK second-chance
 * eviction, insertion-order eviction when nothing is re-referenced,
 * a pin surviving its own entry's eviction, hit/miss accounting of
 * getMany() under racing callers, and a multi-threaded stress run in
 * which every pin must equal a freshly generated trace of its key.
 * Carries the `runtime` label, so the stress run is also checked
 * under -DSUIT_SANITIZE=thread.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"
#include "trace_equality.hh"

namespace {

using namespace suit;
using sim::TraceCache;
using suit::testing::expectIdenticalTraces;
using TracePin = std::shared_ptr<const trace::Trace>;

/**
 * A short copy of a real profile, so tests generate quickly: a
 * thousand-odd events and ~40 kB per trace.
 */
trace::WorkloadProfile
smallProfile()
{
    trace::WorkloadProfile p = trace::profileByName("Nginx");
    p.name = "cache-test";
    p.totalInstructions = 3'000'000;
    return p;
}

/** Resident bytes of the trace a cache would build for the key. */
std::size_t
traceBytes(const trace::WorkloadProfile &p, std::uint64_t seed,
           int stream = 0)
{
    return trace::TraceGenerator(seed).generate(p, stream).memoryBytes();
}

TEST(TraceCache, SecondChanceSparesTheReferencedEntry)
{
    const trace::WorkloadProfile p = smallProfile();
    const std::size_t a = traceBytes(p, 1);
    const std::size_t b = traceBytes(p, 2);
    const std::size_t c = traceBytes(p, 3);
    // Any two of the three fit; all three do not.
    TraceCache cache(a + b + c - 1);

    cache.get(p, 1, 0); // A
    cache.get(p, 2, 0); // B
    cache.get(p, 1, 0); // hit A: sets its reference bit
    cache.get(p, 3, 0); // C: the hand spares A and evicts B
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.residentBytes(), a + c);

    // A and C are hits; B has to be generated again.
    const std::uint64_t misses = cache.misses();
    cache.get(p, 1, 0);
    cache.get(p, 3, 0);
    EXPECT_EQ(cache.misses(), misses);
    cache.get(p, 2, 0);
    EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(TraceCache, CapacityBelowOneTraceStillReturnsAValidPin)
{
    const trace::WorkloadProfile p = smallProfile();
    TraceCache cache(1);

    const TracePin first = cache.get(p, 5, 2);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    expectIdenticalTraces(*first,
                          trace::TraceGenerator(5).generate(p, 2));

    std::vector<TracePin> many;
    cache.getMany(p, 5, 3, many);
    ASSERT_EQ(many.size(), 3u);
    for (int s = 0; s < 3; ++s) {
        ASSERT_NE(many[static_cast<std::size_t>(s)], nullptr);
        expectIdenticalTraces(*many[static_cast<std::size_t>(s)],
                              trace::TraceGenerator(5).generate(p, s));
    }
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_LE(cache.residentBytes(), cache.capacityBytes());
}

TEST(TraceCache, NoReuseStreamEvictsInInsertionOrder)
{
    const trace::WorkloadProfile p = smallProfile();
    constexpr int kKeys = 12;
    std::vector<std::size_t> bytes;
    for (int k = 0; k < kKeys; ++k)
        bytes.push_back(traceBytes(p, static_cast<std::uint64_t>(k)));
    const std::size_t capacity = bytes[0] + bytes[1] + bytes[2] + 1;
    TraceCache cache(capacity);

    // Model FIFO over the same byte sizes: with no entry referenced
    // twice, CLOCK must evict exactly what FIFO (and LRU) would.
    std::size_t oldest = 0;
    std::size_t resident = 0;
    for (int k = 0; k < kKeys; ++k) {
        cache.get(p, static_cast<std::uint64_t>(k), 0);
        resident += bytes[static_cast<std::size_t>(k)];
        while (resident > capacity)
            resident -= bytes[oldest++];
        EXPECT_EQ(cache.evictions(), oldest) << "after key " << k;
        EXPECT_EQ(cache.residentBytes(), resident) << "after key " << k;
    }

    // The survivors are exactly the newest keys: each is a hit.
    const std::uint64_t misses = cache.misses();
    for (std::size_t k = oldest; k < kKeys; ++k)
        cache.get(p, k, 0);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(cache.entries(), static_cast<std::size_t>(kKeys) - oldest);
}

TEST(TraceCache, GetManyCountsRacingWaitersAsHits)
{
    const trace::WorkloadProfile p = smallProfile();
    TraceCache cache;
    constexpr int kThreads = 4;
    constexpr int kStreams = 4;

    std::latch start(kThreads);
    std::vector<std::vector<TracePin>> pins(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            cache.getMany(p, 9, kStreams,
                          pins[static_cast<std::size_t>(t)]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    // Each key was generated exactly once; every other request for
    // it, whether it waited on the generator or not, is a hit.
    EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kStreams));
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(kThreads * kStreams));
    EXPECT_EQ(cache.entries(), static_cast<std::size_t>(kStreams));
    for (int s = 0; s < kStreams; ++s) {
        const auto i = static_cast<std::size_t>(s);
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(pins[static_cast<std::size_t>(t)][i].get(),
                      pins[0][i].get());
    }
}

TEST(TraceCache, ConcurrentLookupsUnderEvictionReturnExactTraces)
{
    const trace::WorkloadProfile p = smallProfile();
    constexpr int kSeeds = 3;
    constexpr int kStreams = 4;
    constexpr int kKeys = kSeeds * kStreams;
    constexpr int kThreads = 4;
    constexpr int kCalls = 2000;

    // Key k is (seed 19 + row, stream k % kStreams), row = k / kStreams:
    // every one of these keys has events.
    const auto seedOf = [](int row) {
        return static_cast<std::uint64_t>(19 + row);
    };
    std::vector<trace::Trace> expected;
    std::size_t max_bytes = 0;
    for (int k = 0; k < kKeys; ++k) {
        expected.push_back(
            trace::TraceGenerator(seedOf(k / kStreams))
                .generate(p, k % kStreams));
        ASSERT_GT(expected.back().eventCount(), 0u);
        max_bytes = std::max(max_bytes, expected.back().memoryBytes());
    }
    TraceCache cache(3 * max_bytes);

    std::latch start(kThreads);
    std::vector<std::uint64_t> lookups(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Pins already compared, held so their addresses cannot
            // be reused by a later trace.
            std::array<TracePin, kKeys> checked;
            const auto check = [&](int key, const TracePin &pin) {
                ASSERT_NE(pin, nullptr);
                TracePin &seen = checked[static_cast<std::size_t>(key)];
                if (pin == seen)
                    return;
                expectIdenticalTraces(
                    *pin, expected[static_cast<std::size_t>(key)]);
                seen = pin;
            };
            std::uint64_t x = 0x9E3779B97F4A7C15ULL * (t + 1);
            std::vector<TracePin> many;
            std::uint64_t &count = lookups[static_cast<std::size_t>(t)];
            start.arrive_and_wait();
            for (int call = 0; call < kCalls; ++call) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                const int row = static_cast<int>(x % kSeeds);
                if (call % 2 == 0) {
                    const int streams =
                        1 + static_cast<int>((x >> 8) % kStreams);
                    cache.getMany(p, seedOf(row), streams, many);
                    for (int s = 0; s < streams; ++s)
                        check(row * kStreams + s,
                              many[static_cast<std::size_t>(s)]);
                    count += static_cast<std::uint64_t>(streams);
                } else {
                    const int stream =
                        static_cast<int>((x >> 8) % kStreams);
                    check(row * kStreams + stream,
                          cache.get(p, seedOf(row), stream));
                    ++count;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    std::uint64_t total = 0;
    for (const std::uint64_t n : lookups)
        total += n;
    EXPECT_EQ(cache.hits() + cache.misses(), total);
    EXPECT_LE(cache.evictions(), cache.misses());
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.residentBytes(), cache.capacityBytes());
    EXPECT_LE(cache.entries(), static_cast<std::size_t>(kKeys));
}

} // namespace
