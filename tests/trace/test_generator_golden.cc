/**
 * @file
 * Golden digests of the trace generator.
 *
 * Every built-in profile is generated at seeds {1, 7, 99} and streams
 * {0, 1, 3}, and each trace is folded into an FNV-1a digest over the
 * generator's output only: stream length, event count, and every
 * event's gap, kind and stream position (a running sum computed
 * here).  The expected values were recorded before events were
 * packed into 8 bytes, so any change to the RNG draw order, the kind
 * choice or the gaps the packed layout stores shows up here as a
 * digest mismatch.  The storage itself is pinned separately: a
 * generated trace's memoryBytes(), which the trace cache charges,
 * must count exactly 8 bytes per event.
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <string>

#include "trace/generator.hh"
#include "trace/profile.hh"

namespace {

using namespace suit::trace;

struct Fnv
{
    std::uint64_t h = 0xCBF29CE484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
};

std::uint64_t
profileDigest(const WorkloadProfile &profile)
{
    Fnv fnv;
    for (std::uint64_t seed : {1, 7, 99}) {
        for (int stream : {0, 1, 3}) {
            const Trace t =
                TraceGenerator(seed).generate(profile, stream);
            fnv.add(t.totalInstructions());
            fnv.add(t.eventCount());
            std::uint64_t pos = 0;
            for (const FaultableEvent &e : t.events()) {
                pos += e.gap;
                fnv.add(e.gap);
                fnv.add(static_cast<std::uint64_t>(e.kind));
                fnv.add(pos);
                ++pos; // the faultable instruction itself
            }
        }
    }
    return fnv.h;
}

TEST(GeneratorGolden, EveryProfileMatchesRecordedDigest)
{
    const std::map<std::string, std::uint64_t> expected = {
        {"523.xalancbmk", 0x4b7fa09c182c4619ULL},
        {"557.xz", 0x9a91eacb9443720dULL},
        {"549.fotonik3d", 0x3e6750c155fac94eULL},
        {"505.mcf", 0x9b7f955cc6dbabc9ULL},
        {"531.deepsjeng", 0xb1d81f27fbeb6676ULL},
        {"548.exchange2", 0xbe9ca5c3a4669dcdULL},
        {"519.lbm", 0x5b28406c02834652ULL},
        {"541.leela", 0xe20b5609ce719287ULL},
        {"538.imagick", 0xf5bd6dfcf804c20eULL},
        {"525.x264", 0x47ce47c9a1d8c4a0ULL},
        {"510.parest", 0x642f0093cefb2793ULL},
        {"502.gcc", 0xb98949b91f6854aULL},
        {"508.namd", 0x44332fb682471075ULL},
        {"526.blender", 0x16a2fbcb90fa6482ULL},
        {"511.povray", 0xe8296ffdb211fe04ULL},
        {"507.cactuBSSN", 0xb26700104deeef17ULL},
        {"500.perlbench", 0x6070ac3547e9e65eULL},
        {"503.bwaves", 0xf3177542e92c7e38ULL},
        {"554.roms", 0x3dc57b3002ebd27ULL},
        {"544.nab", 0x8915e07ef63419ddULL},
        {"527.cam4", 0x9655aa804628fb05ULL},
        {"520.omnetpp", 0xd56587c0c2afe1aeULL},
        {"521.wrf", 0xfd28f62d4bec6b15ULL},
        {"Nginx", 0x1aafe21684c1332dULL},
        {"VLC", 0xaa19f5178c55a2aeULL},
    };
    ASSERT_EQ(expected.size(), allProfiles().size());
    for (const WorkloadProfile &p : allProfiles()) {
        const auto it = expected.find(p.name);
        ASSERT_NE(it, expected.end()) << p.name;
        EXPECT_EQ(profileDigest(p), it->second)
            << p.name << ": 0x" << std::hex << profileDigest(p);
    }
}

TEST(GeneratorGolden, GeneratedTracesStoreExactlyEightBytesPerEvent)
{
    for (const WorkloadProfile &p : allProfiles()) {
        for (int stream : {0, 3}) {
            const Trace t = TraceGenerator(7).generate(p, stream);
            ASSERT_GT(t.eventCount(), 0u) << p.name;
            EXPECT_EQ(t.memoryBytes(), sizeof(Trace) +
                                           t.name().capacity() +
                                           8 * t.eventCount())
                << p.name << " stream " << stream;
        }
    }
}

} // namespace
