/**
 * @file
 * Golden digests of the trace generator.
 *
 * Every built-in profile is generated at seeds {1, 7, 99} and streams
 * {0, 1, 3}, and each trace is folded into an FNV-1a digest over its
 * gaps, kinds, event indices, stream length and memoryBytes().  The
 * expected values were recorded before the generator's kind sampler
 * was made branch-free, so any change to the RNG draw order, the kind
 * choice, the event layout or the reservation heuristic (which the
 * trace cache's byte accounting reads through memoryBytes()) shows up
 * here as a digest mismatch.
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
            fnv.add(t.memoryBytes());
            fnv.add(t.eventCount());
            for (std::size_t i = 0; i < t.eventCount(); ++i) {
                fnv.add(t.events()[i].gap);
                fnv.add(static_cast<std::uint64_t>(t.events()[i].kind));
                fnv.add(t.eventIndex(i));
            }
        }
    }
    return fnv.h;
}

TEST(GeneratorGolden, EveryProfileMatchesRecordedDigest)
{
    const std::map<std::string, std::uint64_t> expected = {
        {"523.xalancbmk", 0xc243cd2999946c0eULL},
        {"557.xz", 0x21c46e5113f5c241ULL},
        {"549.fotonik3d", 0x4edf3d330692eae2ULL},
        {"505.mcf", 0x6328b5e96c175d85ULL},
        {"531.deepsjeng", 0x8417b2f101c46b10ULL},
        {"548.exchange2", 0xd6bbaf7726d01ce0ULL},
        {"519.lbm", 0x9d989ddb997a8479ULL},
        {"541.leela", 0xca5eabd7123b0536ULL},
        {"538.imagick", 0xcfb221b1d5629eceULL},
        {"525.x264", 0x8b1f5b07c89e5a33ULL},
        {"510.parest", 0xf352907c3459dc2aULL},
        {"502.gcc", 0xf343b772e446fec5ULL},
        {"508.namd", 0x37898a6b82d1ed92ULL},
        {"526.blender", 0x692ef108a1530d5ULL},
        {"511.povray", 0x1443292462e1f644ULL},
        {"507.cactuBSSN", 0x3336b68d9eb9a768ULL},
        {"500.perlbench", 0x6cb0a46cf991db74ULL},
        {"503.bwaves", 0x364540ed0405e1dULL},
        {"554.roms", 0xf12c0a13acb4adf5ULL},
        {"544.nab", 0x732e6b459aada14aULL},
        {"527.cam4", 0xb1b2eb8317a65ff0ULL},
        {"520.omnetpp", 0x5c281f649790a857ULL},
        {"521.wrf", 0xfb3fa972c0399ceULL},
        {"Nginx", 0xe9571a95e03ba863ULL},
        {"VLC", 0x1f21c75354e73e66ULL},
    };
    ASSERT_EQ(expected.size(), allProfiles().size());
    for (const WorkloadProfile &p : allProfiles()) {
        const auto it = expected.find(p.name);
        ASSERT_NE(it, expected.end()) << p.name;
        EXPECT_EQ(profileDigest(p), it->second)
            << p.name << ": 0x" << std::hex << profileDigest(p);
    }
}

} // namespace
