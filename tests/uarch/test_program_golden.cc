/**
 * @file
 * Golden digests of the program generator.
 *
 * ProgramGenerator::generate over every Fig. 14 mix at seeds
 * {7, 17, 99}, folded field by field into an FNV-1a digest.  The
 * expected values were recorded before the op-class sampler was made
 * branch-free, so the generator's RNG draw order and every
 * instruction field stay pinned across changes to its sampling.
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <string>

#include "uarch/program.hh"

namespace {

using namespace suit::uarch;

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
mixDigest(const ProgramMix &mix)
{
    Fnv fnv;
    for (std::uint64_t seed : {7, 17, 99}) {
        const Program p = ProgramGenerator(seed).generate(mix, 60'000);
        fnv.add(p.insts.size());
        fnv.add(p.codeFootprintBytes);
        for (const Inst &inst : p.insts) {
            fnv.add(static_cast<std::uint64_t>(inst.op));
            fnv.add(static_cast<std::uint64_t>(inst.dst));
            fnv.add(static_cast<std::uint64_t>(inst.src1));
            fnv.add(static_cast<std::uint64_t>(inst.src2));
            fnv.add(inst.addr);
            fnv.add(inst.streamingHint);
            fnv.add(inst.taken);
            fnv.add(inst.faultable
                        ? static_cast<std::uint64_t>(*inst.faultable)
                        : ~std::uint64_t{0});
        }
    }
    return fnv.h;
}

TEST(ProgramGolden, EveryFigure14MixMatchesRecordedDigest)
{
    const std::map<std::string, std::uint64_t> expected = {
        {"spec-int-like", 0x70a47474290d6d51ULL},
        {"spec-fp-like", 0xa0a02cb11a52c14fULL},
        {"x264-like", 0x7627f83304c62165ULL},
        {"mem-bound", 0x9b29b7564b46f954ULL},
        {"branchy", 0x9698fd59bd322c54ULL},
        {"compute-dense", 0xd0eea7336f4f4b4dULL},
        {"mul-moderate", 0xf7fae8a78abab35cULL},
        {"fp-vector", 0x6f961219796321b7ULL},
    };
    const std::vector<ProgramMix> mixes = figure14Mixes();
    ASSERT_EQ(expected.size(), mixes.size());
    for (const ProgramMix &mix : mixes) {
        const auto it = expected.find(mix.name);
        ASSERT_NE(it, expected.end()) << mix.name;
        EXPECT_EQ(mixDigest(mix), it->second)
            << mix.name << ": 0x" << std::hex << mixDigest(mix);
    }
}

} // namespace
