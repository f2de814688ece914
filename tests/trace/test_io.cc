/**
 * @file
 * Tests of trace serialization (text and binary round trips,
 * malformed-input handling via death tests).
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"

namespace {

using namespace suit::trace;
using suit::isa::FaultableKind;

Trace
sampleTrace()
{
    return Trace("sample", 100'000, 1.75,
                 {{10, FaultableKind::VOR},
                  {0, FaultableKind::AESENC},
                  {99'000, FaultableKind::VPCLMULQDQ}},
                 4.0);
}

void
expectEqualTraces(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_NEAR(a.ipc(), b.ipc(), 1e-3);
    EXPECT_NEAR(a.eventWeight(), b.eventWeight(), 1e-3);
    ASSERT_EQ(a.eventCount(), b.eventCount());
    for (std::size_t i = 0; i < a.eventCount(); ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
}

TEST(TraceIo, TextRoundTrip)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeText(t, ss);
    expectEqualTraces(t, readText(ss));
}

TEST(TraceIo, BinaryRoundTrip)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeBinary(t, ss);
    expectEqualTraces(t, readBinary(ss));
}

TEST(TraceIo, GeneratedTraceRoundTripsBothFormats)
{
    const Trace t =
        TraceGenerator(11).generate(profileByName("520.omnetpp"));
    {
        std::stringstream ss;
        writeBinary(t, ss);
        expectEqualTraces(t, readBinary(ss));
    }
    {
        std::stringstream ss;
        writeText(t, ss);
        expectEqualTraces(t, readText(ss));
    }
}

TEST(TraceIo, BinaryIsCompact)
{
    const Trace t =
        TraceGenerator(12).generate(profileByName("557.xz"));
    std::stringstream text, binary;
    writeText(t, text);
    writeBinary(t, binary);
    EXPECT_LT(binary.str().size(), text.str().size() / 2);
    // Roughly <= 6 bytes per event on average (varint gaps).
    EXPECT_LT(binary.str().size(), t.eventCount() * 8 + 128);
}

TEST(TraceIo, FileRoundTripViaExtensionDispatch)
{
    const Trace t = sampleTrace();
    const std::string text_path = "/tmp/suit_io_test.sft";
    const std::string bin_path = "/tmp/suit_io_test.sfb";
    saveTrace(t, text_path);
    saveTrace(t, bin_path);
    expectEqualTraces(t, loadTrace(text_path));
    expectEqualTraces(t, loadTrace(bin_path));
    std::remove(text_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(TraceIoDeathTest, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "definitely not a trace\n";
    EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeathTest, RejectsTruncatedBinary)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeBinary(t, ss);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_EXIT(readBinary(cut), ::testing::ExitedWithCode(1),
                "truncated");
}

/** LEB128 varint, as the binary format stores integers. */
void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/**
 * A hand-built binary trace named "h": header fields as given (IPC
 * and weight in milli-units), then @p gaps as IMUL events.
 */
std::string
binaryTrace(std::uint64_t total, std::uint64_t ipc_milli,
            std::uint64_t weight_milli, std::uint64_t count,
            const std::vector<std::uint64_t> &gaps)
{
    std::string out = {'1', 'T', 'F', 'S'}; // magic, little endian
    putVarint(out, 1);
    out.push_back('h');
    putVarint(out, total);
    putVarint(out, ipc_milli);
    putVarint(out, weight_milli);
    putVarint(out, count);
    for (std::uint64_t gap : gaps) {
        putVarint(out, gap);
        out.push_back(static_cast<char>(FaultableKind::IMUL));
    }
    return out;
}

std::string
textTrace(const std::string &header_tail, const std::string &events)
{
    return "suit-trace v1\nname h\ninstructions 1000\n" + header_tail +
           events;
}

TEST(TraceIo, HandBuiltBinaryBaselineParses)
{
    std::stringstream ss(binaryTrace(1000, 1000, 1000, 2, {10, 20}));
    const Trace t = readBinary(ss);
    EXPECT_EQ(t.eventCount(), 2u);
    // Event 1 sits at 10 + 1 + 20: the running sum of gap + 1.
    EXPECT_EQ(t.events()[0].gap + 1 + t.events()[1].gap, 31u);
    EXPECT_EQ(t.tailInstructions(), 1000u - 31u - 1u);
}

// Hostile inputs: each must end in fatal() (exit 1), never in an
// assert abort or std::bad_alloc.

TEST(TraceIoDeathTest, BinaryRejectsHugeCountWithShortBody)
{
    std::stringstream ss(
        binaryTrace(1000, 1000, 1000, std::uint64_t{1} << 60, {10}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "claims 1152921504606846976 events");
}

TEST(TraceIoDeathTest, BinaryRejectsEventsPastTheStream)
{
    std::stringstream ss(binaryTrace(100, 1000, 1000, 2, {50, 49}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "event 1 lies past the stream's 100 instructions");
}

TEST(TraceIoDeathTest, BinaryRejectsZeroIpc)
{
    std::stringstream ss(binaryTrace(1000, 0, 1000, 1, {10}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "non-positive IPC");
}

TEST(TraceIoDeathTest, BinaryRejectsZeroWeight)
{
    std::stringstream ss(binaryTrace(1000, 1000, 0, 1, {10}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "event weight below 1");
}

TEST(TraceIoDeathTest, BinaryRejectsGapSumOverflow)
{
    // Two gaps of 2^63 wrap a 64-bit running position back to 1,
    // which would slip past a check made only at the end.  A stream
    // that long is refused before any gap is read...
    const std::uint64_t half = std::uint64_t{1} << 63;
    std::stringstream ss(
        binaryTrace(~std::uint64_t{0}, 1000, 1000, 2, {half, half}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "claims 18446744073709551615 instructions");
    // ...and at the longest accepted length the per-event check
    // still stops a gap sum that overruns the stream.
    const std::uint64_t quarter = std::uint64_t{1} << 55;
    std::stringstream longest(binaryTrace(kMaxTraceInstructions - 1,
                                          1000, 1000, 2,
                                          {quarter, quarter}));
    EXPECT_EXIT(readBinary(longest), ::testing::ExitedWithCode(1),
                "event 1 lies past the stream");
}

TEST(TraceIoDeathTest, BinaryRejectsStreamLengthOfTwoToThe56)
{
    // The count claims more events than follow: the length check must
    // come first, before any event is read or validated.
    std::stringstream ss(binaryTrace(kMaxTraceInstructions, 1000, 1000,
                                     std::uint64_t{1} << 60, {10}));
    EXPECT_EXIT(readBinary(ss), ::testing::ExitedWithCode(1),
                "claims 72057594037927936 instructions");
    // One below the limit is a valid stream.
    std::stringstream ok(
        binaryTrace(kMaxTraceInstructions - 1, 1000, 1000, 1, {10}));
    EXPECT_EQ(readBinary(ok).totalInstructions(),
              kMaxTraceInstructions - 1);
}

TEST(TraceIoDeathTest, TextRejectsStreamLengthOfTwoToThe56)
{
    std::stringstream ss("suit-trace v1\nname h\n"
                         "instructions 72057594037927936\n"
                         "ipc 1\nweight 1\nevents 1\n10 IMUL\n");
    EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                "claims 72057594037927936 instructions");
}

TEST(TraceIoDeathTest, TextRejectsHostileHeadersAndEvents)
{
    const std::string ok_header = "ipc 1.5\nweight 1\nevents 2\n";
    {
        std::stringstream ss(textTrace(ok_header, "10 IMUL\n20 VOR\n"));
        EXPECT_EQ(readText(ss).eventCount(), 2u);
    }
    {
        std::stringstream ss(textTrace(
            "ipc 1.5\nweight 1\nevents 99999999999999\n", "10 IMUL\n"));
        EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                    "claims 99999999999999 events");
    }
    {
        std::stringstream ss(textTrace(ok_header, "10 IMUL\n989 VOR\n"));
        EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                    "event 1 lies past the stream's 1000 instructions");
    }
    {
        std::stringstream ss(
            textTrace("ipc 0\nweight 1\nevents 1\n", "10 IMUL\n"));
        EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                    "non-positive IPC");
    }
    {
        std::stringstream ss(
            textTrace("ipc 1\nweight 0\nevents 1\n", "10 IMUL\n"));
        EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                    "event weight below 1");
    }
}

TEST(TraceIoDeathTest, RejectsUnknownExtension)
{
    EXPECT_EXIT(saveTrace(sampleTrace(), "/tmp/foo.json"),
                ::testing::ExitedWithCode(1), "must end in");
}

} // namespace
