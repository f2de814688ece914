/**
 * @file
 * Regenerates Fig. 7: the timeline of AES instruction execution in
 * the VLC streaming trace — bursts of faultable instructions with
 * heavy-tailed gaps — as (instruction index, gap size) series plus
 * the gap-size histogram.
 */

#include <cstdio>

#include "trace/generator.hh"
#include "trace/profile.hh"
#include "util/format.hh"

int
main()
{
    using namespace suit;

    std::printf("SUIT reproduction — Fig. 7: AES gap-size timeline "
                "while VLC streams a 1080p video\n\n");

    const auto &profile = trace::vlcProfile();
    const trace::Trace t = trace::TraceGenerator(1).generate(profile);
    const trace::TraceStats stats = trace::TraceStats::compute(t);

    std::printf("Trace: %llu instructions, %zu faultable events "
                "(x%g thinning), mean gap %.0f, max gap %.2e\n\n",
                static_cast<unsigned long long>(t.totalInstructions()),
                t.eventCount(), profile.eventWeight, stats.meanGap,
                static_cast<double>(stats.maxGap));

    // The figure's series: big gaps (burst boundaries) along the
    // instruction index axis.  Print the first burst boundaries.
    std::printf("%-18s %-14s %s\n", "instruction index", "gap size",
                "log10(gap)");
    int shown = 0;
    std::uint64_t pos = 0; // stream position after the previous event
    for (std::size_t i = 0; i < t.eventCount() && shown < 18; ++i) {
        const auto &e = t.events()[i];
        const std::uint64_t index = pos + e.gap;
        pos = index + 1;
        if (e.gap < 100 * profile.eventWeight)
            continue; // inside a burst
        int log10 = 0;
        for (std::uint64_t g = e.gap; g >= 10; g /= 10)
            ++log10;
        std::printf("%-18s %-14s %d\n",
                    util::sformat("%.3e",
                                  static_cast<double>(index))
                        .c_str(),
                    util::sformat("%.2e", static_cast<double>(e.gap))
                        .c_str(),
                    log10);
        ++shown;
    }

    std::printf("\nGap-size histogram over the whole trace "
                "(decades of instructions):\n");
    std::fputs(stats.gapHistogram.render(48).c_str(), stdout);

    std::printf("\nExpected shape: most gaps are tiny (inside AES "
                "bursts, ~15 instructions apart), with burst\n"
                "boundaries spread over many decades up to ~1e7+ "
                "instructions — ideal for SUIT's deadline\nmechanism "
                "(paper Sec. 5.1).\n");
    return 0;
}
