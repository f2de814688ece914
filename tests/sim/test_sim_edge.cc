/**
 * @file
 * Edge-case tests of the trace simulator: degenerate traces, event
 * placement extremes and bookkeeping invariants.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.hh"
#include "obs/trace.hh"
#include "sim/domain_sim.hh"
#include "sim/result_io.hh"
#include "trace/profile.hh"

namespace suit::trace {

/** Friend hook corrupting a trace to exercise defensive asserts. */
class TraceTestPeer
{
  public:
    static void setTotalInstructions(Trace &t, std::uint64_t total)
    {
        t.totalInstructions_ = total;
    }
};

} // namespace suit::trace

namespace {

using namespace suit;
using sim::DomainResult;
using sim::DomainSimulator;
using sim::RunMode;
using sim::SimConfig;

trace::WorkloadProfile
plainProfile(std::uint64_t total)
{
    trace::WorkloadProfile p;
    p.name = "edge";
    p.totalInstructions = total;
    p.ipc = 1.0;
    p.kindMix[static_cast<std::size_t>(isa::FaultableKind::VOR)] = 1.0;
    return p;
}

SimConfig
cfgFor(const power::CpuModel &cpu)
{
    SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.offsetMv = -97.0;
    cfg.params = core::optimalParams(cpu);
    return cfg;
}

TEST(SimEdge, TraceWithNoEventsRunsEntirelyOnEfficientCurve)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t("empty", p.totalInstructions, p.ipc, {});

    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 0u);
    EXPECT_NEAR(r.efficientShare, 1.0, 1e-9);
    EXPECT_NEAR(r.powerDelta(), -0.16, 1e-3);
    EXPECT_GT(r.perfDelta(), 0.03); // the full +3.8 % minus IMUL cost
}

TEST(SimEdge, SingleEventAtStreamStart)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t("first", p.totalInstructions, p.ipc,
                         {{0, isa::FaultableKind::VOR}});
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u);
    EXPECT_GT(r.efficientShare, 0.95);
}

TEST(SimEdge, SingleEventAtStreamEnd)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    const trace::Trace t(
        "last", p.totalInstructions, p.ipc,
        {{p.totalInstructions - 2, isa::FaultableKind::VOR}});
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u);
    // The run ends inside the trailing conservative window; shares
    // must still partition.
    EXPECT_NEAR(r.efficientShare + r.cfShare + r.cvShare, 1.0, 1e-9);
}

TEST(SimEdge, BackToBackEventsCauseOneTrap)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    std::vector<trace::FaultableEvent> events;
    events.push_back({500'000'000, isa::FaultableKind::VOR});
    for (int i = 0; i < 100; ++i)
        events.push_back({0, isa::FaultableKind::VXOR});
    const trace::Trace t("burst0", p.totalInstructions, p.ipc, events);
    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 1u); // the rest run with the set enabled
}

TEST(SimEdge, LastEventOnFinalInstructionHasZeroTailBothPaths)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    // gap = total - 1 puts the event on the very last instruction:
    // the tail drain after it is exactly zero.
    const trace::Trace t(
        "tail0", p.totalInstructions, p.ipc,
        {{p.totalInstructions - 1, isa::FaultableKind::VOR}});

    SimConfig cfg = cfgFor(cpu);
    DomainSimulator fast_sim(cfg, {{&t, &p}});
    const DomainResult fast = fast_sim.run();
    cfg.referencePath = true;
    DomainSimulator ref_sim(cfg, {{&t, &p}});
    const DomainResult ref = ref_sim.run();

    EXPECT_EQ(fast.traps, 1u);
    std::string fast_bytes;
    std::string ref_bytes;
    sim::serializeResult(fast, fast_bytes);
    sim::serializeResult(ref, ref_bytes);
    EXPECT_EQ(fast_bytes, ref_bytes);
}

TEST(SimEdge, CorruptedTracePanicsInsteadOfDrainingPhantomTail)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const trace::WorkloadProfile p = plainProfile(1'000'000'000);
    trace::Trace t("corrupt", p.totalInstructions, p.ipc,
                   {{p.totalInstructions - 2, isa::FaultableKind::VOR}});
    // Shrink the stream under the event after construction.  The old
    // tail drain computed totalInstructions() - last_index - 1
    // unchecked, underflowing to ~2^64 phantom instructions; now the
    // simulator must panic with a diagnosable message instead.
    trace::TraceTestPeer::setTotalInstructions(t, 1000);

    DomainSimulator sim(cfgFor(cpu), {{&t, &p}});
    EXPECT_DEATH((void)sim.run(), "inconsistent");
}

TEST(SimEdge, BaselineModeIgnoresStrategyEntirely)
{
    const power::CpuModel cpu = power::cpuB_ryzen7700x();
    const trace::WorkloadProfile p = plainProfile(2'000'000'000);
    std::vector<trace::FaultableEvent> events;
    for (int i = 0; i < 1000; ++i)
        events.push_back({1'000'000, isa::FaultableKind::AESENC});
    const trace::Trace t("base", p.totalInstructions, p.ipc, events);

    SimConfig cfg = cfgFor(cpu);
    cfg.mode = RunMode::Baseline;
    DomainSimulator sim(cfg, {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_EQ(r.traps, 0u);
    EXPECT_EQ(r.pstateSwitches, 0u);
    EXPECT_NEAR(r.perfDelta(), 0.0, 1e-3);
}

TEST(SimEdge, MixedWorkloadsOnOneSharedDomain)
{
    // Different profiles on the same shared domain must all finish
    // and the aggregate shares must stay consistent.
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    trace::WorkloadProfile quiet = plainProfile(500'000'000);
    trace::WorkloadProfile loud = plainProfile(500'000'000);
    loud.ipc = 2.0;

    const trace::Trace t_quiet("q", quiet.totalInstructions, quiet.ipc,
                               {{400'000'000,
                                 isa::FaultableKind::VOR}});
    std::vector<trace::FaultableEvent> loud_events;
    for (int i = 0; i < 4990; ++i) // events span the whole stream
        loud_events.push_back({100'000, isa::FaultableKind::AESENC});
    const trace::Trace t_loud("l", loud.totalInstructions, loud.ipc,
                              loud_events);

    DomainSimulator sim(cfgFor(cpu),
                        {{&t_quiet, &quiet}, {&t_loud, &loud}});
    const DomainResult r = sim.run();
    ASSERT_EQ(r.cores.size(), 2u);
    for (const auto &c : r.cores) {
        EXPECT_GT(c.durationS, 0.0);
        EXPECT_TRUE(std::isfinite(c.perfDelta()));
    }
    EXPECT_NEAR(r.efficientShare + r.cfShare + r.cvShare, 1.0, 1e-9);
    // The loud tenant's traps drag the shared domain conservative
    // while it runs (it finishes well before the quiet tenant, so
    // the tail of the run is efficient again).
    EXPECT_GT(r.cvShare + r.cfShare, 0.15);
    EXPECT_LT(r.efficientShare, 0.9);
}

TEST(SimEdge, ZeroOffsetIsNeutralApartFromImul)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    trace::WorkloadProfile p = plainProfile(1'000'000'000);
    p.imulFraction = 0.0;
    const trace::Trace t("zero", p.totalInstructions, p.ipc, {});
    SimConfig cfg = cfgFor(cpu);
    cfg.offsetMv = 0.0;
    DomainSimulator sim(cfg, {{&t, &p}});
    const DomainResult r = sim.run();
    EXPECT_NEAR(r.perfDelta(), 0.0, 1e-6);
    EXPECT_NEAR(r.powerDelta(), 0.0, 1e-6);
}

/** Stream position of every event: the running sum of gap + 1. */
std::vector<std::uint64_t>
prefixPositions(const std::vector<trace::FaultableEvent> &events)
{
    std::vector<std::uint64_t> positions;
    std::uint64_t pos = 0;
    for (const trace::FaultableEvent &e : events) {
        pos += e.gap;
        positions.push_back(pos);
        ++pos;
    }
    return positions;
}

/** One do-trap instant: the trapping core and its stream position. */
struct TrapAt
{
    int core = 0;
    std::uint64_t index = 0;
    bool operator==(const TrapAt &) const = default;
};

/** The unsigned integer after @p key in @p line (key must be there). */
std::uint64_t
argAfter(const std::string &line, const std::string &key)
{
    const std::size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    return at == std::string::npos
               ? 0
               : std::stoull(line.substr(at + key.size()));
}

/**
 * Run one traced domain and return its do-trap instants in emission
 * order: the core and the stream position the simulator put in each
 * trap frame.
 */
std::vector<TrapAt>
tracedTraps(const SimConfig &cfg, const std::vector<sim::CoreWork> &work)
{
    obs::TraceSession session;
    obs::setActiveTrace(&session);
    DomainSimulator simulator(cfg, work);
    (void)simulator.run();
    obs::setActiveTrace(nullptr);

    std::vector<TrapAt> traps;
    std::istringstream doc(session.render());
    for (std::string line; std::getline(doc, line);) {
        if (line.find("\"do-trap\"") == std::string::npos)
            continue;
        traps.push_back(
            {static_cast<int>(argAfter(line, "\"core\": ")),
             argAfter(line, "\"index\": ")});
    }
    return traps;
}

TEST(SimEdge, TrapFramesCarryPrefixPositionsOnBothPaths)
{
    // Emulation keeps the instructions disabled, so every event traps.
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const trace::WorkloadProfile p = plainProfile(1'000'000);
    const std::vector<trace::FaultableEvent> events = {
        {0, isa::FaultableKind::VOR},    {7, isa::FaultableKind::VOR},
        {1, isa::FaultableKind::AESENC}, {120, isa::FaultableKind::VOR},
        {0, isa::FaultableKind::VXOR},   {33, isa::FaultableKind::VOR},
        {5000, isa::FaultableKind::VOR}};
    const trace::Trace t("traps", p.totalInstructions, p.ipc, events);
    const std::vector<std::uint64_t> positions = {0,   8,   10,  131,
                                                  132, 166, 5167};
    ASSERT_EQ(prefixPositions(events), positions);
    std::vector<TrapAt> expected;
    for (const std::uint64_t index : positions)
        expected.push_back({0, index});

    SimConfig cfg = cfgFor(cpu);
    cfg.mode = RunMode::Suit;
    cfg.strategy = core::StrategyKind::Emulation;
    for (const bool reference : {false, true}) {
        cfg.referencePath = reference;
        EXPECT_EQ(tracedTraps(cfg, {{&t, &p}}), expected)
            << (reference ? "reference" : "fast");
    }
}

TEST(SimEdge, TrapPositionsSurviveNativeWindows)
{
    // Three bursts of 50 events, far enough apart for the deadline to
    // expire in between: each burst's first event traps, and the fast
    // path consumes the rest of the burst in native windows, which
    // must keep the stream position current.  One core runs the
    // single-core window; CPU A's shared two-core domain runs the
    // multi-core window, with the second core's trace shifted.
    const trace::WorkloadProfile p = plainProfile(10'000'000'000);
    std::vector<trace::FaultableEvent> events;
    for (int burst = 0; burst < 3; ++burst) {
        events.push_back({2'000'000'000, isa::FaultableKind::VOR});
        for (int i = 1; i < 50; ++i)
            events.push_back({100, isa::FaultableKind::AESENC});
    }
    std::vector<trace::FaultableEvent> shifted = events;
    shifted[0].gap = 1'000'000'000;
    const trace::Trace a("bursts", p.totalInstructions, p.ipc, events);
    const trace::Trace b("shifted", p.totalInstructions, p.ipc, shifted);
    const std::vector<std::vector<std::uint64_t>> positions = {
        prefixPositions(events), prefixPositions(shifted)};

    for (const power::CpuModel &cpu :
         {power::cpuC_xeon4208(), power::cpuA_i9_9900k()}) {
        std::vector<sim::CoreWork> work = {{&a, &p}};
        if (cpu.label() == "A")
            work.push_back({&b, &p});
        SimConfig cfg = cfgFor(cpu);
        cfg.mode = RunMode::Suit;
        cfg.strategy = core::StrategyKind::CombinedFv;
        cfg.referencePath = false;
        const std::vector<TrapAt> fast = tracedTraps(cfg, work);
        cfg.referencePath = true;
        const std::vector<TrapAt> ref = tracedTraps(cfg, work);
        EXPECT_EQ(fast, ref) << "CPU " << cpu.label();

        for (std::size_t c = 0; c < work.size(); ++c) {
            std::vector<std::uint64_t> indices;
            for (const TrapAt &trap : fast) {
                if (trap.core == static_cast<int>(c))
                    indices.push_back(trap.index);
            }
            const std::vector<std::uint64_t> &pos = positions[c];
            for (const std::size_t first : {0, 50, 100}) {
                EXPECT_NE(std::find(indices.begin(), indices.end(),
                                    pos[first]),
                          indices.end())
                    << "CPU " << cpu.label() << " core " << c
                    << ": burst starting at event " << first;
            }
            for (const std::uint64_t index : indices) {
                EXPECT_NE(std::find(pos.begin(), pos.end(), index),
                          pos.end())
                    << "CPU " << cpu.label() << " core " << c << ": "
                    << index << " is no event's position";
            }
        }
    }
}

} // namespace
