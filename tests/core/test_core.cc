/**
 * @file
 * Tests of the SUIT core mechanism: parameters, deadline timer,
 * thrash detector and the operating strategies (driven against a
 * scripted mock CPU).
 */

#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/deadline.hh"
#include "core/params.hh"
#include "core/strategy.hh"
#include "core/thrash.hh"
#include "os/msr.hh"
#include "util/ticks.hh"

namespace {

using namespace suit::core;
using suit::power::SuitPState;
using suit::util::microsecondsToTicks;
using suit::util::Tick;

TEST(Params, Table7Values)
{
    const StrategyParams fast = fastSwitchParams();
    EXPECT_DOUBLE_EQ(fast.deadlineUs, 30.0);
    EXPECT_DOUBLE_EQ(fast.timeSpanUs, 450.0);
    EXPECT_EQ(fast.maxExceptionCount, 3);
    EXPECT_DOUBLE_EQ(fast.deadlineFactor, 14.0);

    const StrategyParams slow = slowSwitchParams();
    EXPECT_DOUBLE_EQ(slow.deadlineUs, 700.0);
    EXPECT_DOUBLE_EQ(slow.timeSpanUs, 14000.0);
    EXPECT_EQ(slow.maxExceptionCount, 4);
    EXPECT_DOUBLE_EQ(slow.deadlineFactor, 9.0);
}

TEST(Params, OptimalSelectionByCpu)
{
    EXPECT_DOUBLE_EQ(
        optimalParams(suit::power::cpuA_i9_9900k()).deadlineUs, 30.0);
    EXPECT_DOUBLE_EQ(
        optimalParams(suit::power::cpuC_xeon4208()).deadlineUs, 30.0);
    EXPECT_DOUBLE_EQ(
        optimalParams(suit::power::cpuB_ryzen7700x()).deadlineUs,
        700.0);
}

TEST(Params, TickConversions)
{
    const StrategyParams p = fastSwitchParams();
    EXPECT_EQ(p.deadlineTicks(), microsecondsToTicks(30.0));
    EXPECT_EQ(p.boostedDeadlineTicks(), microsecondsToTicks(420.0));
}

TEST(DeadlineTimerTest, ArmExpireRearm)
{
    DeadlineTimer t;
    EXPECT_FALSE(t.armed());
    t.arm(1000, 500);
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(t.expiry(), 1500u);
    EXPECT_FALSE(t.checkExpired(1499));
    EXPECT_TRUE(t.checkExpired(1500));
    EXPECT_FALSE(t.armed()); // one-shot
    EXPECT_FALSE(t.checkExpired(2000));
}

TEST(DeadlineTimerTest, TouchRestartsCountdown)
{
    DeadlineTimer t;
    t.arm(0, 100);
    t.touch(80);
    EXPECT_EQ(t.expiry(), 180u);
    EXPECT_FALSE(t.checkExpired(150));
    t.touch(150);
    EXPECT_EQ(t.expiry(), 250u);
}

TEST(DeadlineTimerTest, TouchWhileDisarmedIsNoop)
{
    DeadlineTimer t;
    t.touch(50);
    EXPECT_FALSE(t.armed());
    t.arm(0, 10);
    t.cancel();
    t.touch(5);
    EXPECT_FALSE(t.armed());
}

TEST(DeadlineTimerTest, TouchManyEqualsThatManyTouches)
{
    DeadlineTimer one_by_one;
    DeadlineTimer batched;
    one_by_one.arm(0, 100);
    batched.arm(0, 100);
    for (const Tick now : {10, 40, 90})
        one_by_one.touch(now);
    batched.touchMany(90, 3);
    EXPECT_EQ(batched.expiry(), one_by_one.expiry());
    EXPECT_EQ(batched.resets(), one_by_one.resets());
    EXPECT_EQ(batched.resets(), 3u);
    EXPECT_EQ(batched.reload(), 100u);

    // An empty batch leaves the count-down alone.
    batched.touchMany(95, 0);
    EXPECT_EQ(batched.expiry(), 190u);
    EXPECT_EQ(batched.resets(), 3u);

    // Disarmed, a batch is a no-op like each touch() in it.
    batched.cancel();
    batched.touchMany(120, 5);
    EXPECT_FALSE(batched.armed());
    EXPECT_EQ(batched.resets(), 3u);
}

TEST(ThrashDetectorTest, CountsWithinWindow)
{
    StrategyParams p = fastSwitchParams(); // window 450 us, count 3
    ThrashDetector d(p);
    const Tick us = suit::util::kTicksPerUs;

    d.recordException(0);
    d.recordException(100 * us);
    EXPECT_FALSE(d.isThrashing(100 * us));
    d.recordException(200 * us);
    EXPECT_TRUE(d.isThrashing(200 * us));
    // The window slides: at 600 us only the 200 us event remains
    // (cutoff 150 us), and at 700 us none do (cutoff 250 us).
    EXPECT_EQ(d.exceptionsInWindow(600 * us), 1);
    EXPECT_EQ(d.exceptionsInWindow(700 * us), 0);
    EXPECT_FALSE(d.isThrashing(700 * us));
}

TEST(ThrashDetectorTest, ResetClears)
{
    ThrashDetector d(fastSwitchParams());
    for (int i = 0; i < 5; ++i)
        d.recordException(i);
    d.reset();
    EXPECT_EQ(d.exceptionsInWindow(10), 0);
}

TEST(ThrashDetectorTest, RebindEqualsFreshDetector)
{
    // A rebound detector must answer exactly like one freshly
    // constructed with the new parameters — including when the
    // parameters change the window length.
    ThrashDetector reused(fastSwitchParams());
    const Tick us = suit::util::kTicksPerUs;
    for (int i = 0; i < 40; ++i)
        reused.recordException(static_cast<Tick>(i) * 20 * us);

    reused.rebind(slowSwitchParams());
    ThrashDetector fresh(slowSwitchParams());
    EXPECT_EQ(reused.exceptionsInWindow(0), 0);
    for (int i = 0; i < 200; ++i) {
        const Tick t = static_cast<Tick>(i) * 37 * us;
        reused.recordException(t);
        fresh.recordException(t);
        ASSERT_EQ(reused.exceptionsInWindow(t),
                  fresh.exceptionsInWindow(t))
            << "diverged at event " << i;
        ASSERT_EQ(reused.isThrashing(t), fresh.isThrashing(t));
    }
}

TEST(ThrashDetectorTest, LongSlidingWindowMatchesNaiveCount)
{
    // Drive the window far past the in-place compaction threshold
    // and check every count against a naive recount of the recorded
    // history.  Catches off-by-ones in the start-index bookkeeping.
    const StrategyParams p = fastSwitchParams(); // window 450 us
    ThrashDetector d(p);
    const Tick us = suit::util::kTicksPerUs;
    const Tick window = p.timeSpanTicks();

    std::vector<Tick> history;
    Tick t = 0;
    for (int i = 0; i < 5000; ++i) {
        // Irregular stride, sometimes jumping a whole window ahead.
        t += (i % 7 == 0) ? 500 * us
                          : static_cast<Tick>(30 + i % 90) * us;
        d.recordException(t);
        history.push_back(t);

        const Tick cutoff = t > window ? t - window : 0;
        int naive = 0;
        for (const Tick e : history)
            naive += e >= cutoff ? 1 : 0;
        ASSERT_EQ(d.exceptionsInWindow(t), naive)
            << "diverged at event " << i;
    }
}

/** Scripted CpuControl recording every strategy action. */
class MockCpu : public CpuControl
{
  public:
    std::vector<std::string> log;
    SuitPState pstate = SuitPState::Efficient;
    bool disabled = true;
    Tick time = 0;
    Tick lastReload = 0;

    void
    changePStateWait(SuitPState target) override
    {
        log.push_back(std::string("wait:") +
                      suit::power::toString(target));
        pstate = target;
    }
    void
    changePStateAsync(SuitPState target) override
    {
        log.push_back(std::string("async:") +
                      suit::power::toString(target));
        pstate = target; // mock: instant
    }
    void
    cancelPendingPState() override
    {
        log.push_back("cancel");
    }
    void
    setInstructionsDisabled(bool d) override
    {
        log.push_back(d ? "disable" : "enable");
        disabled = d;
    }
    void
    setTimerInterrupt(Tick reload) override
    {
        log.push_back("timer");
        lastReload = reload;
    }
    SuitPState currentPState() const override { return pstate; }
    bool instructionsDisabled() const override { return disabled; }
    Tick now() const override { return time; }
};

suit::os::TrapFrame
frameAt(Tick when)
{
    suit::os::TrapFrame f;
    f.when = when;
    return f;
}

TEST(FvStrategy, FollowsListing1)
{
    CombinedFvStrategy s(fastSwitchParams());
    MockCpu cpu;
    cpu.time = 1000;

    const TrapAction a = s.onDisabledOpcode(cpu, frameAt(1000));
    EXPECT_FALSE(a.emulated);
    // Listing 1: wait for Cf, request CV, enable, arm timer.
    const std::vector<std::string> expect = {"wait:Cf", "async:CV",
                                             "enable", "timer"};
    EXPECT_EQ(cpu.log, expect);
    EXPECT_EQ(cpu.lastReload, fastSwitchParams().deadlineTicks());

    cpu.log.clear();
    s.onTimerInterrupt(cpu);
    const std::vector<std::string> expect2 = {"disable", "async:E"};
    EXPECT_EQ(cpu.log, expect2);
}

TEST(FvStrategy, BoostsDeadlineWhenThrashing)
{
    CombinedFvStrategy s(fastSwitchParams());
    MockCpu cpu;
    const Tick us = suit::util::kTicksPerUs;

    for (int i = 0; i < 3; ++i) {
        cpu.time = i * 50 * us;
        cpu.pstate = SuitPState::Efficient;
        s.onDisabledOpcode(cpu, frameAt(cpu.time));
    }
    EXPECT_EQ(cpu.lastReload,
              fastSwitchParams().boostedDeadlineTicks());
    EXPECT_EQ(s.thrashDetections(), 1u);
    EXPECT_EQ(s.trapCount(), 3u);
}

TEST(FvStrategy, TrapWhileConservativeCancelsPendingReturn)
{
    CombinedFvStrategy s(fastSwitchParams());
    MockCpu cpu;
    cpu.pstate = SuitPState::ConservativeFreq; // pending E in flight

    s.onDisabledOpcode(cpu, frameAt(0));
    // No new wait-switch; the pending return is cancelled and the
    // background CV promotion re-armed.
    const std::vector<std::string> expect = {"cancel", "async:CV",
                                             "enable", "timer"};
    EXPECT_EQ(cpu.log, expect);
}

TEST(FrequencyStrategy, SwitchesViaCfOnly)
{
    FrequencyStrategy s(slowSwitchParams());
    MockCpu cpu;
    s.onDisabledOpcode(cpu, frameAt(0));
    const std::vector<std::string> expect = {"wait:Cf", "enable",
                                             "timer"};
    EXPECT_EQ(cpu.log, expect);
}

TEST(VoltageStrategy, SwitchesViaCvOnly)
{
    VoltageStrategy s(fastSwitchParams());
    MockCpu cpu;
    s.onDisabledOpcode(cpu, frameAt(0));
    const std::vector<std::string> expect = {"wait:CV", "enable",
                                             "timer"};
    EXPECT_EQ(cpu.log, expect);
}

TEST(EmulationStrategyTest, StaysOnEfficientCurve)
{
    EmulationStrategy s;
    MockCpu cpu;
    const TrapAction a = s.onDisabledOpcode(cpu, frameAt(0));
    EXPECT_TRUE(a.emulated);
    EXPECT_TRUE(cpu.log.empty()); // no hardware interaction at all
    EXPECT_EQ(cpu.pstate, SuitPState::Efficient);
}

TEST(StrategyFactory, ProducesAllKinds)
{
    for (StrategyKind k :
         {StrategyKind::Emulation, StrategyKind::Frequency,
          StrategyKind::Voltage, StrategyKind::CombinedFv}) {
        auto s = makeStrategy(k, fastSwitchParams());
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->kind(), k);
    }
}

TEST(StrategyNames, Table6Labels)
{
    EXPECT_STREQ(toString(StrategyKind::Emulation), "e");
    EXPECT_STREQ(toString(StrategyKind::Frequency), "f");
    EXPECT_STREQ(toString(StrategyKind::Voltage), "V");
    EXPECT_STREQ(toString(StrategyKind::CombinedFv), "fV");
}

/** Drive @p s through a fixed trap/timer script; return the log. */
std::vector<std::string>
driveScript(OperatingStrategy &s, MockCpu &cpu)
{
    const Tick us = suit::util::kTicksPerUs;
    for (int i = 0; i < 4; ++i) {
        cpu.time = static_cast<Tick>(i) * 50 * us;
        s.onDisabledOpcode(cpu, frameAt(cpu.time));
    }
    if (s.kind() != StrategyKind::Emulation)
        s.onTimerInterrupt(cpu);
    return cpu.log;
}

TEST(StrategyArenaTest, SameKindEmplaceRecyclesInFreshState)
{
    // A same-kind emplace() reuses the occupant in place; the reused
    // object must behave exactly like a freshly constructed one —
    // zero counters, empty thrash window, the new parameters active.
    StrategyArena arena;
    OperatingStrategy *first =
        arena.emplace(StrategyKind::Hybrid, fastSwitchParams());
    MockCpu warmup;
    driveScript(*first, warmup);
    EXPECT_GT(first->trapCount(), 0u);

    OperatingStrategy *second =
        arena.emplace(StrategyKind::Hybrid, slowSwitchParams());
    EXPECT_EQ(second, first); // recycled, not reconstructed
    EXPECT_EQ(second->trapCount(), 0u);
    auto *sw = dynamic_cast<SwitchingStrategy *>(second);
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->thrashDetections(), 0u);
    EXPECT_DOUBLE_EQ(sw->params().deadlineUs,
                     slowSwitchParams().deadlineUs);

    // Behavioural identity: reused and fresh produce the same action
    // log, reload values and counters for the same script.
    MockCpu reused_cpu;
    driveScript(*second, reused_cpu);
    HybridStrategy fresh(slowSwitchParams());
    MockCpu fresh_cpu;
    driveScript(fresh, fresh_cpu);
    EXPECT_EQ(reused_cpu.log, fresh_cpu.log);
    EXPECT_EQ(reused_cpu.lastReload, fresh_cpu.lastReload);
    EXPECT_EQ(second->trapCount(), fresh.trapCount());
    auto *hybrid = dynamic_cast<HybridStrategy *>(second);
    ASSERT_NE(hybrid, nullptr);
    EXPECT_EQ(hybrid->emulatedTraps(), fresh.emulatedTraps());
}

TEST(StrategyArenaTest, KindChangeReconstructs)
{
    StrategyArena arena;
    for (const StrategyKind k :
         {StrategyKind::CombinedFv, StrategyKind::Emulation,
          StrategyKind::Hybrid, StrategyKind::Frequency,
          StrategyKind::Voltage, StrategyKind::CombinedFv}) {
        OperatingStrategy *s = arena.emplace(k, fastSwitchParams());
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->kind(), k);
        EXPECT_EQ(s->trapCount(), 0u);
    }
}

TEST(Controller, EnableProgramsMsrsAndHardware)
{
    MockCpu cpu;
    cpu.pstate = SuitPState::ConservativeVolt;
    cpu.disabled = false;
    suit::os::MsrFile msrs;
    SuitController ctl(cpu, msrs, StrategyKind::CombinedFv,
                       fastSwitchParams());

    ctl.enable();
    EXPECT_TRUE(ctl.enabled());
    EXPECT_EQ(msrs.read(suit::os::MSR_SUIT_DISABLE_OPCODE),
              suit::isa::FaultableSet::suitTrapSet().bits());
    EXPECT_EQ(msrs.read(suit::os::MSR_SUIT_DVFS_CURVE), 1u);
    EXPECT_TRUE(cpu.disabled);
    EXPECT_EQ(cpu.pstate, SuitPState::Efficient);

    ctl.disable();
    EXPECT_FALSE(ctl.enabled());
    EXPECT_EQ(msrs.read(suit::os::MSR_SUIT_DVFS_CURVE), 0u);
    EXPECT_FALSE(cpu.disabled);
}

TEST(Controller, HardwareRefusesEfficientCurveWithoutDisabledSet)
{
    MockCpu cpu;
    suit::os::MsrFile msrs;
    SuitController ctl(cpu, msrs, StrategyKind::CombinedFv,
                       fastSwitchParams());

    // Selecting the efficient curve before disabling the trap set
    // must fault (the Sec. 3.2 invariant).
    EXPECT_EQ(msrs.write(suit::os::MSR_SUIT_DVFS_CURVE, 1),
              suit::os::MsrWriteResult::Fault);

    // And with SUIT on, shrinking the trap set must fault.
    ctl.enable();
    EXPECT_EQ(msrs.write(suit::os::MSR_SUIT_DISABLE_OPCODE, 0),
              suit::os::MsrWriteResult::Fault);
}

TEST(Controller, DelegatesTrapsToStrategy)
{
    MockCpu cpu;
    suit::os::MsrFile msrs;
    SuitController ctl(cpu, msrs, StrategyKind::CombinedFv,
                       fastSwitchParams());
    ctl.enable();
    cpu.log.clear();

    const TrapAction a = ctl.handleDisabledOpcode(frameAt(0));
    EXPECT_FALSE(a.emulated);
    EXPECT_EQ(ctl.strategy().trapCount(), 1u);
    EXPECT_FALSE(cpu.log.empty());
}

TEST(SelectStrategy, EmulationForSparseSwitchingForBursty)
{
    const suit::power::CpuModel cpu = suit::power::cpuA_i9_9900k();
    const StrategyParams params = fastSwitchParams();

    // Sparse singleton events: emulation wins.
    std::vector<suit::trace::FaultableEvent> sparse;
    for (int i = 0; i < 10; ++i)
        sparse.push_back({1'000'000'000, suit::isa::FaultableKind::VOR});
    const suit::trace::Trace sparse_trace("sparse", 20'000'000'000ULL,
                                          1.5, sparse);
    EXPECT_EQ(selectStrategy(cpu, sparse_trace, params),
              StrategyKind::Emulation);

    // Dense AES streams: curve switching wins; fV on Intel.
    std::vector<suit::trace::FaultableEvent> dense;
    dense.push_back({5'000'000, suit::isa::FaultableKind::AESENC});
    for (int i = 0; i < 200'000; ++i)
        dense.push_back({40, suit::isa::FaultableKind::AESENC});
    const suit::trace::Trace dense_trace("dense", 20'000'000ULL + 40 *
                                                      200'000ULL + 10,
                                         1.5, dense);
    EXPECT_EQ(selectStrategy(cpu, dense_trace, params),
              StrategyKind::CombinedFv);

    // Same trace on the AMD CPU: no independent voltage control.
    EXPECT_EQ(selectStrategy(suit::power::cpuB_ryzen7700x(),
                             dense_trace, params),
              StrategyKind::Frequency);
}

} // namespace
