/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * software emulation payloads (what the OS runs on every trapped
 * instruction), trace generation, the two simulators and the
 * suit::exec parallel experiment engine.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/params.hh"
#include "emu/aes.hh"
#include "emu/dispatcher.hh"
#include "emu/simd_ops.hh"
#include "exec/sweep.hh"
#include "runtime/session.hh"
#include "exec/thread_pool.hh"
#include "sim/domain_sim.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "uarch/o3_model.hh"
#include "uarch/program.hh"
#include "util/rng.hh"

namespace {

using namespace suit;

void
BM_EmulateVor(benchmark::State &state)
{
    util::Rng rng(1);
    const emu::Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const emu::Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            emu::emulate({isa::FaultableKind::VOR, a, b, 0}));
    }
}
BENCHMARK(BM_EmulateVor);

void
BM_EmulateClmul(benchmark::State &state)
{
    util::Rng rng(2);
    const emu::Vec256 a(rng.next(), rng.next(), rng.next(), rng.next());
    const emu::Vec256 b(rng.next(), rng.next(), rng.next(), rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            emu::emulate({isa::FaultableKind::VPCLMULQDQ, a, b, 0x11}));
    }
}
BENCHMARK(BM_EmulateClmul);

void
BM_AesencReference(benchmark::State &state)
{
    emu::AesBlock s{}, k{};
    for (int i = 0; i < 16; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 17);
        k[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 31 + 5);
    }
    for (auto _ : state) {
        s = emu::aesencRound(s, k);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_AesencReference);

void
BM_AesencBitsliced(benchmark::State &state)
{
    emu::AesBlock s{}, k{};
    for (int i = 0; i < 16; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 17);
        k[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 31 + 5);
    }
    for (auto _ : state) {
        s = emu::aesencRoundBitsliced(s, k);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_AesencBitsliced);

/**
 * Trace generation over the 23 SPEC profiles, so the kind sampler
 * meets the same mixes as a SPEC sweep does; items are generated
 * events.  time_per_event is the generation cost per event (printed
 * in ns) and bytes_per_event the resident trace size per event
 * (memoryBytes(), what the trace cache charges), header and name
 * included.
 */
void
BM_TraceGenerate(benchmark::State &state)
{
    const std::vector<trace::WorkloadProfile> profiles =
        trace::specProfiles();
    std::uint64_t seed = 1;
    std::int64_t events = 0;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const trace::TraceGenerator gen(seed++);
        for (const trace::WorkloadProfile &profile : profiles) {
            const trace::Trace t = gen.generate(profile);
            benchmark::DoNotOptimize(t.events().data());
            events += static_cast<std::int64_t>(t.eventCount());
            bytes += t.memoryBytes();
        }
    }
    state.SetItemsProcessed(events);
    const double n = static_cast<double>(events);
    state.counters["time_per_event"] = benchmark::Counter(
        n, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["bytes_per_event"] =
        benchmark::Counter(static_cast<double>(bytes) / n);
}
BENCHMARK(BM_TraceGenerate)->Unit(benchmark::kMillisecond);

void
BM_DomainSimulation(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("502.gcc");
    const trace::Trace t = trace::TraceGenerator(3).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulation)->Unit(benchmark::kMillisecond);

/**
 * Same single-core SUIT simulation on the pre-optimization reference
 * event loop; BM_DomainSimulation / BM_DomainSimulationReference is
 * the fast path's speedup (tracked in BENCH_simcore.json).
 */
void
BM_DomainSimulationReference(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("502.gcc");
    const trace::Trace t = trace::TraceGenerator(3).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    cfg.referencePath = true;
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulationReference)->Unit(benchmark::kMillisecond);

/**
 * Event-dense workload (525.x264: the highest IMUL density in the
 * suite and a heavy faultable stream): long runs of consecutive
 * native events, i.e. the batched-window sweet spot.
 */
void
BM_DomainSimulationDense(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const auto &profile = trace::profileByName("525.x264");
    const trace::Trace t = trace::TraceGenerator(5).generate(profile);

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, {{&t, &profile}});
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.eventCount()));
}
BENCHMARK(BM_DomainSimulationDense)->Unit(benchmark::kMillisecond);

/**
 * CPU A's shared four-core domain: the multi-core batched window
 * (SoA hot state, per-event accumulator replay, vectorizable
 * arrival scan).  Chain-bound rather than throughput-bound — each
 * event's time feeds the next through the reference FP sequence —
 * so expect a lower rate than the single-core scenarios.
 */
void
BM_DomainSimulationShared(benchmark::State &state)
{
    const power::CpuModel cpu = power::cpuA_i9_9900k();
    const auto &profile = trace::profileByName("502.gcc");
    constexpr int kStreams = 4;
    std::vector<trace::Trace> traces;
    std::uint64_t events = 0;
    for (int s = 0; s < kStreams; ++s) {
        traces.push_back(trace::TraceGenerator(3).generate(profile, s));
        events += traces.back().eventCount();
    }
    std::vector<sim::CoreWork> work;
    for (const trace::Trace &t : traces)
        work.push_back({&t, &profile});

    sim::SimConfig cfg;
    cfg.cpu = &cpu;
    cfg.params = core::optimalParams(cpu);
    for (auto _ : state) {
        sim::DomainSimulator sim(cfg, work);
        benchmark::DoNotOptimize(sim.run().traps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DomainSimulationShared)->Unit(benchmark::kMillisecond);

void
BM_O3ModelRate(benchmark::State &state)
{
    const uarch::Program prog = uarch::ProgramGenerator(5).generate(
        uarch::specIntLikeMix(), 100'000);
    for (auto _ : state) {
        uarch::O3Model core;
        benchmark::DoNotOptimize(core.run(prog).cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(prog.insts.size()));
}
BENCHMARK(BM_O3ModelRate)->Unit(benchmark::kMillisecond);

/**
 * The Fig. 14 producer on its own: streaming 100 k spec-int-like
 * instructions in pipeline-sized chunks, without the O3 model that
 * BM_O3ModelRate times.
 */
void
BM_ProgramGeneration(benchmark::State &state)
{
    constexpr std::size_t kInsts = 100'000;
    const uarch::ProgramMix mix = uarch::specIntLikeMix();
    const uarch::ProgramGenerator gen(5);
    for (auto _ : state) {
        gen.stream(mix, kInsts, uarch::kProgramChunkInsts,
                   [](std::span<const uarch::Inst> chunk) {
                       benchmark::DoNotOptimize(chunk.data());
                   });
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kInsts));
}
BENCHMARK(BM_ProgramGeneration)->Unit(benchmark::kMillisecond);

/**
 * Trace-cache hit cost: 1408 resident keys (the fleet_1m trace count)
 * looked up at random through getMany(), one stream each, as the
 * fleet engine pins a domain's trace.  One iteration is one hit, so
 * the real time per iteration is ns per hit on each thread; Threads(4)
 * against Threads(1) shows whether concurrent hits serialise.
 */
void
BM_TraceCacheHit(benchmark::State &state)
{
    constexpr std::uint64_t kKeys = 1408;
    static const trace::WorkloadProfile profile = [] {
        trace::WorkloadProfile p = trace::profileByName("Nginx");
        p.name = "cache-hit-bench";
        p.totalInstructions = 100'000;
        return p;
    }();
    static sim::TraceCache cache;
    static const bool filled = [] {
        for (std::uint64_t seed = 0; seed < kKeys; ++seed)
            cache.get(profile, seed, 0);
        return true;
    }();
    benchmark::DoNotOptimize(filled);

    util::Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
    std::vector<std::shared_ptr<const trace::Trace>> pins;
    for (auto _ : state) {
        cache.getMany(profile, rng.next() % kKeys, 1, pins);
        benchmark::DoNotOptimize(pins.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceCacheHit)->Threads(1)->Threads(4)->UseRealTime();

/**
 * Per-job dispatch overhead of the thread pool: parallelFor over
 * trivial bodies, so wall time / items is queue + wakeup cost.
 */
void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    exec::ThreadPool pool(static_cast<int>(state.range(0)));
    constexpr std::size_t kJobs = 1024;
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        pool.parallelFor(kJobs, [&](std::size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4);

/**
 * SweepEngine scaling on a small real grid (3 workloads x 2 offsets
 * on CPU C).  The engine is rebuilt per worker count, but one warm-up
 * run outside the timed loop fills its trace cache, so the timed
 * region measures simulation + scheduling only — the speedup over
 * Arg(1) is the parallel efficiency on this machine.
 */
void
BM_SweepEngineScaling(benchmark::State &state)
{
    using exec::SweepJob;
    const power::CpuModel cpu = power::cpuC_xeon4208();
    const char *kWorkloads[] = {"557.xz", "538.imagick", "520.omnetpp"};

    std::vector<SweepJob> jobs;
    for (const char *name : kWorkloads) {
        for (double offset : {-70.0, -97.0}) {
            sim::EvalConfig cfg;
            cfg.cpu = &cpu;
            cfg.offsetMv = offset;
            cfg.params = core::optimalParams(cpu);
            jobs.push_back({name, cfg, &trace::profileByName(name)});
        }
    }

    runtime::Session session({static_cast<int>(state.range(0)), 0});
    exec::SweepEngine engine(session);
    benchmark::DoNotOptimize(engine.run(jobs).size()); // warm cache
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(jobs).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_SweepEngineScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
