#include "replica.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "core/params.hh"
#include "exec/checkpoint.hh"
#include "exec/sweep.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "runtime/cancel.hh"
#include "runtime/session.hh"
#include "sim/domain_sim.hh"
#include "sim/trace_cache.hh"
#include "sim/workspace.hh"
#include "tracer.hh"
#include "uarch/o3_model.hh"

namespace perfbench {

namespace {

using suit::sim::SimWorkspace;
using suit::sim::TraceCache;

/** What the layer metrics need beyond the tracer's spans. */
struct Facts
{
    double workS = 0.0; //!< wall - setup of the iteration
    std::vector<suit::exec::WorkerStats> workers;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::size_t cacheResidentBytes = 0;
    std::uint64_t journalBytesWritten = 0;
    std::uint64_t journalFinalBytes = 0;
    std::uint64_t o3Instructions = 0;
    std::uint64_t o3Cycles = 0;
    std::size_t programsDistinct = 0;
};

/**
 * Bytes this process has passed to write(2) so far (/proc/self/io
 * "wchar"); 0 where the file does not exist.
 */
std::uint64_t
writtenBytes()
{
    std::ifstream io("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value) {
        if (key == "wchar:")
            return value;
    }
    return 0;
}

void
record(Tracer &tr, const char *name, const char *layer,
       Clock::time_point a, Clock::time_point b, std::uint64_t index = 0)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.startUs = tr.usAt(a);
    s.durUs = tr.usAt(b) - s.startUs;
    s.index = index;
    tr.add(s);
}

int
slotsFor(const RunEnv &env)
{
    return std::max(env.jobs, 1) + 1;
}

/**
 * TraceCache::getMany into @p ws.pinned.  A call counts as a miss
 * when the cache's miss counter advanced during it; that is exact
 * unless another thread finished generating a trace inside the same
 * window.  A miss gets a span; a hit is folded.  Returns the
 * nanoseconds to fold into the caller's span (0 for a miss).
 */
std::uint64_t
timedLookup(Tracer &tr, TraceCache &cache,
            const suit::trace::WorkloadProfile &profile,
            std::uint64_t seed, int streams, SimWorkspace &ws,
            std::uint64_t index)
{
    Folded &f = tr.folded();
    const std::uint64_t misses_before = cache.misses();
    const auto a = Clock::now();
    cache.getMany(profile, seed, streams, ws.pinned);
    const auto b = Clock::now();
    const std::uint64_t ns = nsBetween(a, b);
    f.lookups += static_cast<std::uint64_t>(streams);
    if (cache.misses() != misses_before) {
        f.missNs += static_cast<double>(ns);
        for (const auto &pin : ws.pinned)
            f.missEvents += pin->eventCount();
        record(tr, "sim.trace_cache.miss", "sim", a, b, index);
        return 0;
    }
    ++f.hitCalls;
    f.hitNs += static_cast<double>(ns);
    f.hitHist.add(ns);
    return ns;
}

/** DomainSimulator::reset + runInto on @p ws; returns nanoseconds. */
std::uint64_t
timedSim(Tracer &tr, SimWorkspace &ws, const suit::sim::SimConfig &cfg)
{
    const auto a = Clock::now();
    ws.sim.reset(cfg, ws.work);
    ws.sim.runInto(ws.result);
    const std::uint64_t ns = nsBetween(a, Clock::now());
    Folded &f = tr.folded();
    ++f.simCalls;
    f.simNs += static_cast<double>(ns);
    f.simHist.add(ns);
    for (const auto &pin : ws.pinned)
        f.events += pin->eventCount();
    return ns;
}

void
bindWork(SimWorkspace &ws, const suit::trace::WorkloadProfile &profile,
         int streams)
{
    ws.work.clear();
    for (int s = 0; s < streams; ++s)
        ws.work.push_back(
            {ws.pinned[static_cast<std::size_t>(s)].get(), &profile});
}

void
parallelFor(suit::runtime::Session &session, Tracer &tr, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    const auto a = Clock::now();
    if (suit::exec::ThreadPool *pool = session.pool()) {
        pool->parallelFor(n, body);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
    }
    record(tr, "exec.parallel_for", "exec", a, Clock::now(), n);
}

double
spanSeconds(const Tracer &tr, const char *name)
{
    double us = 0.0;
    for (const Span &s : tr.spansNamed(name))
        us += s.durUs;
    return 1e-6 * us;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::map<std::string, double>
layerMetrics(const Tracer &tr, const Facts &facts)
{
    std::map<std::string, double> m;
    m["runtime.session_setup_s"] =
        spanSeconds(tr, "runtime.session_setup");

    const Folded f = tr.totalFolded();
    m["fleet.spec_resolve_s"] = spanSeconds(tr, "fleet.spec_resolve");
    m["fleet.expand_ns_per_domain"] =
        ratio(f.expandNs, static_cast<double>(f.expanded));
    m["fleet.accumulate_ns_per_domain"] =
        ratio(f.accumulateNs, static_cast<double>(f.accumulated));
    m["fleet.merge_s"] = spanSeconds(tr, "fleet.merge");
    m["fleet.render_s"] = spanSeconds(tr, "fleet.render");

    const double hits = static_cast<double>(facts.cacheHits);
    m["sim.trace_cache.lookups"] = static_cast<double>(f.lookups);
    m["sim.trace_cache.hit_ratio"] =
        ratio(hits, hits + static_cast<double>(facts.cacheMisses));
    m["sim.trace_cache.evictions"] =
        static_cast<double>(facts.cacheEvictions);
    m["sim.trace_cache.resident_mb"] =
        static_cast<double>(facts.cacheResidentBytes) / (1024.0 * 1024.0);
    m["sim.trace_cache.hit_ns"] =
        ratio(f.hitNs, static_cast<double>(f.hitCalls));
    m["sim.trace_cache.hit_ns_p99"] = f.hitHist.quantileNs(0.99);
    m["sim.trace_cache.miss_s"] = 1e-9 * f.missNs;
    m["sim.trace_cache.miss_ns_per_event"] =
        ratio(f.missNs, static_cast<double>(f.missEvents));
    m["sim.domain.calls"] = static_cast<double>(f.simCalls);
    m["sim.domain.busy_s"] = 1e-9 * f.simNs;
    m["sim.domain.ns_per_event"] =
        ratio(f.simNs, static_cast<double>(f.events));
    m["sim.domain.us_p50"] = 1e-3 * f.simHist.quantileNs(0.50);
    m["sim.domain.us_p99"] = 1e-3 * f.simHist.quantileNs(0.99);
    m["sim.events"] = static_cast<double>(f.events);

    double busy = 0.0;
    double wait = 0.0;
    double max_busy = 0.0;
    for (const suit::exec::WorkerStats &w : facts.workers) {
        busy += w.busyS;
        wait += w.queueWaitS;
        max_busy = std::max(max_busy, w.busyS);
    }
    const double workers = static_cast<double>(facts.workers.size());
    m["exec.pool.busy_s"] = busy;
    m["exec.pool.queue_wait_s"] = wait;
    m["exec.pool.utilization"] = ratio(busy, workers * facts.workS);
    m["exec.pool.imbalance"] = ratio(max_busy, ratio(busy, workers));

    const std::vector<Span> appends =
        tr.spansNamed("exec.journal.append");
    std::vector<double> append_ms;
    double append_us = 0.0;
    for (const Span &s : appends) {
        append_ms.push_back(1e-3 * s.durUs);
        append_us += s.durUs;
    }
    m["exec.journal.appends"] = static_cast<double>(appends.size());
    m["exec.journal.append_busy_s"] = 1e-6 * append_us;
    m["exec.journal.append_ms_p50"] = quantile(append_ms, 0.50);
    m["exec.journal.append_ms_p99"] = quantile(append_ms, 0.99);
    m["exec.journal.append_wait_s"] =
        1e-6 * (append_us - unionUs(appends));
    m["exec.journal.bytes_written"] =
        static_cast<double>(facts.journalBytesWritten);
    m["exec.journal.write_amplification"] =
        ratio(static_cast<double>(facts.journalBytesWritten),
              static_cast<double>(facts.journalFinalBytes));
    m["exec.journal.load_s"] = spanSeconds(tr, "exec.journal.load");
    m["exec.journal.restore_s"] =
        spanSeconds(tr, "exec.journal.restore");

    const std::vector<Span> gens = tr.spansNamed("uarch.program_gen");
    m["uarch.program_gen.calls"] = static_cast<double>(gens.size());
    m["uarch.program_gen.busy_s"] = spanSeconds(tr, "uarch.program_gen");
    m["uarch.program_gen.distinct_ratio"] =
        ratio(static_cast<double>(facts.programsDistinct),
              static_cast<double>(gens.size()));
    const double o3_s = spanSeconds(tr, "uarch.o3");
    m["uarch.o3.busy_s"] = o3_s;
    m["uarch.o3.inst_per_s"] =
        ratio(static_cast<double>(facts.o3Instructions), o3_s);
    m["uarch.o3.ipc"] = ratio(static_cast<double>(facts.o3Instructions),
                              static_cast<double>(facts.o3Cycles));

    std::map<std::string, double> self = tr.selfSecondsByLayer();
    for (const char *layer :
         {"bench", "runtime", "fleet", "sim", "exec", "uarch"})
        m[std::string(layer) + ".self_s"] = self[layer];
    return m;
}

// ---------------------------------------------------------------- fleet

struct ReplicaRack
{
    std::unique_ptr<suit::power::CpuModel> cpu;
    suit::core::StrategyParams params;
    std::vector<suit::trace::WorkloadProfile> profiles;
    int streams = 1;
    double basePowerW = 0.0;
};

suit::power::CpuModel
cpuModelNamed(const std::string &name)
{
    if (name == "A")
        return suit::power::cpuA_i9_9900k();
    if (name == "B")
        return suit::power::cpuB_ryzen7700x();
    if (name == "i5")
        return suit::power::cpu_i5_1035g1();
    return suit::power::cpuC_xeon4208();
}

/** The per-rack state FleetEngine's constructor resolves. */
std::vector<ReplicaRack>
resolveRacks(const suit::fleet::FleetEngine &engine)
{
    const suit::fleet::FleetSpec &spec = engine.spec();
    std::vector<ReplicaRack> racks;
    for (std::size_t r = 0; r < spec.racks.size(); ++r) {
        const suit::fleet::RackSpec &rack = spec.racks[r];
        ReplicaRack rr;
        rr.cpu = std::make_unique<suit::power::CpuModel>(
            cpuModelNamed(rack.cpu));
        rr.params = suit::core::optimalParams(*rr.cpu);
        rr.streams = rr.cpu->domains() ==
                             suit::power::DomainLayout::SharedAll
                         ? rack.cores
                         : 1;
        rr.basePowerW = engine.domainBasePowerW(r);
        for (const suit::fleet::TenantMix &mix : rack.workloads) {
            suit::trace::WorkloadProfile profile =
                suit::trace::profileByName(mix.workload);
            profile.totalInstructions = std::max<std::uint64_t>(
                1000000, static_cast<std::uint64_t>(
                             static_cast<double>(
                                 profile.totalInstructions) *
                             spec.traceScale));
            rr.profiles.push_back(std::move(profile));
        }
        racks.push_back(std::move(rr));
    }
    return racks;
}

TracedIteration
replicaFleet(std::uint64_t seed, const Size &size, const RunEnv &env,
             bool perturb)
{
    const std::string text = fleetSpecText(seed, size.fleetDomains);
    TracedIteration it;
    Tracer tr(slotsFor(env));

    const auto t0 = Clock::now();
    suit::fleet::FleetSpec parsed = suit::fleet::FleetSpec::parse(text);
    const auto t_parsed = Clock::now();
    suit::runtime::SessionConfig scfg;
    scfg.jobs = env.jobs;
    suit::runtime::Session session(scfg);
    const auto t_session = Clock::now();
    suit::fleet::FleetEngine engine(session, std::move(parsed));
    const std::vector<ReplicaRack> racks = resolveRacks(engine);
    const auto t1 = Clock::now();
    record(tr, "runtime.session_setup", "runtime", t_parsed, t_session);
    record(tr, "fleet.spec_resolve", "fleet", t0, t_parsed);
    record(tr, "fleet.spec_resolve", "fleet", t_session, t1);

    const suit::fleet::FleetSpec &spec = engine.spec();
    TraceCache &cache = session.traceCache();
    const std::uint64_t domains = spec.totalDomains();
    const std::uint64_t shard_size =
        suit::fleet::FleetEngine::kDefaultShardSize;
    const std::uint64_t shards = (domains + shard_size - 1) / shard_size;
    std::vector<std::optional<suit::fleet::FleetAccumulator>> slots(
        shards);
    const suit::runtime::CancelToken never;

    parallelFor(session, tr, shards, [&](std::size_t shard) {
        ScopedSpan span(tr, "fleet.shard", "fleet", shard);
        Folded &f = tr.folded();
        const std::uint64_t first = shard * shard_size;
        const std::uint64_t count = std::min(shard_size, domains - first);

        thread_local std::vector<suit::fleet::DomainConfig> block;
        const auto e0 = Clock::now();
        block.clear();
        block.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            block.push_back(spec.domainAt(first + i));
        f.expandNs += static_cast<double>(nsBetween(e0, Clock::now()));
        f.expanded += count;
        if (perturb && shard == 0)
            block[0].simSeed ^= 1;

        suit::fleet::FleetAccumulator acc(spec.racks.size());
        SimWorkspace &ws = session.workspace();
        std::uint64_t folded_ns = 0;
        for (const suit::fleet::DomainConfig &config : block) {
            const ReplicaRack &rack = racks[config.rack];
            const suit::trace::WorkloadProfile &profile =
                rack.profiles[config.workload];
            folded_ns += timedLookup(tr, cache, profile,
                                     config.traceSeed, rack.streams, ws,
                                     shard);
            bindWork(ws, profile, rack.streams);

            suit::sim::SimConfig sim_cfg;
            sim_cfg.cpu = rack.cpu.get();
            sim_cfg.offsetMv = config.offsetMv;
            sim_cfg.mode = suit::sim::RunMode::Suit;
            sim_cfg.strategy =
                spec.racks[config.rack].strategies[config.strategy];
            sim_cfg.params = rack.params;
            sim_cfg.seed = config.simSeed;
            sim_cfg.cancel = &never;
            folded_ns += timedSim(tr, ws, sim_cfg);

            const auto a0 = Clock::now();
            acc.addDomain(config.rack, rack.basePowerW, ws.result);
            f.accumulateNs +=
                static_cast<double>(nsBetween(a0, Clock::now()));
            ++f.accumulated;
        }
        span.addFoldedSim(1e-3 * static_cast<double>(folded_ns));
        slots[shard] = std::move(acc);
    });

    const auto m0 = Clock::now();
    suit::fleet::FleetAccumulator totals(spec.racks.size());
    for (std::optional<suit::fleet::FleetAccumulator> &slot : slots) {
        if (slot.has_value())
            totals.merge(*slot);
    }
    const auto m1 = Clock::now();
    record(tr, "fleet.merge", "fleet", m0, m1);
    const std::string report = suit::fleet::renderReportJson(spec, totals);
    record(tr, "fleet.render", "fleet", m1, Clock::now());

    it.out = fleetOutputs(report, domains, totals.totalDomains());
    const auto t2 = Clock::now();
    record(tr, "workload", "bench", t0, t2);

    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    Facts facts;
    facts.workS = it.time.wallS - it.time.setupS;
    facts.workers = session.workerStats();
    facts.cacheHits = cache.hits();
    facts.cacheMisses = cache.misses();
    facts.cacheEvictions = cache.evictions();
    facts.cacheResidentBytes = cache.residentBytes();
    it.layers = layerMetrics(tr, facts);
    it.chromeJson = tr.chromeJson();
    return it;
}

// --------------------------------------------------------------- sweeps

TracedIteration
replicaSweep(Workload w, std::uint64_t seed, const Size &size,
             const RunEnv &env, bool perturb)
{
    const std::unique_ptr<SweepGrid> grid = buildSweepGrid(w, seed, size);
    const std::vector<suit::exec::SweepJob> &jobs = grid->jobs;
    const std::size_t n = jobs.size();
    const bool journaled = w == Workload::SweepJournaled;
    TracedIteration it;
    Tracer tr(slotsFor(env));

    const auto t0 = Clock::now();
    suit::runtime::SessionConfig scfg;
    scfg.jobs = env.jobs;
    suit::runtime::Session session(scfg);
    const auto t1 = Clock::now();
    record(tr, "runtime.session_setup", "runtime", t0, t1);
    TraceCache &cache = session.traceCache();

    std::vector<suit::sim::DomainResult> results(n);
    std::vector<std::uint8_t> done(n, 0);

    // One pass of SweepEngine::runCells' cell loop: skip restored
    // cells, stop on the token, journal each finished cell, and trip
    // the token after @p stop_at cells (0 = never).
    const auto runPass = [&](suit::exec::CheckpointJournal *journal,
                             suit::runtime::CancelToken &token,
                             std::size_t stop_at) {
        std::atomic<std::size_t> completed{0};
        parallelFor(session, tr, n, [&](std::size_t i) {
            if (done[i] || token.cancelled())
                return;
            ScopedSpan cell(tr, "exec.cell", "exec", i);
            suit::sim::EvalConfig config = jobs[i].config;
            if (perturb && i == 0)
                config.seed ^= 1;
            const suit::trace::WorkloadProfile &profile = *jobs[i].profile;
            const int streams = config.cpu->domains() ==
                                        suit::power::DomainLayout::SharedAll
                                    ? config.cores
                                    : 1;
            SimWorkspace &ws = session.workspace();
            std::uint64_t folded_ns = timedLookup(
                tr, cache, profile, config.seed, streams, ws, i);
            bindWork(ws, profile, streams);

            suit::sim::SimConfig sim_cfg;
            sim_cfg.cpu = config.cpu;
            sim_cfg.offsetMv = config.offsetMv;
            sim_cfg.mode = config.mode;
            sim_cfg.strategy = config.strategy;
            sim_cfg.params = config.params;
            sim_cfg.seed = config.seed * 7919 + 17;
            sim_cfg.cancel = &token;
            try {
                folded_ns += timedSim(tr, ws, sim_cfg);
            } catch (const suit::runtime::Cancelled &) {
                return; // aborted mid-cell: skipped, never journaled
            }
            cell.addFoldedSim(1e-3 * static_cast<double>(folded_ns));
            results[i] = ws.result;
            done[i] = 1;
            if (journal != nullptr) {
                ScopedSpan append(tr, "exec.journal.append", "exec", i);
                journal->append({i, false, "", results[i], false, ""});
            }
            if (stop_at != 0 && completed.fetch_add(1) + 1 >= stop_at)
                token.cancel();
        });
        if (journal != nullptr) {
            ScopedSpan flush(tr, "exec.journal.flush", "exec");
            journal->flush();
        }
    };

    auto resume_start = t1;
    bool fingerprint_ok = true;
    Facts facts;
    if (!journaled) {
        suit::runtime::CancelToken token;
        runPass(nullptr, token, 0);
    } else {
        const std::uint64_t written_before = writtenBytes();
        const suit::exec::GridFingerprint fp =
            suit::exec::fingerprintJobs(jobs);
        {
            suit::exec::CheckpointJournal journal;
            {
                ScopedSpan start(tr, "exec.journal.start", "exec");
                journal.start(env.journalPath, fp);
                journal.setFlushInterval(kJournalFlushEvery);
            }
            suit::runtime::CancelToken token;
            runPass(&journal, token, n / 2);
        }
        // The resume pass restores every result from the journal.
        results.assign(n, {});
        done.assign(n, 0);
        resume_start = Clock::now();
        {
            suit::exec::JournalContents loaded;
            {
                ScopedSpan load(tr, "exec.journal.load", "exec");
                loaded = suit::exec::CheckpointJournal::load(
                    env.journalPath);
            }
            fingerprint_ok = loaded.fingerprint == fp;
            suit::exec::CheckpointJournal journal;
            {
                ScopedSpan restore(tr, "exec.journal.restore", "exec");
                for (suit::exec::CellRecord &record : loaded.records) {
                    if (record.failed || record.index >= n ||
                        done[record.index])
                        continue;
                    results[record.index] = std::move(record.result);
                    done[record.index] = 1;
                }
                std::vector<suit::exec::CellRecord> seed_records;
                for (std::size_t i = 0; i < n; ++i) {
                    if (done[i])
                        seed_records.push_back(
                            {i, false, "", results[i], false, ""});
                }
                journal.start(env.journalPath, fp,
                              std::move(seed_records));
                journal.setFlushInterval(kJournalFlushEvery);
            }
            suit::runtime::CancelToken token;
            runPass(&journal, token, 0);
        }
        facts.journalBytesWritten = writtenBytes() - written_before;
        facts.journalFinalBytes = static_cast<std::uint64_t>(
            std::filesystem::file_size(env.journalPath));
    }

    it.out = sweepOutputs(w, results, done, env.journalPath);
    if (!fingerprint_ok) {
        it.out.checksOk = false;
        it.out.problem = "journal fingerprint mismatch";
    }
    const auto t2 = Clock::now();
    record(tr, "workload", "bench", t0, t2);

    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    it.time.resumeS = journaled ? secondsBetween(resume_start, t2) : 0.0;
    facts.workS = it.time.wallS - it.time.setupS;
    facts.workers = session.workerStats();
    facts.cacheHits = cache.hits();
    facts.cacheMisses = cache.misses();
    facts.cacheEvictions = cache.evictions();
    facts.cacheResidentBytes = cache.residentBytes();
    it.layers = layerMetrics(tr, facts);
    it.chromeJson = tr.chromeJson();
    return it;
}

// ------------------------------------------------------------------ o3

TracedIteration
replicaO3(std::uint64_t seed, const Size &size, bool perturb)
{
    TracedIteration it;
    Tracer tr(1);
    const auto t0 = Clock::now();
    const std::vector<suit::uarch::ProgramMix> mixes =
        suit::uarch::figure14Mixes();
    const auto t1 = Clock::now();

    // uarch::runMixAtImulLatency, unrolled: a fresh O3Model at the
    // latency and a freshly generated program per run.
    Facts facts;
    std::set<std::string> distinct;
    std::vector<std::uint64_t> cycles;
    std::uint64_t run = 0;
    for (int lat : o3Latencies()) {
        for (const suit::uarch::ProgramMix &mix : mixes) {
            const std::uint64_t program_seed =
                perturb && run == 0 ? seed ^ 1 : seed;
            suit::uarch::CoreConfig cfg;
            cfg.setImulLatency(lat);
            const auto a = Clock::now();
            suit::uarch::O3Model core(cfg);
            const auto b = Clock::now();
            const suit::uarch::Program program =
                suit::uarch::ProgramGenerator(program_seed)
                    .generate(mix, size.o3Instructions);
            const auto c = Clock::now();
            const suit::uarch::CoreStats stats = core.run(program);
            const auto d = Clock::now();
            record(tr, "uarch.o3", "uarch", a, b, run);
            record(tr, "uarch.program_gen", "uarch", b, c, run);
            record(tr, "uarch.o3", "uarch", c, d, run);
            distinct.insert(mix.name + "/" + std::to_string(program_seed) +
                            "/" + std::to_string(size.o3Instructions));
            cycles.push_back(stats.cycles);
            facts.o3Instructions += stats.instructions;
            facts.o3Cycles += stats.cycles;
            ++run;
        }
    }

    it.out = o3Outputs(mixes, cycles, facts.o3Instructions);
    const auto t2 = Clock::now();
    record(tr, "workload", "bench", t0, t2);

    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    facts.workS = it.time.wallS - it.time.setupS;
    facts.programsDistinct = distinct.size();
    it.layers = layerMetrics(tr, facts);
    it.chromeJson = tr.chromeJson();
    return it;
}

} // namespace

TracedIteration
runReplica(Workload w, std::uint64_t seed, const Size &size,
           const RunEnv &env, bool perturb)
{
    switch (w) {
    case Workload::Fleet1m:
        return replicaFleet(seed, size, env, perturb);
    case Workload::SweepCold:
    case Workload::SweepJournaled:
        return replicaSweep(w, seed, size, env, perturb);
    case Workload::O3Imul:
        break;
    }
    return replicaO3(seed, size, perturb);
}

} // namespace perfbench
