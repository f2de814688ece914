#include "engines.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "exec/checkpoint.hh"
#include "exec/sweep.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "sim/result_io.hh"
#include "uarch/o3_model.hh"
#include "tracer.hh"
#include "util/format.hh"

namespace perfbench {

namespace {

suit::runtime::SessionConfig
sessionConfig(const RunEnv &env)
{
    suit::runtime::SessionConfig cfg;
    cfg.jobs = env.jobs;
    return cfg;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint64_t
digestOf(const std::string &bytes)
{
    return suit::exec::fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t
digestResults(const std::vector<suit::sim::DomainResult> &results)
{
    std::string bytes;
    for (const suit::sim::DomainResult &r : results)
        suit::sim::serializeResult(r, bytes);
    return digestOf(bytes);
}

std::uint64_t
digestCycles(const std::vector<std::uint64_t> &cycles)
{
    std::string bytes;
    for (std::uint64_t c : cycles)
        appendU64(bytes, c);
    return digestOf(bytes);
}

/**
 * Digest of a journal's records sorted by cell: record order depends
 * on which worker finished first, the contents do not.
 */
std::uint64_t
digestJournal(const std::string &path)
{
    suit::exec::JournalContents loaded =
        suit::exec::CheckpointJournal::load(path);
    std::sort(loaded.records.begin(), loaded.records.end(),
              [](const suit::exec::CellRecord &a,
                 const suit::exec::CellRecord &b) {
                  return a.index < b.index;
              });
    std::string bytes;
    appendU64(bytes, loaded.fingerprint.cells);
    for (const suit::exec::CellRecord &record : loaded.records) {
        appendU64(bytes, record.index);
        bytes.push_back(record.failed ? 1 : 0);
        suit::sim::serializeResult(record.result, bytes);
    }
    return digestOf(bytes);
}

/** digestJournal()'s value for a journal holding @p results. */
std::uint64_t
digestJournalOf(const std::vector<suit::sim::DomainResult> &results)
{
    std::string bytes;
    appendU64(bytes, results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        appendU64(bytes, i);
        bytes.push_back(0);
        suit::sim::serializeResult(results[i], bytes);
    }
    return digestOf(bytes);
}

/** SPEC gmean efficiency delta over every cell, in percent. */
double
gmeanEffPct(const std::vector<suit::sim::DomainResult> &results)
{
    std::vector<double> eff;
    eff.reserve(results.size());
    for (const suit::sim::DomainResult &r : results)
        eff.push_back(r.efficiencyDelta());
    return 100.0 * suit::sim::gmeanDelta(eff);
}

Iteration
runFleet(std::uint64_t seed, const Size &size, const RunEnv &env)
{
    const std::string text = fleetSpecText(seed, size.fleetDomains);
    Iteration it;
    const auto t0 = Clock::now();
    suit::fleet::FleetSpec spec = suit::fleet::FleetSpec::parse(text);
    suit::runtime::Session session(sessionConfig(env));
    suit::fleet::FleetEngine engine(session, std::move(spec));
    const auto t1 = Clock::now();

    const suit::fleet::FleetOutcome outcome = engine.run();
    const std::string report =
        suit::fleet::renderReportJson(engine.spec(), outcome.totals);
    it.out = fleetOutputs(report, engine.spec().totalDomains(),
                          outcome.totals.totalDomains());
    const auto t2 = Clock::now();
    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    return it;
}

Iteration
runSweep(Workload w, std::uint64_t seed, const Size &size,
         const RunEnv &env)
{
    const std::unique_ptr<SweepGrid> grid =
        buildSweepGrid(w, seed, size);
    const std::vector<suit::exec::SweepJob> &jobs = grid->jobs;
    const bool journaled = w == Workload::SweepJournaled;
    Iteration it;
    const auto t0 = Clock::now();
    suit::runtime::Session session(sessionConfig(env));
    suit::exec::SweepEngine engine(session);
    const auto t1 = Clock::now();

    auto resume_start = t1;
    suit::exec::SweepOutcome outcome;
    if (!journaled) {
        suit::runtime::RunContext ctx;
        outcome = engine.run(jobs, ctx);
    } else {
        // First pass: journal every cell, stop through the run's
        // cancel token after half of them (an interrupted campaign).
        suit::runtime::RunContext first;
        first.checkpoint.path = env.journalPath;
        first.checkpoint.flushInterval = kJournalFlushEvery;
        std::atomic<std::size_t> done{0};
        const std::size_t stop_at = jobs.size() / 2;
        suit::exec::RunPolicy stop_half;
        stop_half.onCellDone = [&](std::size_t) {
            if (done.fetch_add(1) + 1 >= stop_at)
                first.token().cancel();
        };
        engine.run(jobs, first, stop_half);

        // Second pass: resume from the journal to completion.
        resume_start = Clock::now();
        suit::runtime::RunContext second;
        second.checkpoint.path = env.journalPath;
        second.checkpoint.resume = true;
        second.checkpoint.flushInterval = kJournalFlushEvery;
        outcome = engine.run(jobs, second);
    }

    it.out = sweepOutputs(w, outcome.results, outcome.done,
                          env.journalPath);
    const auto t2 = Clock::now();
    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    it.time.resumeS = journaled ? secondsBetween(resume_start, t2) : 0.0;
    return it;
}

Iteration
runO3(std::uint64_t seed, const Size &size)
{
    Iteration it;
    const auto t0 = Clock::now();
    const std::vector<suit::uarch::ProgramMix> mixes =
        suit::uarch::figure14Mixes();
    const auto t1 = Clock::now();

    std::vector<std::uint64_t> cycles;
    std::uint64_t instructions = 0;
    for (int lat : o3Latencies()) {
        for (const suit::uarch::ProgramMix &mix : mixes) {
            const suit::uarch::CoreStats stats =
                suit::uarch::runMixAtImulLatency(
                    mix, size.o3Instructions, lat, seed);
            cycles.push_back(stats.cycles);
            instructions += stats.instructions;
        }
    }

    it.out = o3Outputs(mixes, cycles, instructions);
    const auto t2 = Clock::now();
    it.time.setupS = secondsBetween(t0, t1);
    it.time.wallS = secondsBetween(t0, t2);
    return it;
}

} // namespace

Iteration
runEngines(Workload w, std::uint64_t seed, const Size &size,
           const RunEnv &env)
{
    switch (w) {
    case Workload::Fleet1m:
        return runFleet(seed, size, env);
    case Workload::SweepCold:
    case Workload::SweepJournaled:
        return runSweep(w, seed, size, env);
    case Workload::O3Imul:
        break;
    }
    return runO3(seed, size);
}

double
setupOnly(Workload w, std::uint64_t seed, const Size &size,
          const RunEnv &env)
{
    switch (w) {
    case Workload::Fleet1m: {
        const std::string text = fleetSpecText(seed, size.fleetDomains);
        const auto t0 = Clock::now();
        suit::fleet::FleetSpec spec = suit::fleet::FleetSpec::parse(text);
        suit::runtime::Session session(sessionConfig(env));
        suit::fleet::FleetEngine engine(session, std::move(spec));
        return secondsBetween(t0, Clock::now());
    }
    case Workload::SweepCold:
    case Workload::SweepJournaled: {
        const auto t0 = Clock::now();
        suit::runtime::Session session(sessionConfig(env));
        suit::exec::SweepEngine engine(session);
        return secondsBetween(t0, Clock::now());
    }
    case Workload::O3Imul:
        break;
    }
    const auto t0 = Clock::now();
    const std::vector<suit::uarch::ProgramMix> mixes =
        suit::uarch::figure14Mixes();
    return secondsBetween(t0, Clock::now());
}

Outputs
fleetOutputs(const std::string &report, std::uint64_t domains,
             std::uint64_t accumulated)
{
    const suit::obs::CheckResult check =
        suit::fleet::checkReportJson(report);
    Outputs out;
    out.units = domains;
    out.failedUnits = domains - std::min(domains, accumulated);
    out.digest = digestOf(report);
    out.checksOk = check.ok;
    if (!check.ok)
        out.problem = "fleet report: " + check.error;
    out.headlinePct = std::numeric_limits<double>::quiet_NaN();
    return out;
}

Outputs
sweepOutputs(Workload w,
             const std::vector<suit::sim::DomainResult> &results,
             const std::vector<std::uint8_t> &done,
             const std::string &journal_path)
{
    Outputs out;
    out.units = results.size();
    out.failedUnits =
        static_cast<std::uint64_t>(std::count(done.begin(), done.end(), 0));
    out.digest = digestResults(results);
    out.headlinePct = std::numeric_limits<double>::quiet_NaN();
    if (w == Workload::SweepCold)
        out.headlinePct = gmeanEffPct(results);
    if (w == Workload::SweepJournaled &&
        digestJournal(journal_path) != digestJournalOf(results)) {
        out.checksOk = false;
        out.problem = "journal records differ from the results";
    }
    return out;
}

Outputs
o3Outputs(const std::vector<suit::uarch::ProgramMix> &mixes,
          const std::vector<std::uint64_t> &cycles,
          std::uint64_t instructions)
{
    Outputs out;
    out.units = instructions;
    out.digest = digestCycles(cycles);
    out.headlinePct = std::numeric_limits<double>::quiet_NaN();
    const std::size_t n = mixes.size();
    for (std::size_t m = 0; m < n; ++m) {
        if (mixes[m].name == "x264-like")
            out.headlinePct =
                100.0 * (static_cast<double>(cycles[2 * n + m]) /
                             static_cast<double>(cycles[m]) -
                         1.0);
    }
    return out;
}

} // namespace perfbench
