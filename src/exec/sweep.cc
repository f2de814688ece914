#include "exec/sweep.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <mutex>

#include "obs/flight.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "runtime/resumable.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace suit::exec {

using suit::sim::DomainResult;
using suit::sim::EvalConfig;

namespace {

std::string
describeException(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

SweepEngine::SweepEngine(suit::runtime::Session &session)
    : session_(session)
{
}

SweepEngine::~SweepEngine() = default;

int
SweepEngine::jobs() const
{
    return session_.jobs();
}

std::vector<DomainResult>
SweepEngine::run(const std::vector<SweepJob> &jobs)
{
    suit::runtime::RunContext ctx;
    RunPolicy fail_fast;
    fail_fast.strict = true;
    return run(jobs, ctx, fail_fast).results;
}

SweepOutcome
SweepEngine::run(const std::vector<SweepJob> &jobs,
                 suit::runtime::RunContext &ctx,
                 const RunPolicy &policy)
{
    const auto cell = [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        SUIT_ASSERT(job.profile != nullptr,
                    "sweep job %zu ('%s') has no workload", i,
                    job.label.c_str());
        EvalConfig config = job.config;
        config.cancel = &ctx.token();
        // Evaluate in the worker's session workspace (simulator and
        // scratch reused across cells); the copy out is the cell's
        // only steady-state allocation, and the journal/outcome need
        // an owning result anyway.
        return DomainResult(suit::sim::runWorkload(
            config, *job.profile, session_.traceCache(),
            session_.workspace()));
    };
    SweepOutcome outcome = runCells(jobs.size(), cell, ctx, policy,
                                    fingerprintJobs(jobs));
    for (CellFailure &failure : outcome.failures)
        failure.label = jobs[failure.index].label;
    return outcome;
}

SweepOutcome
SweepEngine::runCells(
    std::size_t n,
    const std::function<suit::sim::DomainResult(std::size_t)> &cell,
    suit::runtime::RunContext &ctx, const RunPolicy &policy,
    const GridFingerprint &fingerprint)
{
    SUIT_ASSERT(policy.retries >= 0, "negative retry count %d",
                policy.retries);
    SweepOutcome out;
    out.results.resize(n);
    out.done.assign(n, 0);

    std::atomic<std::uint64_t> retried{0};
    std::mutex failures_mu;
    std::vector<CellFailure> failures;

    // Latched by the RunContext at its construction: workers observe
    // the same session, so pool and serial mode trace identically.
    obs::TraceSession *const trace = ctx.trace();
    // Without a journal the record is dropped unread: skip its copy.
    const bool journaled = !ctx.checkpoint.path.empty();

    const auto runOne = [&](std::size_t i) {
        obs::FlightSpan span("sweep.cell", "exec");
        const double cell_start = trace ? trace->hostNowUs() : 0.0;
        const int attempts = policy.retries + 1;
        int attempts_made = 0;
        std::exception_ptr error;
        for (int attempt = 0; attempt < attempts; ++attempt) {
            if (attempt > 0)
                retried.fetch_add(1, std::memory_order_relaxed);
            ++attempts_made;
            try {
                out.results[i] = cell(i);
                out.done[i] = 1;
                error = nullptr;
                break;
            } catch (const suit::runtime::Cancelled &) {
                throw; // skipped by the run core, never retried
            } catch (...) {
                error = std::current_exception();
            }
        }
        if (trace) {
            const int track = trace->threadTrack("main");
            const double now_us = trace->hostNowUs();
            trace->complete(
                obs::TraceSession::kHostPid, track, cell_start,
                now_us - cell_start, "cell", "sweep",
                {{"index", static_cast<std::uint64_t>(i)},
                 {"attempts", attempts_made},
                 {"ok", error ? 0 : 1}});
        }
        CellRecord record;
        record.index = i;
        if (error) {
            if (policy.strict)
                std::rethrow_exception(error);
            record.failed = true;
            record.error = describeException(error);
            std::lock_guard lock(failures_mu);
            failures.push_back({i, "", record.error, attempts});
        } else if (journaled) {
            record.result = out.results[i];
        }
        if (policy.onCellDone)
            policy.onCellDone(i);
        return record;
    };
    // Only DomainResult records belong to a sweep journal; anything
    // else (a fleet blob) is rejected and the cell re-runs.
    const auto restore = [&](const CellRecord &record) {
        if (record.isBlob)
            return false;
        out.results[record.index] = record.result;
        out.done[record.index] = 1;
        return true;
    };

    const suit::runtime::ResumableCounts counts =
        suit::runtime::runResumable(
            session_, ctx,
            {n, fingerprint, "grid", "cell", runOne, restore});

    std::sort(failures.begin(), failures.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.index < b.index;
              });
    out.failures = std::move(failures);
    out.executed = counts.executed - out.failures.size();
    out.restored = counts.restored;
    out.skipped = counts.skipped;
    out.interrupted = counts.interrupted;

    obs::Registry &reg = obs::metrics();
    if (reg.enabled()) {
        reg.add(reg.counter("sweep.cells.executed"), out.executed);
        reg.add(reg.counter("sweep.cells.restored"), out.restored);
        reg.add(reg.counter("sweep.cells.skipped"), out.skipped);
        reg.add(reg.counter("sweep.cells.failed"),
                out.failures.size());
        reg.add(reg.counter("sweep.cells.retries"), retried.load());
    }
    return out;
}

GridFingerprint
fingerprintJobs(const std::vector<SweepJob> &jobs)
{
    std::uint64_t hash = fnv1a64(nullptr, 0);
    const auto mix_u64 = [&](std::uint64_t v) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] =
                static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        hash = fnv1a64(bytes, sizeof(bytes), hash);
    };
    const auto mix_double = [&](double d) {
        mix_u64(std::bit_cast<std::uint64_t>(d));
    };
    const auto mix_string = [&](const std::string &s) {
        mix_u64(s.size());
        hash = fnv1a64(s.data(), s.size(), hash);
    };

    for (const SweepJob &job : jobs) {
        const EvalConfig &cfg = job.config;
        mix_string(job.label);
        mix_string(cfg.cpu != nullptr ? cfg.cpu->name() : "");
        mix_string(cfg.cpu != nullptr ? cfg.cpu->label() : "");
        mix_u64(static_cast<std::uint64_t>(cfg.cores));
        mix_double(cfg.offsetMv);
        mix_u64(static_cast<std::uint64_t>(cfg.mode));
        mix_u64(static_cast<std::uint64_t>(cfg.strategy));
        mix_double(cfg.params.deadlineUs);
        mix_double(cfg.params.timeSpanUs);
        mix_u64(static_cast<std::uint64_t>(cfg.params.maxExceptionCount));
        mix_double(cfg.params.deadlineFactor);
        mix_u64(cfg.seed);
        mix_string(job.profile != nullptr ? job.profile->name : "");
    }
    return {jobs.size(), hash};
}

std::uint64_t
deriveSeed(std::uint64_t root, std::uint64_t index)
{
    // Golden-ratio mixing plus one splitmix-seeded draw decorrelates
    // (root, index) pairs in O(1), without advancing a shared
    // generator in grid order.
    suit::util::Rng rng(root ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
    return rng.next();
}

} // namespace suit::exec

namespace suit::sim {

std::vector<WorkloadRow>
runSuiteParallel(const EvalConfig &config,
                 const std::vector<trace::WorkloadProfile> &profiles,
                 suit::exec::SweepEngine &engine)
{
    std::vector<suit::exec::SweepJob> jobs;
    jobs.reserve(profiles.size());
    for (const trace::WorkloadProfile &p : profiles)
        jobs.push_back({p.name, config, &p});

    const std::vector<DomainResult> results = engine.run(jobs);

    std::vector<WorkloadRow> rows;
    rows.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        rows.push_back({profiles[i].name, results[i]});
    return rows;
}

std::vector<WorkloadRow>
runSuiteParallel(const EvalConfig &config,
                 const std::vector<trace::WorkloadProfile> &profiles,
                 int jobs)
{
    suit::runtime::SessionConfig scfg;
    scfg.jobs = jobs;
    suit::runtime::Session session(scfg);
    suit::exec::SweepEngine engine(session);
    return runSuiteParallel(config, profiles, engine);
}

} // namespace suit::sim
