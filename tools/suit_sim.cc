/**
 * @file
 * suit_sim — run the SUIT trace simulator from the command line.
 *
 * Examples:
 *   suit_sim --workload 557.xz
 *   suit_sim --cpu B --strategy f --offset -70 --workload Nginx
 *   suit_sim --cpu A --cores 4 --workload 502.gcc
 *   suit_sim --trace mytrace.sfb --strategy hybrid
 *   suit_sim --workload 508.namd --nosimd
 *   suit_sim --workload spec --jobs 4      # whole suite, 4 workers
 */

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/params.hh"
#include "exec/sweep.hh"
#include "obs/setup.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "sim/evaluation.hh"
#include "sim/trace_cache.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/sigint.hh"
#include "util/table.hh"

namespace {

using namespace suit;

power::CpuModel
cpuByName(const std::string &name)
{
    if (name == "A" || name == "i9-9900K")
        return power::cpuA_i9_9900k();
    if (name == "B" || name == "7700X")
        return power::cpuB_ryzen7700x();
    if (name == "C" || name == "4208")
        return power::cpuC_xeon4208();
    if (name == "i5" || name == "i5-1035G1")
        return power::cpu_i5_1035g1();
    util::fatal("unknown CPU '%s' (use A, B, C or i5)", name.c_str());
}

core::StrategyKind
strategyByName(const std::string &name)
{
    if (name == "e" || name == "emulation")
        return core::StrategyKind::Emulation;
    if (name == "f" || name == "frequency")
        return core::StrategyKind::Frequency;
    if (name == "V" || name == "voltage")
        return core::StrategyKind::Voltage;
    if (name == "fV" || name == "combined")
        return core::StrategyKind::CombinedFv;
    if (name == "hybrid" || name == "e+fV")
        return core::StrategyKind::Hybrid;
    if (name == "auto")
        return core::StrategyKind::CombinedFv; // replaced below
    util::fatal("unknown strategy '%s' (e, f, V, fV, hybrid, auto)",
                name.c_str());
}

/**
 * Expand a --workload value into a profile list: "spec" / "all" name
 * the built-in suites, a comma-separated list selects individual
 * profiles, anything else is a single workload.
 */
std::vector<trace::WorkloadProfile>
workloadsByName(const std::string &value)
{
    if (value == "spec")
        return trace::specProfiles();
    if (value == "all")
        return trace::allProfiles();
    std::vector<trace::WorkloadProfile> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string name =
            value.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
        if (!name.empty())
            out.push_back(trace::profileByName(name));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Run a multi-workload suite in parallel and print per-row results. */
int
runSuiteMode(const sim::EvalConfig &cfg,
             const std::vector<trace::WorkloadProfile> &profiles,
             runtime::Session &session, runtime::RunContext &ctx,
             const exec::RunPolicy &policy, bool verbose,
             obs::CliScope &obs_scope, const util::SigintGuard &sigint)
{
    std::vector<exec::SweepJob> sweep_jobs;
    sweep_jobs.reserve(profiles.size());
    for (const trace::WorkloadProfile &p : profiles)
        sweep_jobs.push_back({p.name, cfg, &p});

    exec::SweepEngine engine(session);
    exec::SweepOutcome outcome;
    try {
        outcome = engine.run(sweep_jobs, ctx, policy);
    } catch (const exec::JournalError &e) {
        util::fatal("%s", e.what());
    }

    std::vector<sim::WorkloadRow> rows;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (outcome.done[i])
            rows.push_back({profiles[i].name, outcome.results[i]});
    }

    util::TablePrinter t({"Workload", "Perf", "Power", "Eff", "onE"});
    for (const sim::WorkloadRow &r : rows)
        t.addRow({r.workload,
                  util::sformat("%+.2f%%", 100 * r.result.perfDelta()),
                  util::sformat("%+.2f%%",
                                100 * r.result.powerDelta()),
                  util::sformat("%+.2f%%",
                                100 * r.result.efficiencyDelta()),
                  util::sformat("%.1f%%",
                                100 * r.result.efficientShare)});
    t.print();

    // A suite geomean over a subset would be silently wrong — only
    // print it once every workload completed.
    if (rows.size() == profiles.size()) {
        const sim::SuiteSummary sum = sim::SuiteSummary::of(rows);
        std::printf("\nSuite gmean: perf %+.2f%%, power %+.2f%%, eff "
                    "%+.2f%% (median eff %+.2f%%)\n",
                    100 * sum.gmeanPerf, 100 * sum.gmeanPower,
                    100 * sum.gmeanEff, 100 * sum.medianEff);
    } else {
        std::printf("\nSuite summary withheld: %zu of %zu workloads "
                    "completed\n",
                    rows.size(), profiles.size());
    }
    for (const exec::CellFailure &f : outcome.failures)
        std::fprintf(stderr, "failed workload %s: %s (%d attempt%s)\n",
                     f.label.c_str(), f.error.c_str(), f.attempts,
                     f.attempts == 1 ? "" : "s");
    if (verbose) {
        std::printf("\nSweep execution (%d worker%s, %zu jobs, %zu "
                    "run, %zu restored):\n%s",
                    engine.jobs(), engine.jobs() == 1 ? "" : "s",
                    profiles.size(), outcome.executed,
                    outcome.restored, engine.workerFooter().c_str());
        const sim::TraceCache &traces = session.traceCache();
        const std::uint64_t hits = traces.hits();
        const std::uint64_t misses = traces.misses();
        const std::uint64_t lookups = hits + misses;
        std::printf("Trace cache: %llu trace%s generated, %llu of "
                    "%llu lookup%s hit (%.1f%% hit rate), %llu "
                    "evicted\n",
                    static_cast<unsigned long long>(misses),
                    misses == 1 ? "" : "s",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(lookups),
                    lookups == 1 ? "" : "s",
                    lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(lookups)
                                : 0.0,
                    static_cast<unsigned long long>(
                        traces.evictions()));
    }
    if (outcome.interrupted) {
        obs_scope.noteInterruption(
            sigint.requested() ? "sigint" : "deadline");
        std::fprintf(stderr,
                     "suite interrupted: %zu workload%s not run; "
                     "re-run with --checkpoint %s --resume to "
                     "finish\n",
                     outcome.skipped,
                     outcome.skipped == 1 ? "" : "s",
                     ctx.checkpoint.path.empty()
                         ? "<path>"
                         : ctx.checkpoint.path.c_str());
        return 130;
    }
    return outcome.failures.empty() ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("suit_sim",
                         "simulate SUIT on a workload (paper Sec. 6)");
    args.addOption("cpu", "C", "CPU model: A, B, C or i5");
    args.addOption("workload", "557.xz",
                   "built-in workload profile name, a comma-separated "
                   "list, 'spec', 'all', or 'list'");
    args.addOption("trace", "", "run a recorded .sft/.sfb trace "
                                "instead of a built-in profile");
    args.addOption("strategy", "fV",
                   "operating strategy: e, f, V, fV, hybrid or auto");
    args.addOption("offset", "-97", "undervolt offset in mV");
    args.addOption("cores", "1",
                   "utilised cores (shared-domain CPUs only)");
    args.addOption("seed", "1", "trace / jitter seed");
    args.addOption("jobs", "0",
                   "parallel workers for multi-workload runs (0 = "
                   "hardware threads, 1 = serial reference)");
    args.addFlag("pin",
                 "pin each worker thread to a CPU (cache locality "
                 "on dedicated machines; unsupported platforms warn "
                 "and continue unpinned)");
    args.addOption("checkpoint", "",
                   "journal completed suite workloads to this file "
                   "(multi-workload runs only)");
    args.addOption("checkpoint-flush", "1",
                   "flush the checkpoint journal every N workloads "
                   "(1 = after every workload)");
    args.addFlag("resume",
                 "load the --checkpoint journal and run only the "
                 "missing workloads");
    args.addOption("retries", "0",
                   "re-attempts for a failing workload before "
                   "recording it as failed");
    args.addFlag("strict",
                 "fail fast: abort the suite on the first workload "
                 "failure");
    args.addOption("deadline-s", "0",
                   "wall-clock budget in seconds for suite runs; on "
                   "expiry the run stops gracefully like Ctrl-C "
                   "(0 = none)");
    args.addOption("trace-cache-mb", "256",
                   "trace cache capacity in MiB (CLOCK eviction above "
                   "it)");
    args.addFlag("nosimd", "model a binary compiled without SIMD");
    args.addFlag("verbose", "also print switch/trap counters");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    if (args.get("workload") == "list") {
        for (const auto &p : trace::allProfiles())
            std::printf("%s\n", p.name.c_str());
        return 0;
    }

    // Declared before any engine/pool so trace-emitting workers never
    // outlive the session; flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    const power::CpuModel cpu = cpuByName(args.get("cpu"));

    sim::EvalConfig cfg;
    cfg.cpu = &cpu;
    // One trace stream per core of a shared domain: the cache's cap.
    cfg.cores = static_cast<int>(
        args.getIntInRange("cores", 1, sim::TraceCache::kMaxStreams));
    cfg.offsetMv = args.getDouble("offset");
    cfg.params = core::optimalParams(cpu);
    cfg.seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 0, LONG_MAX));
    cfg.mode = args.getFlag("nosimd") ? sim::RunMode::NoSimdCompile
                                      : sim::RunMode::Suit;

    // Multi-workload selection runs as a parallel suite.
    if (args.get("trace").empty()) {
        const std::string &wl = args.get("workload");
        if (wl == "spec" || wl == "all" ||
            wl.find(',') != std::string::npos) {
            if (args.get("strategy") != "auto")
                cfg.strategy = strategyByName(args.get("strategy"));
            else
                util::fatal("--strategy auto needs a single "
                            "workload");
            exec::RunPolicy policy;
            const long retries =
                args.getIntInRange("retries", 0, INT_MAX);
            policy.retries = static_cast<int>(retries);
            policy.strict = args.getFlag("strict");
            const double deadline_s = args.getDouble("deadline-s");
            if (deadline_s < 0.0)
                util::fatal("--deadline-s must be >= 0, got %g",
                            deadline_s);
            const long cache_mb =
                args.getIntInRange("trace-cache-mb", 1, 1 << 20);
            if (args.getFlag("resume") &&
                args.get("checkpoint").empty())
                util::fatal("--resume needs --checkpoint <path>");

            // First Ctrl-C: graceful stop; second: immediate kill.
            util::SigintGuard sigint;
            runtime::SessionConfig session_cfg;
            session_cfg.jobs = static_cast<int>(
                args.getIntInRange("jobs", 0, INT_MAX));
            session_cfg.traceCacheBytes =
                static_cast<std::size_t>(cache_mb) << 20;
            session_cfg.pinWorkers = args.getFlag("pin");
            session_cfg.telemetry = obs_scope.telemetryConfig();
            runtime::Session session(session_cfg);
            obs_scope.attachTelemetry(session.telemetry());
            runtime::RunContext ctx;
            ctx.checkpoint.path = args.get("checkpoint");
            ctx.checkpoint.resume = args.getFlag("resume");
            ctx.checkpoint.flushInterval = static_cast<int>(
                args.getIntInRange("checkpoint-flush", 1, INT_MAX));
            ctx.token().linkExternal(sigint.flag());
            if (deadline_s > 0.0)
                ctx.setDeadlineAfter(deadline_s);

            std::printf("suite '%s' on %s, strategy %s, %.0f mV:\n",
                        wl.c_str(), cpu.name().c_str(),
                        core::toString(cfg.strategy), cfg.offsetMv);
            return runSuiteMode(cfg, workloadsByName(wl), session,
                                ctx, policy,
                                args.getFlag("verbose"), obs_scope,
                                sigint);
        }
    }
    if (!args.get("checkpoint").empty() || args.getFlag("resume"))
        util::fatal("--checkpoint/--resume apply to multi-workload "
                    "suite runs only");
    // Single-run path: no Session, so the scope owns the sampler.
    obs_scope.startLocalTelemetry();

    sim::DomainResult result;
    std::string workload_name;
    if (!args.get("trace").empty()) {
        const trace::Trace t = trace::loadTrace(args.get("trace"));
        workload_name = t.name();
        // A recorded trace carries no profile; wrap it in a neutral
        // one so the simulator has IPC and weight.
        trace::WorkloadProfile profile;
        profile.name = t.name();
        profile.ipc = t.ipc();
        profile.totalInstructions = t.totalInstructions();
        profile.eventWeight = t.eventWeight();

        cfg.strategy = args.get("strategy") == "auto"
                           ? core::selectStrategy(cpu, t, cfg.params)
                           : strategyByName(args.get("strategy"));
        sim::SimConfig sim_cfg;
        sim_cfg.cpu = cfg.cpu;
        sim_cfg.offsetMv = cfg.offsetMv;
        sim_cfg.mode = cfg.mode;
        sim_cfg.strategy = cfg.strategy;
        sim_cfg.params = cfg.params;
        sim_cfg.seed = cfg.seed;
        sim::DomainSimulator sim(sim_cfg, {{&t, &profile}});
        result = sim.run();
    } else {
        const auto &profile =
            trace::profileByName(args.get("workload"));
        workload_name = profile.name;
        if (args.get("strategy") == "auto") {
            const trace::Trace probe =
                trace::TraceGenerator(cfg.seed).generate(profile);
            cfg.strategy =
                core::selectStrategy(cpu, probe, cfg.params);
        } else {
            cfg.strategy = strategyByName(args.get("strategy"));
        }
        result = sim::runWorkload(cfg, profile);
    }

    std::printf("%s on %s, strategy %s, %.0f mV:\n",
                workload_name.c_str(), cpu.name().c_str(),
                core::toString(cfg.strategy), cfg.offsetMv);
    std::printf("  performance %+7.2f %%\n",
                100 * result.perfDelta());
    std::printf("  power       %+7.2f %%\n",
                100 * result.powerDelta());
    std::printf("  efficiency  %+7.2f %%\n",
                100 * result.efficiencyDelta());
    std::printf("  on efficient curve %5.1f %% (Cf %.1f %%, CV "
                "%.1f %%)\n",
                100 * result.efficientShare, 100 * result.cfShare,
                100 * result.cvShare);
    if (args.getFlag("verbose")) {
        std::printf("  traps %llu, emulations %llu, switches %llu, "
                    "thrash activations %llu\n",
                    static_cast<unsigned long long>(result.traps),
                    static_cast<unsigned long long>(result.emulations),
                    static_cast<unsigned long long>(
                        result.pstateSwitches),
                    static_cast<unsigned long long>(
                        result.thrashDetections));
    }
    return 0;
}
