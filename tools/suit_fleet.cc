/**
 * @file
 * suit_fleet — simulate a whole data-center fleet of SUIT domains in
 * one process and report the TCO/energy outcome.
 *
 * The fleet is described by a FleetSpec (--spec <file>, or the
 * built-in five-rack demo fleet when omitted); --domains rescales it
 * to the requested size.  The FleetEngine shards the domains across
 * worker threads and streams every result into exact per-rack
 * accumulators, so the report is bit-identical for any --jobs value,
 * any --shard size, and across kill-and-resume cycles
 * (--checkpoint/--resume reuse the crash-safe exec journal).
 *
 * Output: the human TCO/energy table on stdout, execution footer on
 * stderr, and with --report-json the machine-readable
 * suit-fleet-report-v1 document.  Ctrl-C stops gracefully after the
 * in-flight shards (exit code 130); a resumed run completes the rest
 * and produces the identical report.
 *
 * Examples:
 *   suit_fleet                                  # demo fleet, 100k
 *   suit_fleet --domains 1000000 --jobs 16
 *   suit_fleet --spec fleet.spec --report-json report.json
 *   suit_fleet --domains 500000 --checkpoint fleet.ckpt
 *   suit_fleet --domains 500000 --checkpoint fleet.ckpt --resume
 */

#include <atomic>
#include <climits>
#include <cstdio>
#include <string>

#include "exec/checkpoint.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "fleet/spec.hh"
#include "obs/registry.hh"
#include "obs/setup.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/sigint.hh"

namespace {

using namespace suit;

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "suit_fleet",
        "simulate a fleet of SUIT domains, report TCO/energy");
    args.addOption("spec", "",
                   "fleet spec file (omit for the built-in demo "
                   "fleet)");
    args.addOption("domains", "0",
                   "rescale the fleet to this many domains "
                   "(0 = keep the spec's counts; demo default "
                   "100000)");
    args.addOption("seed", "",
                   "override the spec's root seed");
    args.addOption("jobs", "0",
                   "parallel workers (0 = hardware threads, "
                   "1 = serial reference)");
    args.addFlag("pin",
                 "pin each worker thread to a CPU (cache locality "
                 "on dedicated machines; unsupported platforms warn "
                 "and continue unpinned)");
    args.addOption("shard", "0",
                   "domains per checkpointable shard (0 = default "
                   "4096)");
    args.addOption("checkpoint", "",
                   "journal completed shards to this file "
                   "(crash-safe)");
    args.addOption("checkpoint-flush", "1",
                   "flush the checkpoint journal every N shards "
                   "(1 = after every shard; larger batches trade "
                   "re-running at most N-1 shards after a crash for "
                   "fewer fsyncs)");
    args.addFlag("resume",
                 "load the --checkpoint journal and run only the "
                 "missing shards");
    args.addOption("report-json", "",
                   "also write the suit-fleet-report-v1 JSON to this "
                   "path ('-' = stdout instead of the table)");
    args.addOption("stop-after", "0",
                   "stop gracefully after N completed shards "
                   "(testing aid; 0 = run to completion)");
    args.addOption("deadline-s", "0",
                   "wall-clock budget in seconds; on expiry the run "
                   "stops gracefully like Ctrl-C (0 = none)");
    args.addOption("trace-cache-mb", "256",
                   "trace cache capacity in MiB (CLOCK eviction above "
                   "it)");
    obs::addCliOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    // Declared before the FleetEngine so worker threads never outlive
    // the trace session; flushes --metrics/--trace-out at exit.
    obs::CliScope obs_scope(args);

    const long domains = args.getIntInRange("domains", 0, LONG_MAX);
    const long stop_after =
        args.getIntInRange("stop-after", 0, LONG_MAX);
    const long shard = args.getIntInRange("shard", 0, LONG_MAX);
    const double deadline_s = args.getDouble("deadline-s");
    if (deadline_s < 0.0)
        util::fatal("--deadline-s must be >= 0, got %g", deadline_s);
    const long cache_mb =
        args.getIntInRange("trace-cache-mb", 1, 1 << 20);
    if (args.getFlag("resume") && args.get("checkpoint").empty())
        util::fatal("--resume needs --checkpoint <path>");

    fleet::FleetSpec spec;
    if (!args.get("spec").empty()) {
        try {
            spec = fleet::FleetSpec::parseFile(args.get("spec"));
        } catch (const fleet::SpecError &e) {
            util::fatal("%s", e.what());
        }
        if (domains > 0)
            spec.scaleDomains(static_cast<std::uint64_t>(domains));
    } else {
        spec = fleet::FleetSpec::demo(
            domains > 0 ? static_cast<std::uint64_t>(domains)
                        : 100000);
    }
    if (!args.get("seed").empty())
        spec.seed = static_cast<std::uint64_t>(
            args.getIntInRange("seed", 0, LONG_MAX));

    util::inform("suit_fleet: '%s', %llu domains in %zu racks on %s",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(spec.totalDomains()),
                 spec.racks.size(),
                 args.get("jobs") == "1" ? "1 worker (serial)"
                                         : "parallel workers");

    // First Ctrl-C: graceful stop; second: immediate kill.
    util::SigintGuard sigint;
    std::atomic<std::uint64_t> completed{0};

    fleet::FleetOptions options;
    options.shardSize = static_cast<std::uint64_t>(shard);
    if (stop_after > 0) {
        options.onShardDone = [&, stop_after](std::uint64_t) {
            if (completed.fetch_add(1) + 1 >=
                static_cast<std::uint64_t>(stop_after))
                sigint.request();
        };
    }

    runtime::SessionConfig session_cfg;
    session_cfg.jobs =
        static_cast<int>(args.getIntInRange("jobs", 0, INT_MAX));
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

    fleet::FleetEngine engine(session, spec);
    fleet::FleetOutcome outcome;
    try {
        outcome = engine.run(ctx, options);
    } catch (const exec::JournalError &e) {
        util::fatal("%s", e.what());
    }

    // An interrupted run's partial aggregates would render as a
    // plausible but wrong fleet report; only a complete run reports.
    if (outcome.complete()) {
        const std::string &json_path = args.get("report-json");
        if (json_path == "-") {
            const std::string doc =
                fleet::renderReportJson(engine.spec(),
                                        outcome.totals);
            std::fwrite(doc.data(), 1, doc.size(), stdout);
        } else {
            const std::string table =
                fleet::renderReportTable(engine.spec(),
                                         outcome.totals);
            std::fwrite(table.data(), 1, table.size(), stdout);
            if (!json_path.empty()) {
                const std::string doc =
                    fleet::renderReportJson(engine.spec(),
                                            outcome.totals);
                std::FILE *f = std::fopen(json_path.c_str(), "w");
                if (f == nullptr ||
                    std::fwrite(doc.data(), 1, doc.size(), f) !=
                        doc.size())
                    util::fatal("cannot write '%s'",
                                json_path.c_str());
                std::fclose(f);
            }
        }
    }

    // Footer goes to stderr so it never pollutes a report on stdout.
    std::fprintf(
        stderr,
        "fleet execution: %llu shards (%llu run, %llu restored, "
        "%llu skipped), %llu traces generated, %llu cache hits, "
        "%llu evicted\n",
        static_cast<unsigned long long>(outcome.shards),
        static_cast<unsigned long long>(outcome.shardsRun),
        static_cast<unsigned long long>(outcome.shardsRestored),
        static_cast<unsigned long long>(outcome.shardsSkipped),
        static_cast<unsigned long long>(
            engine.traceCache().misses()),
        static_cast<unsigned long long>(engine.traceCache().hits()),
        static_cast<unsigned long long>(
            engine.traceCache().evictions()));
    if (obs::metrics().enabled()) {
        std::fprintf(stderr, "\nobservability metrics:\n%s",
                     obs::metrics().renderTable().c_str());
    }
    if (outcome.interrupted) {
        obs_scope.noteInterruption(
            sigint.requested() ? "sigint" : "deadline");
        std::fprintf(stderr,
                     "fleet run interrupted: %llu shard%s not run; "
                     "re-run with --checkpoint %s --resume to "
                     "finish\n",
                     static_cast<unsigned long long>(
                         outcome.shardsSkipped),
                     outcome.shardsSkipped == 1 ? "" : "s",
                     ctx.checkpoint.path.empty()
                         ? "<path>"
                         : ctx.checkpoint.path.c_str());
        return 130;
    }
    return 0;
}
