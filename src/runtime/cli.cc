#include "runtime/cli.hh"

#include <climits>
#include <cstdio>

#include "util/logging.hh"

namespace suit::runtime {

void
addRunOptions(suit::util::ArgParser &args)
{
    args.addOption("jobs", "0",
                   "parallel workers (0 = hardware threads, "
                   "1 = serial reference)");
    args.addFlag("pin",
                 "pin each worker thread to a CPU (cache locality "
                 "on dedicated machines; unsupported platforms warn "
                 "and continue unpinned)");
    args.addOption("checkpoint", "",
                   "journal completed units (sweep cells, fleet "
                   "shards) to this file (crash-safe)");
    args.addOption("checkpoint-flush", "1",
                   "flush the checkpoint journal every N units "
                   "(1 = after every unit; larger batches trade "
                   "re-running at most N-1 units after a crash for "
                   "fewer fsyncs)");
    args.addFlag("resume",
                 "load the --checkpoint journal and run only the "
                 "missing units");
    args.addOption("stop-after", "0",
                   "stop gracefully after N completed units (testing "
                   "aid; 0 = run to completion)");
    args.addOption("deadline-s", "0",
                   "wall-clock budget in seconds; on expiry the run "
                   "stops gracefully like Ctrl-C (0 = none)");
    args.addOption("trace-cache-mb", "256",
                   "trace cache capacity in MiB (CLOCK eviction above "
                   "it)");
}

CliRun::Flags::Flags(const suit::util::ArgParser &args,
                     const suit::obs::CliScope &obs)
{
    session.jobs =
        static_cast<int>(args.getIntInRange("jobs", 0, INT_MAX));
    session.traceCacheBytes =
        static_cast<std::size_t>(
            args.getIntInRange("trace-cache-mb", 1, 1 << 20))
        << 20;
    session.pinWorkers = args.getFlag("pin");
    session.telemetry = obs.telemetryConfig();

    checkpoint.path = args.get("checkpoint");
    checkpoint.resume = args.getFlag("resume");
    checkpoint.flushInterval = static_cast<int>(
        args.getIntInRange("checkpoint-flush", 1, INT_MAX));
    if (checkpoint.resume && checkpoint.path.empty())
        suit::util::fatal("--resume needs --checkpoint <path>");

    deadlineS = args.getDouble("deadline-s");
    if (deadlineS < 0.0)
        suit::util::fatal("--deadline-s must be >= 0, got %g",
                          deadlineS);
    stopAfter = static_cast<std::uint64_t>(
        args.getIntInRange("stop-after", 0, LONG_MAX));
}

CliRun::CliRun(const suit::util::ArgParser &args,
               suit::obs::CliScope &obs)
    : obs_(obs), flags_(args, obs), session_(flags_.session)
{
    obs_.attachTelemetry(session_.telemetry());
    ctx_.checkpoint = flags_.checkpoint;
    ctx_.token().linkExternal(sigint_.flag());
    if (flags_.deadlineS > 0.0)
        ctx_.setDeadlineAfter(flags_.deadlineS);
}

std::function<void(std::uint64_t)>
CliRun::stopAfterHook()
{
    if (flags_.stopAfter == 0)
        return {};
    return [this](std::uint64_t) {
        if (completed_.fetch_add(1) + 1 >= flags_.stopAfter)
            sigint_.request();
    };
}

int
CliRun::interrupted(const char *what, std::uint64_t skipped,
                    const char *unit)
{
    obs_.noteInterruption(sigint_.requested() ? "sigint"
                                              : "deadline");
    std::fprintf(stderr,
                 "%s interrupted: %llu %s%s not run; re-run with "
                 "--checkpoint %s --resume to finish\n",
                 what, static_cast<unsigned long long>(skipped), unit,
                 skipped == 1 ? "" : "s",
                 ctx_.checkpoint.path.empty()
                     ? "<path>"
                     : ctx_.checkpoint.path.c_str());
    return 130;
}

} // namespace suit::runtime
