/**
 * @file
 * The run flags the engine CLIs share, declared and wired once.
 *
 * suit_sweep and suit_fleet take the same eight run flags:
 *
 *   --jobs <n>              workers (0 = hardware threads, 1 = serial)
 *   --pin                   pin pool workers to CPUs
 *   --checkpoint <path>     journal finished units (crash-safe)
 *   --checkpoint-flush <n>  flush the journal every n units
 *   --resume                restore the journal, run only what is missing
 *   --deadline-s <s>        wall-clock budget (0 = none)
 *   --trace-cache-mb <n>    trace cache capacity in MiB
 *   --stop-after <n>        stop gracefully after n units (testing aid)
 *
 * A unit is a sweep cell or a fleet shard.  addRunOptions() declares
 * the flags; a CliRun validates them and builds the Session and the
 * RunContext they configure, so both tools reject the same bad value
 * with the same message.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "obs/setup.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"
#include "util/args.hh"
#include "util/sigint.hh"

namespace suit::runtime {

/** Declare the shared run flags on @p args. */
void addRunOptions(suit::util::ArgParser &args);

/** One CLI run: the validated run flags and what they configure. */
class CliRun
{
  public:
    /**
     * Validate the run flags of parsed @p args (fatal() on a bad
     * value), then build the Session, with its telemetry sampler
     * attached to @p obs, and the RunContext: journal policy,
     * deadline and the SIGINT link (the first Ctrl-C stops
     * gracefully, the second kills).  @p obs must outlive the run.
     */
    CliRun(const suit::util::ArgParser &args, suit::obs::CliScope &obs);

    CliRun(const CliRun &) = delete;
    CliRun &operator=(const CliRun &) = delete;

    Session &session() { return session_; }
    RunContext &context() { return ctx_; }

    /**
     * The engine's per-unit completion callback for --stop-after:
     * its n-th call raises the same stop flag as Ctrl-C.  Empty when
     * --stop-after is 0.
     */
    std::function<void(std::uint64_t)> stopAfterHook();

    /**
     * Close an interrupted run: write the flight-recorder dump
     * (tagged "sigint" or "deadline") and print
     * "<what> interrupted: <skipped> <unit>s not run; ..." with the
     * resume command on stderr.  Returns the exit code, 130.
     */
    int interrupted(const char *what, std::uint64_t skipped,
                    const char *unit);

  private:
    /** The flags' validated values. */
    struct Flags
    {
        Flags(const suit::util::ArgParser &args,
              const suit::obs::CliScope &obs);

        SessionConfig session;
        CheckpointPolicy checkpoint;
        double deadlineS = 0.0;
        std::uint64_t stopAfter = 0;
    };

    suit::obs::CliScope &obs_;
    const Flags flags_;
    suit::util::SigintGuard sigint_;
    Session session_;
    RunContext ctx_;
    std::atomic<std::uint64_t> completed_{0};
};

} // namespace suit::runtime
