/**
 * @file
 * RAII SIGINT plumbing for graceful-stop CLIs.
 *
 * The long-running tools (suit_sweep, suit_fleet,
 * suit_characterize) share one Ctrl-C contract: the first
 * SIGINT raises a stop flag the run's cancellation token observes
 * (runtime::CancelToken::linkExternal), so in-flight work settles
 * and journaled state stays valid; a second SIGINT
 * terminates the process immediately (the journals survive that —
 * appends are atomic rename()s).  SigintGuard packages the handler,
 * the flag, and the restore-on-destruct so each CLI stops carrying
 * its own copy.
 */

#ifndef SUIT_UTIL_SIGINT_HH
#define SUIT_UTIL_SIGINT_HH

#include <atomic>

namespace suit::util {

/**
 * Scoped SIGINT handler with graceful-stop semantics.
 *
 * While the guard is alive, the first Ctrl-C latches requested() and
 * rearms SIGINT to the default action, so the second Ctrl-C kills
 * the process.  The destructor restores whatever handler was
 * installed before construction.  The handler state is process
 * global (a C signal handler cannot capture), so at most one guard
 * may exist at a time.
 */
class SigintGuard
{
  public:
    /** Install the handler; remembers the previous one. */
    SigintGuard();

    /** Restore the handler active before construction. */
    ~SigintGuard();

    SigintGuard(const SigintGuard &) = delete;
    SigintGuard &operator=(const SigintGuard &) = delete;

    /** True once the first SIGINT arrived (or request() ran). */
    bool requested() const;

    /**
     * The stop flag as the runtime layer consumes it — link it into
     * a run's token via runtime::CancelToken::linkExternal().  Valid
     * for the guard's lifetime.
     */
    std::atomic<bool> *flag();

    /**
     * Raise the stop flag without a signal — the CLIs' --stop-after
     * fault-injection hooks share the flag with Ctrl-C.
     */
    void request();
};

} // namespace suit::util

#endif // SUIT_UTIL_SIGINT_HH
