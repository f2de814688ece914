/**
 * @file
 * The hardware deadline timer (paper Sec. 4.1).
 *
 * A count-down register initialised with the deadline.  Executing a
 * would-be-disabled instruction resets the count-down; when it hits
 * zero an interrupt fires so the OS can switch back to the efficient
 * DVFS curve.  This value type tracks the arm/reset/expire state in
 * simulated time.
 */

#ifndef SUIT_CORE_DEADLINE_HH
#define SUIT_CORE_DEADLINE_HH

#include <cstdint>

#include "util/logging.hh"
#include "util/ticks.hh"

namespace suit::core {

/** Count-down timer with reset-on-activity semantics. */
class DeadlineTimer
{
  public:
    /** Arm with a reload value; the count-down starts at @p now. */
    void arm(suit::util::Tick now, suit::util::Tick reload);

    /**
     * A faultable instruction executed at @p now: restart the
     * count-down (no-op while disarmed).
     */
    void touch(suit::util::Tick now) { touchMany(now, 1); }

    /**
     * @p count faultable instructions executed, the last at @p last:
     * the same state as @p count touch() calls in time order, since
     * only the last one sets the expiry.  The simulator's native
     * windows track the expiry in a register and call this once per
     * window.
     */
    void touchMany(suit::util::Tick last, std::uint64_t count)
    {
        if (armed_ && count > 0) {
            expiry_ = last + reload_;
            resets_ += count;
        }
    }

    /** Disarm without firing. */
    void cancel();

    /** True while armed. */
    bool armed() const { return armed_; }

    /** Count-down length set by the last arm(). */
    suit::util::Tick reload() const { return reload_; }

    /**
     * Absolute expiry time (valid only while armed).  Inline: read
     * once per event as the native windows' closing boundary.
     */
    suit::util::Tick expiry() const
    {
        SUIT_ASSERT(armed_, "expiry() on a disarmed timer");
        return expiry_;
    }

    /**
     * Check for expiry: returns true exactly once when @p now has
     * reached the expiry time, disarming the timer.
     */
    bool checkExpired(suit::util::Tick now);

    /** @{ Lifetime observability counters (plain, always on). */
    /** Count-down restarts: touch() calls that hit an armed timer. */
    std::uint64_t resets() const { return resets_; }
    /** Expirations delivered by checkExpired(). */
    std::uint64_t expirations() const { return expirations_; }
    /** @} */

  private:
    bool armed_ = false;
    suit::util::Tick reload_ = 0;
    suit::util::Tick expiry_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t expirations_ = 0;
};

} // namespace suit::core

#endif // SUIT_CORE_DEADLINE_HH
