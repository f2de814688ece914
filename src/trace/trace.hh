/**
 * @file
 * Instruction-trace representation (paper Sec. 5.1).
 *
 * The paper records, via a QEMU plugin, *when* the faultable
 * instructions occur within a program's instruction stream; all other
 * instructions only matter in aggregate (their count and IPC).  A
 * Trace therefore stores the faultable events as (gap, kind) pairs —
 * the gap being the number of ordinary instructions since the
 * previous faultable one — plus the stream's total length and
 * measured IPC.  This is exactly the information the paper's
 * event-based evaluation consumes, and it compresses billions of
 * instructions into a few thousand events.
 */

#ifndef SUIT_TRACE_TRACE_HH
#define SUIT_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/faultable.hh"
#include "util/stats.hh"

namespace suit::trace {

/**
 * Bits of FaultableEvent::gap.  Trace requires every stream to be
 * shorter than 2^kGapBits instructions, so any in-stream gap fits.
 */
constexpr unsigned kGapBits = 56;

/** Exclusive upper bound on Trace::totalInstructions(). */
constexpr std::uint64_t kMaxTraceInstructions = std::uint64_t{1}
                                                << kGapBits;

/**
 * One faultable-instruction occurrence in a trace, packed into one
 * 64-bit word: a fleet keeps thousands of traces resident, and the
 * event array is nearly all of their bytes.
 */
struct FaultableEvent
{
    /** Ordinary instructions executed since the previous event. */
    std::uint64_t gap : kGapBits = 0;
    /** Which faultable instruction occurred. */
    suit::isa::FaultableKind kind : 8 = suit::isa::FaultableKind::IMUL;
};
static_assert(sizeof(FaultableEvent) == 8,
              "FaultableEvent must pack into one 64-bit word");

/** A recorded (or synthesised) instruction stream. */
class Trace
{
  public:
    Trace() = default;

    /**
     * @param name workload label.
     * @param total_instructions stream length including the events;
     *        must be below kMaxTraceInstructions.
     * @param ipc average retired instructions per cycle, used to
     *        convert instruction counts to cycles (the paper uses the
     *        INSTRUCTIONS_RETIRED counter for the same purpose).
     * @param events faultable occurrences in stream order.
     * @param event_weight trace-thinning factor: how many real
     *        faultable instructions each event stands for.
     */
    Trace(std::string name, std::uint64_t total_instructions, double ipc,
          std::vector<FaultableEvent> events,
          double event_weight = 1.0);

    /** Workload label. */
    const std::string &name() const { return name_; }
    /** Total instruction count of the stream. */
    std::uint64_t totalInstructions() const { return totalInstructions_; }
    /** Average IPC of the stream. */
    double ipc() const { return ipc_; }
    /** The faultable events in stream order. */
    const std::vector<FaultableEvent> &events() const { return events_; }

    /** Real faultable instructions represented by one event. */
    double eventWeight() const { return eventWeight_; }

    /** Number of faultable events. */
    std::size_t eventCount() const { return events_.size(); }

    /** Faultable instructions per executed instruction. */
    double faultableRate() const;

    /**
     * Ordinary instructions after the last faultable event (the tail
     * the simulator drains once every event is consumed).  Panics —
     * instead of wrapping around to ~2^64 — on an inconsistent trace
     * whose last event index reaches past totalInstructions(); the
     * constructor rejects such traces, so tripping this means the
     * trace was corrupted after construction.
     */
    std::uint64_t tailInstructions() const;

    /**
     * Heap footprint of this trace (object header plus name and event
     * storage).  Drives the trace cache's CLOCK byte accounting.
     * The generator hands over exact-size event storage, so for a
     * generated trace this is sizeof(Trace) + name capacity + 8 bytes
     * per event.
     */
    std::size_t memoryBytes() const
    {
        return sizeof(Trace) + name_.capacity() +
               events_.capacity() * sizeof(FaultableEvent);
    }

  private:
    friend class TraceTestPeer; //!< test-only corruption hook
    std::string name_;
    std::uint64_t totalInstructions_ = 0;
    double ipc_ = 1.0;
    double eventWeight_ = 1.0;
    std::vector<FaultableEvent> events_;
    std::uint64_t lastEventIndex_ = 0; //!< stream position of the last event
};

/** Aggregate statistics over a trace (drives Figs. 5 and 7). */
struct TraceStats
{
    /** Gap sizes bucketed by decade. */
    suit::util::LogHistogram gapHistogram{12};
    /** Occurrences per faultable kind. */
    std::array<std::uint64_t, suit::isa::kNumFaultableKinds>
        kindCounts{};
    /** Mean gap between faultable events. */
    double meanGap = 0.0;
    /** Largest observed gap. */
    std::uint64_t maxGap = 0;

    /** Compute the statistics of a trace. */
    static TraceStats compute(const Trace &trace);
};

} // namespace suit::trace

#endif // SUIT_TRACE_TRACE_HH
