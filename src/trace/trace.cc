#include "trace/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace suit::trace {

Trace::Trace(std::string name, std::uint64_t total_instructions,
             double ipc, std::vector<FaultableEvent> events,
             double event_weight)
    : name_(std::move(name)), totalInstructions_(total_instructions),
      ipc_(ipc), eventWeight_(event_weight),
      events_(std::move(events))
{
    SUIT_ASSERT(ipc_ > 0.0, "trace '%s' needs a positive IPC",
                name_.c_str());
    SUIT_ASSERT(eventWeight_ >= 1.0,
                "trace '%s' needs a weight >= 1", name_.c_str());
    SUIT_ASSERT(totalInstructions_ < kMaxTraceInstructions,
                "trace '%s': stream length %llu needs more than %u bits",
                name_.c_str(),
                static_cast<unsigned long long>(totalInstructions_),
                kGapBits);
    // Every gap is below 2^56 and the position stays <= total < 2^56
    // between steps, so the running sum cannot wrap.
    std::uint64_t pos = 0;
    for (const FaultableEvent &e : events_) {
        pos += e.gap + 1; // the gap, then the faultable instruction
        SUIT_ASSERT(pos <= totalInstructions_,
                    "trace '%s': events (%llu instrs) exceed stream "
                    "length (%llu)",
                    name_.c_str(), static_cast<unsigned long long>(pos),
                    static_cast<unsigned long long>(totalInstructions_));
    }
    lastEventIndex_ = events_.empty() ? 0 : pos - 1;
}

double
Trace::faultableRate() const
{
    if (totalInstructions_ == 0)
        return 0.0;
    return static_cast<double>(events_.size()) /
           static_cast<double>(totalInstructions_);
}

std::uint64_t
Trace::tailInstructions() const
{
    if (events_.empty())
        return totalInstructions_;
    SUIT_ASSERT(lastEventIndex_ < totalInstructions_,
                "trace '%s' is inconsistent: last event at index %llu "
                "but the stream is only %llu instructions long",
                name_.c_str(),
                static_cast<unsigned long long>(lastEventIndex_),
                static_cast<unsigned long long>(totalInstructions_));
    return totalInstructions_ - lastEventIndex_ - 1;
}

TraceStats
TraceStats::compute(const Trace &trace)
{
    TraceStats s;
    double gap_sum = 0.0;
    for (const FaultableEvent &e : trace.events()) {
        s.gapHistogram.add(e.gap);
        ++s.kindCounts[static_cast<std::size_t>(e.kind)];
        gap_sum += static_cast<double>(e.gap);
        s.maxGap = std::max(s.maxGap, e.gap);
    }
    if (!trace.events().empty())
        s.meanGap = gap_sum / static_cast<double>(trace.eventCount());
    return s;
}

} // namespace suit::trace
