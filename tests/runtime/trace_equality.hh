/**
 * @file
 * Bitwise trace equality for the runtime suites: the witness that a
 * cached, evicted or regenerated trace is the one its key generates.
 */

#ifndef SUIT_TESTS_RUNTIME_TRACE_EQUALITY_HH
#define SUIT_TESTS_RUNTIME_TRACE_EQUALITY_HH

#include <cstddef>

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace suit::testing {

/** Bitwise equality of two traces (the regeneration witness). */
inline void
expectIdenticalTraces(const suit::trace::Trace &a,
                      const suit::trace::Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_EQ(a.ipc(), b.ipc());
    EXPECT_EQ(a.eventWeight(), b.eventWeight());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
}

} // namespace suit::testing

#endif // SUIT_TESTS_RUNTIME_TRACE_EQUALITY_HH
