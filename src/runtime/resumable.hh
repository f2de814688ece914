/**
 * @file
 * The resumable-run core: one journaled, cancellable index loop that
 * both engines run on.
 *
 * exec::SweepEngine (grid cells) and fleet::FleetEngine (domain
 * shards) each execute a list of independent units of work, every
 * unit a pure function of its index.  runResumable() owns the steps
 * they share:
 *
 *  1. resume: load the RunContext's journal, refuse one whose
 *     fingerprint differs, warn about a torn tail, and offer every
 *     in-range ok/blob record to the engine's restore();
 *  2. start the new journal, seeded with the restored records, at
 *     the context's flush interval;
 *  3. run every unit not restored — on the Session's pool, inline
 *     when serial — skipping units once the cancel token trips and
 *     accounting a mid-unit runtime::Cancelled as skipped;
 *  4. append each finished unit's record, and flush the batch tail
 *     when the loop ends (normally or cancelled).
 *
 * The engine keeps what is its own: run(i) computes unit i (retries,
 * failure records, metrics, callbacks) and returns the record to
 * journal; restore(record) adopts one journaled record.  Failed
 * records (status 1) never reach restore(): their unit re-runs.  A
 * restore() that returns false is warned about and its unit re-runs
 * too, so a record of the wrong kind or a damaged payload costs one
 * recomputation, never a wrong result.
 *
 * The journal is active exactly when ctx.checkpoint.path is set.
 * Without it the loop touches no journal state per unit, and an
 * engine may leave a record's payload empty, since the record is
 * dropped unread.
 */
#pragma once

#include <cstddef>
#include <functional>

#include "exec/checkpoint.hh"
#include "runtime/run_context.hh"
#include "runtime/session.hh"

namespace suit::runtime {

/** One run's units, as runResumable() sees them. */
struct ResumableRun
{
    /** Units of work, indexed 0 .. units-1. */
    std::size_t units = 0;
    /** Journal identity of this unit list. */
    suit::exec::GridFingerprint fingerprint;
    /** What the run covers, for messages ("grid", "fleet"). */
    const char *scope = "grid";
    /** One unit, for messages ("cell", "shard"). */
    const char *unit = "cell";
    /**
     * Execute unit @p i and return its journal record.  Runs on
     * worker threads.  May throw runtime::Cancelled (the unit counts
     * as skipped); any other exception propagates out of
     * runResumable().
     */
    std::function<suit::exec::CellRecord(std::size_t)> run;
    /**
     * Adopt a journaled ok/blob record whose index is in range and
     * not yet restored; false rejects it and the unit re-runs.
     * Called on the calling thread before any unit runs.
     */
    std::function<bool(const suit::exec::CellRecord &)> restore;
};

/** What one runResumable() call did. */
struct ResumableCounts
{
    /** Units whose run() returned (failure records included). */
    std::size_t executed = 0;
    /** Units adopted from the journal. */
    std::size_t restored = 0;
    /** Units skipped or aborted because the token tripped. */
    std::size_t skipped = 0;
    /** True if the cancel token ended the run early. */
    bool interrupted = false;
};

/**
 * Run @p run under @p ctx on @p session's pool; see the file comment.
 *
 * @throws exec::JournalError when resume is requested without a
 *         path, or on an unusable or mismatching journal.
 */
ResumableCounts runResumable(Session &session, RunContext &ctx,
                             const ResumableRun &run);

} // namespace suit::runtime
