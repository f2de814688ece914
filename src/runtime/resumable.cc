#include "runtime/resumable.hh"

#include <atomic>
#include <vector>

#include "util/format.hh"
#include "util/logging.hh"

namespace suit::runtime {

using suit::exec::CellRecord;
using suit::exec::CheckpointJournal;
using suit::exec::JournalError;

ResumableCounts
runResumable(Session &session, RunContext &ctx, const ResumableRun &run)
{
    const CheckpointPolicy &ckpt = ctx.checkpoint;
    if (ckpt.resume && ckpt.path.empty())
        throw JournalError("resume requires a checkpoint path");

    const std::size_t n = run.units;
    ResumableCounts counts;
    std::vector<std::uint8_t> restored(n, 0);

    CheckpointJournal journal;
    if (!ckpt.path.empty()) {
        std::vector<CellRecord> seed;
        if (ckpt.resume) {
            suit::exec::JournalContents loaded =
                CheckpointJournal::load(ckpt.path);
            const suit::exec::GridFingerprint &fp = run.fingerprint;
            if (loaded.fingerprint != fp)
                throw JournalError(suit::util::sformat(
                    "checkpoint '%s' belongs to a different %s "
                    "(journal: %llu %ss, fingerprint %016llx; this "
                    "run: %llu %ss, fingerprint %016llx) — "
                    "refusing to mix results",
                    ckpt.path.c_str(), run.scope,
                    static_cast<unsigned long long>(
                        loaded.fingerprint.cells),
                    run.unit,
                    static_cast<unsigned long long>(
                        loaded.fingerprint.hash),
                    static_cast<unsigned long long>(fp.cells),
                    run.unit,
                    static_cast<unsigned long long>(fp.hash)));
            if (loaded.droppedBytes != 0)
                suit::util::warn(
                    "checkpoint '%s': dropped %zu trailing bytes of "
                    "a torn record; the affected %s will re-run",
                    ckpt.path.c_str(), loaded.droppedBytes, run.unit);
            // Failed records are dropped so the resume re-attempts
            // those units; the first usable record of an index wins.
            for (CellRecord &record : loaded.records) {
                if (record.failed || record.index >= n ||
                    restored[record.index])
                    continue;
                if (!run.restore(record)) {
                    suit::util::warn(
                        "checkpoint '%s': the record of %s %llu is "
                        "unusable; the %s will re-run",
                        ckpt.path.c_str(), run.unit,
                        static_cast<unsigned long long>(record.index),
                        run.unit);
                    continue;
                }
                restored[record.index] = 1;
                ++counts.restored;
                seed.push_back(std::move(record));
            }
        }
        journal.start(ckpt.path, run.fingerprint, std::move(seed));
        journal.setFlushInterval(ckpt.flushInterval);
    }

    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> skipped{0};
    const CancelToken &token = ctx.token();

    const auto runOne = [&](std::size_t i) {
        if (restored[i])
            return;
        if (token.cancelled()) {
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        try {
            const CellRecord record = run.run(i);
            if (journal.active())
                journal.append(record);
        } catch (const Cancelled &) {
            // The token tripped mid-unit: the unit never ran as far
            // as the journal and the counts are concerned — a resume
            // recomputes it from scratch, bit-identical.
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        executed.fetch_add(1, std::memory_order_relaxed);
    };

    if (suit::exec::ThreadPool *pool = session.pool()) {
        pool->parallelFor(n, runOne);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    }
    // Land any batch tail now (including after a cancellation), so
    // every finished unit is on disk for a resume.
    journal.flush();

    counts.executed = executed.load();
    counts.skipped = skipped.load();
    counts.interrupted = token.cancelled();
    return counts;
}

} // namespace suit::runtime
