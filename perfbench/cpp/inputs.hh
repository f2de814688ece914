/**
 * @file
 * Workload inputs of the repository benchmark, built from the seed.
 *
 * Every workload is one closed batch: a single caller hands the
 * engine one input and waits for the final report.  The input is a
 * pure function of (workload, seed, size), so the same seed always
 * gives the same fleet spec text, sweep grid and program mixes.
 */
#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/sweep.hh"
#include "power/cpu_model.hh"
#include "trace/profile.hh"

namespace perfbench {

/** The seed whose output digests are pinned in pinned_digests.json. */
constexpr std::uint64_t kDefaultSeed = 7;

enum class Workload { Fleet1m, SweepCold, SweepJournaled, O3Imul };

/** Parse a workload name; returns false for an unknown one. */
bool workloadByName(const std::string &name, Workload &out);

/**
 * Input size.  `full` is the benchmark proper; `smoke` is a few
 * percent of it, for the benchmark's own tests.
 */
struct Size
{
    std::uint64_t fleetDomains = 1'000'000;
    int coldReps = 40;
    /** Workload profiles of the journaled grid (0 = all 25). */
    std::size_t journaledWorkloads = 0;
    std::size_t o3Instructions = 400'000;

    static Size full() { return {}; }
    static Size smoke() { return {20'000, 2, 4, 40'000}; }
};

/** Fleet spec text: the demo fleet at @p domains with @p seed. */
std::string fleetSpecText(std::uint64_t seed, std::uint64_t domains);

/**
 * A sweep grid: owns the CPU models and profiles its jobs point
 * into, so it is neither copyable nor movable.
 */
struct SweepGrid
{
    SweepGrid() = default;
    SweepGrid(const SweepGrid &) = delete;
    SweepGrid &operator=(const SweepGrid &) = delete;

    std::vector<std::unique_ptr<suit::power::CpuModel>> cpus;
    std::vector<suit::trace::WorkloadProfile> profiles;
    std::vector<suit::exec::SweepJob> jobs;
};

/**
 * Enumerate the grid of a sweep workload in suit_sweep's nested
 * order (cpu, strategy, offset, workload, rep), seeding rep 0 with
 * the root seed and later reps with exec::deriveSeed(root, cell).
 */
std::unique_ptr<SweepGrid> buildSweepGrid(Workload w,
                                          std::uint64_t seed,
                                          const Size &size);

/**
 * sweep_journaled lands its journal on disk every this many cells
 * (suit_sweep --checkpoint-flush 8).  Flushing after every cell made
 * the workload's run time swing 2-4x whenever the shared disk was
 * busy (run-to-run spread 38 % over 10 seeds); batches of 8 keep
 * every journal path busy with an eighth of the fsyncs and rewrites.
 */
constexpr int kJournalFlushEvery = 8;

/** Fig. 14 latencies: the stock baseline first, then the sweep. */
const std::vector<int> &o3Latencies();

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
