/**
 * @file
 * One iteration of a workload through the engines' public entry
 * points, in the order the CLIs call them, with tracing off.
 *
 *   fleet_1m:        FleetSpec::parse -> runtime::Session ->
 *                    FleetEngine::run -> fleet::renderReportJson
 *   sweep_cold:      runtime::Session -> SweepEngine::run
 *   sweep_journaled: runtime::Session -> SweepEngine::run (journal,
 *                    cancelled after half the cells) ->
 *                    SweepEngine::run (resume)
 *   o3_imul:         uarch::runMixAtImulLatency (ProgramGenerator +
 *                    O3Model::run) over the Fig. 14 grid
 */
#ifndef PERFBENCH_ENGINES_HH
#define PERFBENCH_ENGINES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hh"
#include "sim/domain_sim.hh"
#include "uarch/program.hh"

namespace perfbench {

/** What one iteration produced, checked against the expected digest. */
struct Outputs
{
    /**
     * FNV-1a digest of the simulated outputs: the fleet report JSON
     * bytes, the serialized sweep results in cell order, or the O3
     * cycle counts in run order.
     */
    std::uint64_t digest = 0;
    /** Units attempted: domains, cells or simulated instructions. */
    std::uint64_t units = 0;
    /** Units missing or failed according to the engine itself. */
    std::uint64_t failedUnits = 0;
    /** Structural checks passed (fleet::checkReportJson, journal). */
    bool checksOk = true;
    std::string problem;
    /**
     * The model's headline number in percent: SPEC gmean efficiency
     * delta (sweep_cold), x264-like slowdown at 4 cycles (o3_imul);
     * NaN for the other workloads.
     */
    double headlinePct = 0.0;
};

struct Timing
{
    /** Before the call that starts the work. */
    double setupS = 0.0;
    /** Start of the workload to its checked final output. */
    double wallS = 0.0;
    /** sweep_journaled: journal load to checked final results. */
    double resumeS = 0.0;
};

struct Iteration
{
    Outputs out;
    Timing time;
};

/** Where a workload's journal lives and how many workers it gets. */
struct RunEnv
{
    int jobs = 4;
    std::string journalPath;
};

/** Run one iteration of @p w through the engines. */
Iteration runEngines(Workload w, std::uint64_t seed, const Size &size,
                     const RunEnv &env);

/** Only the set-up part of an iteration (returns seconds). */
double setupOnly(Workload w, std::uint64_t seed, const Size &size,
                 const RunEnv &env);

/**
 * Outputs of a fleet run from its rendered report: digest, the
 * fleet::checkReportJson verdict, and domains missing from the
 * @p accumulated total.
 */
Outputs fleetOutputs(const std::string &report, std::uint64_t domains,
                     std::uint64_t accumulated);

/**
 * Outputs of a sweep from its index-addressed results (@p done marks
 * the completed cells).  A journaled sweep also checks that the
 * journal at @p journal_path holds exactly these results.
 */
Outputs sweepOutputs(Workload w,
                     const std::vector<suit::sim::DomainResult> &results,
                     const std::vector<std::uint8_t> &done,
                     const std::string &journal_path);

/**
 * Outputs of the Fig. 14 grid from its cycle counts in run order
 * (latency-major: the baseline of every mix first).
 */
Outputs o3Outputs(const std::vector<suit::uarch::ProgramMix> &mixes,
                  const std::vector<std::uint64_t> &cycles,
                  std::uint64_t instructions);

} // namespace perfbench

#endif // PERFBENCH_ENGINES_HH
