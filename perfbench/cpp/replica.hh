/**
 * @file
 * The traced run: a replica of each engine's unit loop, driven from
 * the benchmark through the same public calls the engines make, with
 * a span or a folded counter at every layer boundary.
 *
 *   fleet:  FleetSpec::domainAt -> TraceCache::getMany ->
 *           DomainSimulator::reset/runInto on Session::workspace() ->
 *           FleetAccumulator::addDomain -> shard-order merge ->
 *           renderReportJson
 *   sweeps: TraceCache::getMany -> DomainSimulator::reset/runInto ->
 *           CheckpointJournal::start/append/flush/load
 *   o3:     ProgramGenerator::generate -> O3Model::run
 *
 * The engines run their unit loops internally, so this is the only
 * way to time the layers without changing the program.  The replica's
 * outputs are digested exactly like the engines' (engines.hh) and must
 * match them byte for byte; otherwise the traced run fails.
 */
#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <map>
#include <string>

#include "engines.hh"

namespace perfbench {

struct TracedIteration
{
    Outputs out;
    Timing time;
    /** Per-layer metrics by name (see perfbench/README.md). */
    std::map<std::string, double> layers;
    /** The iteration's spans as Chrome trace_event JSON. */
    std::string chromeJson;
};

/**
 * Run one traced iteration of @p w.  @p perturb makes the replica
 * diverge from the engine on purpose (one domain, cell or program
 * gets another seed); the benchmark's tests use it to show that a
 * diverging replica fails the traced run.
 */
TracedIteration runReplica(Workload w, std::uint64_t seed,
                           const Size &size, const RunEnv &env,
                           bool perturb);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
