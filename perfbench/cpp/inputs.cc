#include "inputs.hh"

#include <algorithm>
#include <limits>

#include "core/params.hh"
#include "util/format.hh"

namespace perfbench {

using suit::core::StrategyKind;

namespace {

struct WorkloadEntry
{
    const char *name;
    Workload workload;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"fleet_1m", Workload::Fleet1m},
    {"sweep_cold", Workload::SweepCold},
    {"sweep_journaled", Workload::SweepJournaled},
    {"o3_imul", Workload::O3Imul},
};

std::unique_ptr<suit::power::CpuModel>
cpuByName(char name)
{
    switch (name) {
    case 'A':
        return std::make_unique<suit::power::CpuModel>(
            suit::power::cpuA_i9_9900k());
    case 'B':
        return std::make_unique<suit::power::CpuModel>(
            suit::power::cpuB_ryzen7700x());
    default:
        return std::make_unique<suit::power::CpuModel>(
            suit::power::cpuC_xeon4208());
    }
}

} // namespace

bool
workloadByName(const std::string &name, Workload &out)
{
    for (const WorkloadEntry &entry : kWorkloads) {
        if (name == entry.name) {
            out = entry.workload;
            return true;
        }
    }
    return false;
}

std::string
fleetSpecText(std::uint64_t seed, std::uint64_t domains)
{
    // FleetSpec::demo's five racks (40:25:20:10:5 of the domains)
    // with the workload seed in place of the demo's seed 7, written
    // out as spec text so the engine receives only parsed input.
    // The one change: 256 trace variants per workload (128 for netsim)
    // instead of 4 (2).  With the demo's 22 traces the simulated event
    // count of the fleet varies by 19 % (CV over 12 seeds), because
    // each trace serves ~45 k domains; with 1408 traces it varies by
    // 3.6 %.  Lookups still hit 99.86 % of the time.
    const std::uint64_t shares[] = {40, 25, 20, 10, 5};
    std::uint64_t counts[5];
    std::uint64_t assigned = 0;
    for (int r = 0; r < 5; ++r) {
        counts[r] = std::max<std::uint64_t>(1, domains * shares[r] / 100);
        assigned += counts[r];
    }
    counts[0] += domains > assigned ? domains - assigned : 0;
    // FleetSpec seeds are positive longs; fold any other seed into
    // that range (seeds 1 .. LONG_MAX pass through unchanged).
    const std::uint64_t max_seed = std::numeric_limits<long>::max();
    const std::uint64_t spec_seed =
        seed % max_seed == 0 ? max_seed : seed % max_seed;
    return suit::util::sformat(
        "name = demo\n"
        "seed = %llu\n"
        "pue = 1.4\n"
        "cost_usd_per_kwh = 0.10\n"
        "trace_scale = 0.002\n"
        "rack web    cpu=C domains=%llu workloads=Nginx:4,VLC:1 "
        "strategy=fV,hybrid offset=-97 variants=256\n"
        "rack logs   cpu=C domains=%llu workloads=557.xz "
        "strategy=e,fV offset=-97 variants=256\n"
        "rack build  cpu=A domains=%llu workloads=502.gcc "
        "strategy=hybrid offset=-70,-97 variants=256\n"
        "rack render cpu=C domains=%llu workloads=526.blender "
        "strategy=fV offset=-97 variants=256\n"
        "rack netsim cpu=B domains=%llu workloads=520.omnetpp "
        "strategy=V offset=-70 variants=128\n",
        static_cast<unsigned long long>(spec_seed),
        static_cast<unsigned long long>(counts[0]),
        static_cast<unsigned long long>(counts[1]),
        static_cast<unsigned long long>(counts[2]),
        static_cast<unsigned long long>(counts[3]),
        static_cast<unsigned long long>(counts[4]));
}

std::unique_ptr<SweepGrid>
buildSweepGrid(Workload w, std::uint64_t seed, const Size &size)
{
    auto grid = std::make_unique<SweepGrid>();
    std::vector<StrategyKind> strategies;
    std::vector<double> offsets;
    int reps = 1;
    if (w == Workload::SweepCold) {
        // suit_sweep --cpu C --strategy fV --offset -97
        //            --workload spec --reps 40
        grid->cpus.push_back(cpuByName('C'));
        strategies = {StrategyKind::CombinedFv};
        offsets = {-97.0};
        grid->profiles = suit::trace::specProfiles();
        reps = size.coldReps;
    } else {
        // The crash-safe Table 6 grid: suit_sweep --cpu A,B,C
        //   --strategy e,f,V,fV,hybrid --offset -50,-70,-97
        //   --workload all --checkpoint ...
        for (char cpu : {'A', 'B', 'C'})
            grid->cpus.push_back(cpuByName(cpu));
        strategies = {StrategyKind::Emulation, StrategyKind::Frequency,
                      StrategyKind::Voltage, StrategyKind::CombinedFv,
                      StrategyKind::Hybrid};
        offsets = {-50.0, -70.0, -97.0};
        grid->profiles = suit::trace::allProfiles();
        if (size.journaledWorkloads != 0 &&
            size.journaledWorkloads < grid->profiles.size())
            grid->profiles.resize(size.journaledWorkloads);
    }

    std::uint64_t cell = 0;
    for (const auto &cpu : grid->cpus) {
        for (StrategyKind strategy : strategies) {
            for (double offset : offsets) {
                for (const auto &profile : grid->profiles) {
                    for (int r = 0; r < reps; ++r, ++cell) {
                        suit::sim::EvalConfig cfg;
                        cfg.cpu = cpu.get();
                        cfg.cores = 1;
                        cfg.offsetMv = offset;
                        cfg.strategy = strategy;
                        cfg.params = suit::core::optimalParams(*cpu);
                        cfg.seed = r == 0
                                       ? seed
                                       : suit::exec::deriveSeed(seed, cell);
                        grid->jobs.push_back({profile.name, cfg, &profile});
                    }
                }
            }
        }
    }
    return grid;
}

const std::vector<int> &
o3Latencies()
{
    static const std::vector<int> latencies = {3, 3, 4, 5, 6, 15, 30};
    return latencies;
}

} // namespace perfbench
