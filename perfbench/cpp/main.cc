/**
 * @file
 * suit_perfbench: the measuring half of the repository benchmark
 * (perfbench/run.py builds it, supplies the expected digest and
 * prints the result).
 *
 *   suit_perfbench --workload NAME --seed N --mode MODE [options]
 *
 * Modes:
 *   reference  one serial (jobs = 1) iteration; prints its digest
 *   setup      the set-up of one iteration in this fresh process, as a
 *              CLI invocation pays it
 *   timed      iterations with tracing off for --seconds; prints the
 *              end-to-end metrics
 *   traced     alternates untraced engine iterations with traced
 *              replica iterations for --seconds; prints the
 *              per-layer metrics and writes the spans to --trace-out
 *
 * Every mode prints one JSON object as its last stdout line.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "engines.hh"
#include "obs/validate.hh"
#include "replica.hh"
#include "tracer.hh"

namespace {

using namespace perfbench;

struct Options
{
    Workload workload = Workload::Fleet1m;
    std::uint64_t seed = kDefaultSeed;
    std::string mode;
    double seconds = 10.0;
    bool smoke = false;
    bool haveExpect = false;
    std::uint64_t expect = 0;
    int jobs = 4;
    std::string journalPath = "perfbench.journal";
    std::string traceOut;
    bool perturbReplica = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "suit_perfbench: %s\n"
                 "usage: suit_perfbench --workload NAME --seed N --mode "
                 "reference|setup|timed|traced [--seconds S] [--expect HEX] "
                 "[--jobs N] [--journal PATH] [--trace-out PATH] "
                 "[--smoke] [--perturb-replica]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            if (!workloadByName(value(), o.workload))
                usage("unknown workload");
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--mode") {
            o.mode = value();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--expect") {
            o.expect = std::strtoull(value().c_str(), nullptr, 16);
            o.haveExpect = true;
        } else if (arg == "--jobs") {
            o.jobs = std::atoi(value().c_str());
        } else if (arg == "--journal") {
            o.journalPath = value();
        } else if (arg == "--trace-out") {
            o.traceOut = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--perturb-replica") {
            o.perturbReplica = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.mode != "reference" && o.mode != "setup" && o.mode != "timed" &&
        o.mode != "traced")
        usage("--mode must be reference, setup, timed or traced");
    if ((o.mode == "timed" || o.mode == "traced") && !o.haveExpect)
        usage("--expect is required outside reference mode");
    if (o.jobs < 1)
        usage("--jobs must be >= 1");
    return o;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** This process's resident high-water mark (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(1 << 20, '\n');
    }
    return std::nan("");
}

/** Tally of checked units over every iteration of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Counts @p out; a digest mismatch fails all of its units. */
    void check(const Outputs &out, std::uint64_t expect, const char *who)
    {
        attempted += out.units;
        std::string problem = out.problem;
        if (out.digest != expect) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "%s digest %016llx != expected %016llx", who,
                          static_cast<unsigned long long>(out.digest),
                          static_cast<unsigned long long>(expect));
            problem = buf;
        }
        if (!problem.empty() || !out.checksOk) {
            failed += out.units;
            problems.push_back(problem);
        } else {
            failed += out.failedUnits;
        }
    }
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
tallyJson(const Tally &tally)
{
    std::string problems = "[";
    for (std::size_t i = 0; i < tally.problems.size() && i < 4; ++i)
        problems += (i ? ", " : "") + quoted(tally.problems[i]);
    problems += "]";
    return "\"attempted\": " + std::to_string(tally.attempted) +
           ", \"failed\": " + std::to_string(tally.failed) +
           ", \"problems\": " + problems;
}

int
runReference(const Options &o, const Size &size)
{
    RunEnv env;
    env.jobs = 1;
    env.journalPath = o.journalPath;
    const Iteration it = runEngines(o.workload, o.seed, size, env);
    const bool ok = it.out.checksOk && it.out.failedUnits == 0;
    std::printf("{\"mode\": \"reference\", \"digest\": \"%s\", "
                "\"ok\": %s, \"units\": %llu, \"headline_pct\": %s}\n",
                hex(it.out.digest).c_str(), ok ? "true" : "false",
                static_cast<unsigned long long>(it.out.units),
                num(it.out.headlinePct).c_str());
    return ok ? 0 : 1;
}

constexpr int kMinIterations = 3;

int
runSetup(const Options &o, const Size &size)
{
    RunEnv env;
    env.jobs = o.jobs;
    std::printf("{\"mode\": \"setup\", \"setup_s\": %s}\n",
                num(setupOnly(o.workload, o.seed, size, env)).c_str());
    return 0;
}

int
runTimed(const Options &o, const Size &size)
{
    RunEnv env;
    env.jobs = o.jobs;
    env.journalPath = o.journalPath;

    Tally tally;
    std::vector<double> walls, rates, resumes;
    double peak_rss = 0.0;
    double headline = std::nan("");
    const auto start = Clock::now();
    while (static_cast<int>(walls.size()) < kMinIterations ||
           secondsBetween(start, Clock::now()) < o.seconds) {
        const Iteration it = runEngines(o.workload, o.seed, size, env);
        // The fresh process's mark after its first iteration is what
        // one CLI invocation peaks at; later iterations would add the
        // heap the allocator kept from earlier ones.
        if (walls.empty())
            peak_rss = peakRssMb();
        tally.check(it.out, o.expect, "engine");
        walls.push_back(it.time.wallS);
        rates.push_back(static_cast<double>(it.out.units) /
                        (it.time.wallS - it.time.setupS));
        resumes.push_back(it.time.resumeS);
        headline = it.out.headlinePct;
    }
    std::printf(
        "{\"mode\": \"timed\", \"iterations\": %zu, \"wall_s\": %s, "
        "\"wall_s_min\": %s, \"wall_s_max\": %s, \"units_per_s\": %s, "
        "\"peak_rss_mb\": %s, \"resume_s\": %s, \"headline_pct\": %s, "
        "%s}\n",
        walls.size(), num(median(walls)).c_str(),
        num(quantile(walls, 0.0)).c_str(),
        num(quantile(walls, 1.0)).c_str(), num(median(rates)).c_str(),
        num(peak_rss).c_str(),
        num(o.workload == Workload::SweepJournaled ? median(resumes)
                                                   : std::nan(""))
            .c_str(),
        num(headline).c_str(), tallyJson(tally).c_str());
    return 0;
}

int
runTraced(const Options &o, const Size &size)
{
    RunEnv env;
    env.jobs = o.jobs;
    env.journalPath = o.journalPath;

    Tally tally;
    std::vector<double> plain_walls, traced_walls;
    TracedIteration last;
    const auto start = Clock::now();
    while (static_cast<int>(traced_walls.size()) < 2 ||
           secondsBetween(start, Clock::now()) < o.seconds) {
        const Iteration plain = runEngines(o.workload, o.seed, size, env);
        tally.check(plain.out, o.expect, "engine");
        plain_walls.push_back(plain.time.wallS);

        last = runReplica(o.workload, o.seed, size, env, o.perturbReplica);
        tally.check(last.out, o.expect, "replica");
        traced_walls.push_back(last.time.wallS);
    }
    last.layers["bench.trace_overhead_pct"] =
        100.0 * (median(traced_walls) / median(plain_walls) - 1.0);

    const suit::obs::CheckResult trace_check =
        suit::obs::checkChromeTrace(last.chromeJson);
    if (!trace_check.ok) {
        tally.failed = tally.attempted;
        tally.problems.push_back("trace: " + trace_check.error);
    }
    if (!o.traceOut.empty()) {
        std::ofstream file(o.traceOut, std::ios::binary);
        file << last.chromeJson;
        if (!file) {
            tally.failed = tally.attempted;
            tally.problems.push_back("cannot write " + o.traceOut);
        }
    }

    std::string layers = "{";
    for (const auto &[name, value] : last.layers)
        layers += (layers.size() > 1 ? ", " : "") + quoted(name) + ": " +
                  num(value);
    layers += "}";
    std::printf("{\"mode\": \"traced\", \"iterations\": %zu, "
                "\"plain_wall_s\": %s, \"traced_wall_s\": %s, "
                "\"layers\": %s, %s}\n",
                traced_walls.size(), num(median(plain_walls)).c_str(),
                num(median(traced_walls)).c_str(), layers.c_str(),
                tallyJson(tally).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const Size size = o.smoke ? Size::smoke() : Size::full();
    try {
        if (o.mode == "reference")
            return runReference(o, size);
        if (o.mode == "setup")
            return runSetup(o, size);
        if (o.mode == "timed")
            return runTimed(o, size);
        return runTraced(o, size);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "suit_perfbench: %s\n", e.what());
        return 1;
    }
}
