/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Unit-sized calls (cells, shards, cache misses, journal appends,
 * program generations, O3 runs) get one Span each.  Sub-microsecond
 * per-domain calls are folded into per-thread counters and
 * log-bucketed histograms instead, which bounds memory and overhead.
 * Every thread writes only its own slot (slot 0: the calling thread,
 * slot i + 1: pool worker i), so recording takes no lock; the slots
 * are read after the parallel section has joined.
 */
#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/**
 * Log-bucketed histogram of nanosecond durations: 8 buckets per
 * octave, so a quantile read at a bucket's geometric midpoint is
 * within about 4.5 % of the true value.
 */
class LogHist
{
  public:
    void add(std::uint64_t ns);
    void merge(const LogHist &other);
    /** Quantile @p q in [0, 1], in nanoseconds (0 when empty). */
    double quantileNs(double q) const;

  private:
    static constexpr int kSub = 8;
    static constexpr int kOctaves = 44;
    std::array<std::uint64_t, kSub * kOctaves> buckets_{};
    std::uint64_t count_ = 0;
};

/** One recorded call. */
struct Span
{
    const char *name = "";
    /** Layer the call belongs to (a src/ module name, or "bench"). */
    const char *layer = "";
    double startUs = 0.0;
    double durUs = 0.0;
    /** Unit index (shard, cell, run), or 0. */
    std::uint64_t index = 0;
    /**
     * Folded sim-layer time measured inside this span (per-domain
     * simulation and cache hits of a shard); subtracted from this
     * span's self time and credited to the sim layer.
     */
    double foldedSimUs = 0.0;
};

/** Per-thread folded counters of the per-domain calls. */
struct Folded
{
    std::uint64_t lookups = 0;   //!< streams looked up in the cache
    std::uint64_t hitCalls = 0;  //!< cache calls that generated nothing
    double hitNs = 0.0;
    LogHist hitHist;
    std::uint64_t missEvents = 0;
    double missNs = 0.0;
    std::uint64_t simCalls = 0;
    std::uint64_t events = 0;
    double simNs = 0.0;
    LogHist simHist;
    std::uint64_t expanded = 0;
    double expandNs = 0.0;
    std::uint64_t accumulated = 0;
    double accumulateNs = 0.0;

    void merge(const Folded &other);
};

class Tracer
{
  public:
    /** @param slots calling thread + pool workers. */
    explicit Tracer(int slots);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Microseconds since construction. */
    double nowUs() const { return usAt(Clock::now()); }
    double usAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    /** The calling thread's slot. */
    static int slot();

    void add(const Span &span);
    Folded &folded();

    Folded totalFolded() const;
    /** Spans named @p name, all threads. */
    std::vector<Span> spansNamed(const char *name) const;

    /**
     * Self seconds per layer, summed over threads: each span's
     * duration minus the spans it covers on its thread (and minus its
     * folded sim time, which is credited to "sim").
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Chrome trace_event JSON, one event per line. */
    std::string chromeJson() const;

  private:
    Clock::time_point origin_;
    std::vector<std::vector<Span>> spans_;
    std::vector<Folded> folded_;
};

/** Records one Span from construction to destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, const char *layer,
               std::uint64_t index = 0)
        : tracer_(tracer), start_(tracer.nowUs())
    {
        span_.name = name;
        span_.layer = layer;
        span_.index = index;
    }
    ~ScopedSpan()
    {
        span_.startUs = start_;
        span_.durUs = tracer_.nowUs() - start_;
        tracer_.add(span_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void addFoldedSim(double us) { span_.foldedSimUs += us; }

  private:
    Tracer &tracer_;
    double start_;
    Span span_;
};

/** Exact quantile of @p values (sorted copy; 0 when empty). */
double quantile(std::vector<double> values, double q);

/** Length of the union of [start, start + dur) intervals. */
double unionUs(std::vector<Span> spans);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
