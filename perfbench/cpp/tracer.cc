#include "tracer.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "exec/thread_pool.hh"
#include "util/format.hh"

namespace perfbench {

void
LogHist::add(std::uint64_t ns)
{
    ns = std::max<std::uint64_t>(ns, 8);
    const int octave = 63 - std::countl_zero(ns);
    const int sub = static_cast<int>((ns >> (octave - 3)) & 7);
    const int idx =
        std::min((octave - 3) * kSub + sub, kSub * kOctaves - 1);
    ++buckets_[static_cast<std::size_t>(idx)];
    ++count_;
}

void
LogHist::merge(const LogHist &other)
{
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
LogHist::quantileNs(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= std::max<std::uint64_t>(rank, 1)) {
            const int octave = static_cast<int>(i) / kSub + 3;
            const int sub = static_cast<int>(i) % kSub;
            const double lo = std::ldexp(8.0 + sub, octave - 3);
            const double hi = std::ldexp(9.0 + sub, octave - 3);
            return std::sqrt(lo * hi);
        }
    }
    return 0.0;
}

void
Folded::merge(const Folded &o)
{
    lookups += o.lookups;
    hitCalls += o.hitCalls;
    hitNs += o.hitNs;
    hitHist.merge(o.hitHist);
    missEvents += o.missEvents;
    missNs += o.missNs;
    simCalls += o.simCalls;
    events += o.events;
    simNs += o.simNs;
    simHist.merge(o.simHist);
    expanded += o.expanded;
    expandNs += o.expandNs;
    accumulated += o.accumulated;
    accumulateNs += o.accumulateNs;
}

Tracer::Tracer(int slots)
    : origin_(Clock::now()),
      spans_(static_cast<std::size_t>(slots)),
      folded_(static_cast<std::size_t>(slots))
{
    for (auto &s : spans_)
        s.reserve(4096);
}

int
Tracer::slot()
{
    return suit::exec::ThreadPool::currentWorkerIndex() + 1;
}

void
Tracer::add(const Span &span)
{
    spans_[static_cast<std::size_t>(slot())].push_back(span);
}

Folded &
Tracer::folded()
{
    return folded_[static_cast<std::size_t>(slot())];
}

Folded
Tracer::totalFolded() const
{
    Folded total;
    for (const Folded &f : folded_)
        total.merge(f);
    return total;
}

std::vector<Span>
Tracer::spansNamed(const char *name) const
{
    std::vector<Span> out;
    for (const auto &s : spans_) {
        for (const Span &span : s) {
            if (std::string_view(span.name) == name)
                out.push_back(span);
        }
    }
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::map<std::string, double> self;
    for (const auto &thread_spans : spans_) {
        std::vector<Span> sorted = thread_spans;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Span &a, const Span &b) {
                      if (a.startUs != b.startUs)
                          return a.startUs < b.startUs;
                      return a.durUs > b.durUs;
                  });
        std::vector<double> covered(sorted.size(), 0.0);
        std::vector<std::size_t> open; // stack of enclosing spans
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            const Span &s = sorted[i];
            while (!open.empty()) {
                const Span &top = sorted[open.back()];
                if (top.startUs + top.durUs > s.startUs)
                    break;
                open.pop_back();
            }
            if (!open.empty()) {
                const Span &parent = sorted[open.back()];
                const double end =
                    std::min(s.startUs + s.durUs,
                             parent.startUs + parent.durUs);
                covered[open.back()] += end - s.startUs;
            }
            open.push_back(i);
        }
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            const Span &s = sorted[i];
            self[s.layer] += 1e-6 * std::max(
                0.0, s.durUs - covered[i] - s.foldedSimUs);
            self["sim"] += 1e-6 * s.foldedSimUs;
        }
    }
    return self;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    const auto line = [&](const std::string &event) {
        if (!first)
            out += ",\n";
        first = false;
        out += event;
    };
    for (std::size_t tid = 0; tid < spans_.size(); ++tid) {
        line(suit::util::sformat(
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
            "\"name\": \"thread_name\", \"args\": {\"name\": \"%s\"}}",
            tid,
            tid == 0 ? "bench"
                     : suit::util::sformat("worker %zu", tid - 1)
                           .c_str()));
    }
    for (std::size_t tid = 0; tid < spans_.size(); ++tid) {
        for (const Span &s : spans_[tid]) {
            line(suit::util::sformat(
                "{\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                "\"ts\": %.3f, \"dur\": %.3f, \"name\": \"%s\", "
                "\"cat\": \"%s\", \"args\": {\"index\": %llu, "
                "\"folded_sim_us\": %.3f}}",
                tid, s.startUs, s.durUs, s.name, s.layer,
                static_cast<unsigned long long>(s.index),
                s.foldedSimUs));
        }
    }
    out += "\n],\n\"displayTimeUnit\": \"ms\"}\n";
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
unionUs(std::vector<Span> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return a.startUs < b.startUs;
              });
    double total = 0.0;
    double cur_start = 0.0;
    double cur_end = -1.0;
    for (const Span &s : spans) {
        const double end = s.startUs + s.durUs;
        if (s.startUs > cur_end) {
            if (cur_end > cur_start)
                total += cur_end - cur_start;
            cur_start = s.startUs;
            cur_end = end;
        } else {
            cur_end = std::max(cur_end, end);
        }
    }
    if (cur_end > cur_start)
        total += cur_end - cur_start;
    return total;
}

} // namespace perfbench
