#include "sim/trace_cache.hh"

#include <array>
#include <optional>

#include "obs/registry.hh"
#include "trace/generator.hh"
#include "util/logging.hh"

namespace suit::sim {

using suit::trace::Trace;
using suit::trace::TraceGenerator;
using suit::trace::WorkloadProfile;

TraceCache::TraceCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes)
{
    SUIT_ASSERT(capacity_ > 0, "trace cache capacity must be > 0");
}

std::shared_ptr<const Trace>
TraceCache::get(const WorkloadProfile &profile, std::uint64_t seed,
                int stream)
{
    std::shared_ptr<const Trace> out;
    pin(profile, seed, stream, 1, &out);
    return out;
}

void
TraceCache::getMany(
    const WorkloadProfile &profile, std::uint64_t seed, int streams,
    std::vector<std::shared_ptr<const Trace>> &out)
{
    SUIT_ASSERT(streams >= 1 && streams <= kMaxStreams,
                "getMany() supports 1..%d streams, got %d",
                kMaxStreams, streams);
    out.clear();
    out.resize(static_cast<std::size_t>(streams));
    pin(profile, seed, 0, streams, out.data());
}

void
TraceCache::pin(const WorkloadProfile &profile, std::uint64_t seed,
                int first, int count, std::shared_ptr<const Trace> *out)
{
    // Slots of the streams whose trace is not yet accounted; every
    // accounted entry is answered under its own shard's lock.  Built
    // only on the first such stream: zeroing and destroying 64 empty
    // pointers would cost an all-hit call about a third of its time.
    std::optional<std::array<std::shared_ptr<Slot>, kMaxStreams>> pending;
    for (int i = 0; i < count; ++i) {
        const KeyView key{profile.name, seed, first + i};
        Shard &shard = shardFor(key);
        std::lock_guard lock(shard.mu);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            // Only a miss pays for materialising the owning key.
            it = shard.map.try_emplace(Key(key)).first;
            it->second.slot = std::make_shared<Slot>();
        } else if (!it->second.referenced) {
            // Written only when clear, so a hot entry stays clean.
            it->second.referenced = true;
        }
        const Entry &entry = it->second;
        if (entry.trace) {
            out[i] = entry.trace;
            shard.countHit();
        } else {
            if (!pending)
                pending.emplace();
            (*pending)[static_cast<std::size_t>(i)] = entry.slot;
        }
    }

    static const obs::MetricId hit_id =
        obs::metrics().counter("sim.trace_cache.hits");
    static const obs::MetricId miss_id =
        obs::metrics().counter("sim.trace_cache.misses");
    static const obs::MetricId evict_id =
        obs::metrics().counter("sim.trace_cache.evictions");

    std::uint64_t generated = 0;
    if (pending) {
        const auto &slots = *pending;
        // Build the missing traces outside every lock: distinct
        // traces build concurrently; racing callers on the *same* key
        // serialise on the slot's once_flag and generate exactly once.
        std::array<bool, kMaxStreams> built_here{};
        for (int i = 0; i < count; ++i) {
            const std::shared_ptr<Slot> &slot =
                slots[static_cast<std::size_t>(i)];
            if (!slot)
                continue;
            std::call_once(slot->once, [&] {
                auto built = std::make_shared<const Trace>(
                    TraceGenerator(seed).generate(profile, first + i));
                slot->bytes = built->memoryBytes();
                slot->trace = std::move(built);
                built_here[static_cast<std::size_t>(i)] = true;
                ++generated;
            });
            out[i] = slot->trace;
        }
        // Account every newly built entry, and count the waits on
        // someone else's generation as hits, in one clock pass.
        std::uint64_t evicted = 0;
        {
            std::lock_guard clock_lock(clockMu_);
            for (int i = 0; i < count; ++i) {
                const std::shared_ptr<Slot> &slot =
                    slots[static_cast<std::size_t>(i)];
                if (!slot)
                    continue;
                const KeyView key{profile.name, seed, first + i};
                Shard &shard = shardFor(key);
                std::lock_guard lock(shard.mu);
                if (!built_here[static_cast<std::size_t>(i)])
                    shard.countHit();
                accountLocked(shard, key, *slot);
            }
            evicted = sweepLocked();
        }
        if (evicted != 0)
            obs::metrics().add(evict_id, evicted);
    }

    const std::uint64_t hit_count =
        static_cast<std::uint64_t>(count) - generated;
    if (hit_count != 0)
        obs::metrics().add(hit_id, hit_count);
    if (generated != 0) {
        misses_.fetch_add(generated, std::memory_order_relaxed);
        obs::metrics().add(miss_id, generated);
    }
}

void
TraceCache::accountLocked(Shard &shard, const KeyView &key,
                          const Slot &slot)
{
    // A racing waiter may have accounted the entry already, and the
    // hand may even have evicted it and a new miss re-inserted it.
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.slot.get() != &slot)
        return;
    Entry &entry = it->second;
    entry.trace = slot.trace;
    entry.bytes = slot.bytes;
    entry.slot.reset();
    bytes_ += entry.bytes;
    clock_.push_back(&it->first);
}

std::uint64_t
TraceCache::sweepLocked()
{
    // Every key on the clock is accounted, so two passes suffice: the
    // first clears every reference bit it meets, the second evicts.
    std::uint64_t evicted = 0;
    std::size_t budget = 2 * clock_.size();
    while (bytes_ > capacity_ && budget-- != 0) {
        const Key *key = clock_.front();
        clock_.pop_front();
        Shard &shard = shardFor(key->view());
        std::lock_guard lock(shard.mu);
        const auto it = shard.map.find(key->view());
        SUIT_ASSERT(it != shard.map.end(),
                    "trace cache clock out of sync with its map");
        Entry &entry = it->second;
        if (entry.referenced) {
            entry.referenced = false;
            clock_.push_back(key);
            continue;
        }
        bytes_ -= entry.bytes;
        shard.map.erase(it);
        ++evicted;
    }
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
}

std::size_t
TraceCache::entries() const
{
    std::size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard lock(shard.mu);
        n += shard.map.size();
    }
    return n;
}

std::uint64_t
TraceCache::hits() const
{
    std::uint64_t n = 0;
    for (const Shard &shard : shards_)
        n += shard.hits.load(std::memory_order_relaxed);
    return n;
}

std::uint64_t
TraceCache::misses() const
{
    return misses_.load(std::memory_order_relaxed);
}

std::uint64_t
TraceCache::evictions() const
{
    return evictions_.load(std::memory_order_relaxed);
}

std::size_t
TraceCache::residentBytes() const
{
    std::lock_guard lock(clockMu_);
    return bytes_;
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace suit::sim
