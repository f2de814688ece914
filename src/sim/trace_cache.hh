/**
 * @file
 * Thread-safe, bounded memoisation of generated traces.
 *
 * Traces are pure functions of (profile, seed, stream); the benchmark
 * harnesses re-run the same workloads under many configurations
 * (Table 6 alone revisits each (CPU, workload, seed) pair once per
 * strategy x offset cell), so generation is memoised.  Each entry is
 * generated exactly once via std::call_once, without holding any
 * lock during generation (so distinct traces generate in parallel).
 *
 * The map is split into kShards cache-line-aligned shards, picked
 * from the key's hash, each with its own mutex.  A hit locks only its
 * key's shard, sets the entry's CLOCK reference bit if it is clear
 * and copies the pin: nothing shared by all keys is written, so
 * concurrent hits on different keys do not serialise.
 *
 * The cache is *bounded*: resident bytes (Trace::memoryBytes()) are
 * capped, and once an insertion exceeds the cap a CLOCK
 * (second-chance) hand evicts entries that were not referenced since
 * it last passed them.  Eviction is safe against concurrent readers
 * because get() hands out std::shared_ptr<const Trace> — an evicted
 * trace stays alive until its last user drops the pin — and it is
 * *deterministic-by-construction*: a trace is a pure function of its
 * key, so regenerating an evicted entry yields the same bytes and the
 * simulation output cannot depend on eviction order.  Entries still
 * generating are not on the clock and are never evicted.
 */

#ifndef SUIT_SIM_TRACE_CACHE_HH
#define SUIT_SIM_TRACE_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/profile.hh"
#include "trace/trace.hh"

namespace suit::sim {

/** Keyed CLOCK store of generated traces, safe for concurrent use. */
class TraceCache
{
  public:
    /**
     * Default capacity: 256 MiB of resident trace data.  At 8 bytes
     * per event (DESIGN.md, "Trace representation") that holds
     * ~3.6x (SPEC) to ~4.6x (fleet) the traces it did with 16-byte
     * events and a prefix index.
     */
    static constexpr std::size_t kDefaultCapacityBytes =
        std::size_t{256} << 20;

    explicit TraceCache(
        std::size_t capacity_bytes = kDefaultCapacityBytes);

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace for (@p profile, @p seed, @p stream), generating it
     * on first use.  The returned shared_ptr pins the trace: it
     * stays valid even if the cache evicts the entry mid-use.  Keep
     * the pin for the duration of a simulation, not longer.
     */
    std::shared_ptr<const suit::trace::Trace>
    get(const suit::trace::WorkloadProfile &profile,
        std::uint64_t seed, int stream);

    /**
     * Streams a domain can hold; bounds getMany()'s stack scratch.
     * Matches the fleet spec's per-domain core cap.
     */
    static constexpr int kMaxStreams = 64;

    /**
     * Pin streams [0, @p streams) of (@p profile, @p seed) into
     * @p out (cleared first, capacity reused) — the multi-stream
     * domain hot path.  Each pin is exactly what get() would return;
     * missing entries are generated outside every lock and accounted
     * in one pass of the clock.
     */
    void getMany(const suit::trace::WorkloadProfile &profile,
                 std::uint64_t seed, int streams,
                 std::vector<std::shared_ptr<const suit::trace::Trace>>
                     &out);

    /** Distinct traces currently resident (post-eviction). */
    std::size_t entries() const;

    /** get() calls answered without generating (telemetry). */
    std::uint64_t hits() const;

    /** get() calls that generated a trace (== total generations). */
    std::uint64_t misses() const;

    /** Entries evicted to stay under the byte cap. */
    std::uint64_t evictions() const;

    /** Bytes of resident trace data (accounted entries only). */
    std::size_t residentBytes() const;

    std::size_t capacityBytes() const { return capacity_; }

  private:
    /** FNV-1a over (name bytes, seed, stream). */
    static std::uint64_t hashKey(std::string_view name,
                                 std::uint64_t seed, int stream)
    {
        std::uint64_t h = 1469598103934665603ULL;
        const auto mix = [&h](unsigned char byte) {
            h ^= byte;
            h *= 1099511628211ULL;
        };
        for (const char c : name)
            mix(static_cast<unsigned char>(c));
        for (int i = 0; i < 8; ++i)
            mix(static_cast<unsigned char>(seed >> (8 * i)));
        const auto s = static_cast<std::uint32_t>(stream);
        for (int i = 0; i < 4; ++i)
            mix(static_cast<unsigned char>(s >> (8 * i)));
        return h;
    }

    /**
     * Borrowed view of a cache key; lookups build this instead of a
     * std::string-owning key, so a cache hit performs no allocation.
     * Profiles are identified by name (the profile database owns one
     * immutable profile per name).  The hash is computed once, when
     * the view is built, and serves both the shard pick and the
     * shard's map.
     */
    struct KeyView
    {
        std::string_view name;
        std::uint64_t seed = 0;
        int stream = 0;
        std::uint64_t hash = 0;

        KeyView(std::string_view n, std::uint64_t s, int st)
            : KeyView(n, s, st, hashKey(n, s, st))
        {}
        KeyView(std::string_view n, std::uint64_t s, int st,
                std::uint64_t h)
            : name(n), seed(s), stream(st), hash(h)
        {}
    };

    /** Owning key stored in the map, with its hash. */
    struct Key
    {
        std::string name;
        std::uint64_t seed = 0;
        int stream = 0;
        std::uint64_t hash = 0;

        explicit Key(const KeyView &v)
            : name(v.name), seed(v.seed), stream(v.stream), hash(v.hash)
        {}

        KeyView view() const { return {name, seed, stream, hash}; }
    };

    /** Transparent hash: both key forms carry it precomputed. */
    struct KeyHash
    {
        using is_transparent = void;

        std::size_t operator()(const KeyView &k) const
        {
            return static_cast<std::size_t>(k.hash);
        }
        std::size_t operator()(const Key &k) const
        {
            return static_cast<std::size_t>(k.hash);
        }
    };

    /** Transparent equality between owning keys and views. */
    struct KeyEq
    {
        using is_transparent = void;

        bool operator()(const KeyView &a, const KeyView &b) const
        {
            return a.hash == b.hash && a.seed == b.seed &&
                   a.stream == b.stream && a.name == b.name;
        }
        bool operator()(const Key &a, const KeyView &b) const
        {
            return (*this)(a.view(), b);
        }
        bool operator()(const KeyView &a, const Key &b) const
        {
            return (*this)(a, b.view());
        }
        bool operator()(const Key &a, const Key &b) const
        {
            return (*this)(a.view(), b.view());
        }
    };

    /**
     * Generation slot, shared between an in-flight map entry and any
     * caller racing the generator.  `trace` and `bytes` are written
     * once inside call_once and read only after it returns; the
     * accounting pass then copies them into the entry.
     */
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const suit::trace::Trace> trace;
        std::size_t bytes = 0;
    };

    /**
     * Map value; every field is guarded by its shard's mutex.  In
     * flight, `slot` is set and `trace` is null; once generated and
     * accounted, `trace` holds the cache's pin (a hit copies it
     * without touching the slot) and `slot` is released.
     */
    struct Entry
    {
        std::shared_ptr<Slot> slot;
        std::shared_ptr<const suit::trace::Trace> trace;
        /** Resident bytes charged for `trace`. */
        std::size_t bytes = 0;
        /** CLOCK reference bit: set by a lookup, cleared by the hand. */
        bool referenced = false;
    };

    /** One lock domain; aligned so shards never share a line. */
    struct alignas(64) Shard
    {
        mutable std::mutex mu;
        std::unordered_map<Key, Entry, KeyHash, KeyEq> map;
        /** Written only under `mu`; read lock-free by hits(). */
        std::atomic<std::uint64_t> hits{0};

        /** Count one hit; caller holds `mu`, so no RMW is needed. */
        void countHit()
        {
            hits.store(hits.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        }
    };

    static constexpr int kShardBits = 6;
    static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

    Shard &shardFor(const KeyView &key)
    {
        // The top bits: the maps index buckets by the low ones.
        return shards_[key.hash >> (64 - kShardBits)];
    }

    /**
     * Pin streams [@p first, @p first + @p count) of (@p profile,
     * @p seed) into out[0, count): the body of get() and getMany().
     */
    void pin(const suit::trace::WorkloadProfile &profile,
             std::uint64_t seed, int first, int count,
             std::shared_ptr<const suit::trace::Trace> *out);

    /**
     * Publish @p slot's trace in its entry, cost its bytes and put
     * its key on the clock, if @p shard still maps @p key to that
     * slot in flight.  Caller holds clockMu_ and the shard's mutex.
     */
    void accountLocked(Shard &shard, const KeyView &key,
                       const Slot &slot);

    /**
     * Run the second-chance hand until bytes_ <= capacity_; returns
     * the entries evicted.  Caller holds clockMu_ (and no shard).
     */
    std::uint64_t sweepLocked();

    std::array<Shard, kShards> shards_;

    /** Guards clock_ and bytes_; taken before any shard mutex. */
    mutable std::mutex clockMu_;
    /** Accounted keys in hand order; point at map node keys. */
    std::deque<const Key *> clock_;
    std::size_t capacity_;
    std::size_t bytes_ = 0;
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/**
 * The process-wide cache used by runWorkload() when no explicit
 * cache is passed (keeps the serial single-run tools allocation-free
 * across repeated calls, exactly like the old static map).
 */
TraceCache &globalTraceCache();

} // namespace suit::sim

#endif // SUIT_SIM_TRACE_CACHE_HH
