/**
 * @file
 * Synthetic program generation for the out-of-order model.
 *
 * SPEC CPU2017 binaries are not redistributable, so the latency
 * study runs on synthetic instruction streams whose first-order
 * statistics (op-class mix, IMUL density, dependency locality,
 * branch behaviour, memory footprint) match the benchmark being
 * imitated — the same role SPECcast's representative slices play in
 * the paper's gem5 runs (Sec. 6.1).
 */

#ifndef SUIT_UARCH_PROGRAM_HH
#define SUIT_UARCH_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "uarch/inst.hh"

namespace suit::uarch {

/** Statistical description of a workload's instruction stream. */
struct ProgramMix
{
    /** Label used in reports. */
    std::string name = "generic";
    /** Relative op-class weights (normalised internally). */
    double weights[kNumOpClasses] = {};
    /**
     * Dependency locality: sources are drawn from the last N
     * destinations with geometric decay; smaller = tighter chains,
     * less ILP.
     */
    double depLocality = 8.0;
    /**
     * Probability a source slot reads a long-stable value (loop
     * invariant, constant, induction variable far ahead) instead of
     * a recent producer; this is where real programs get their ILP.
     */
    double independentSrcRate = 0.55;
    /** Probability a conditional branch is taken. */
    double takenRate = 0.45;
    /**
     * Fraction of branches whose outcome is data-dependent noise
     * (unpredictable even for gshare).
     */
    double noisyBranchRate = 0.05;
    /** Memory footprint in bytes (addresses wrap inside it). */
    std::uint64_t footprintBytes = 1 << 20;
    /** Fraction of memory accesses that stream sequentially. */
    double streamingRate = 0.7;
    /** Hot working set for the non-streaming accesses. */
    std::uint64_t hotSetBytes = 16 * 1024;
    /** Fraction of non-streaming accesses that stay in the hot set. */
    double hotRate = 0.95;
    /**
     * Static code footprint: the stream models a hot loop of this
     * many bytes, so instruction fetch hits the L1I and branch sites
     * recur (and become learnable) once the loop wraps.
     */
    std::uint64_t codeFootprintBytes = 16 * 1024;
    /**
     * Mean length of dependent IMUL chains (hashing / x264 cost
     * trees emit runs of multiplies that feed each other).  The
     * op-class weight counts chain *triggers*; each trigger expands
     * into a geometric run of chained IMULs, so the IMUL instruction
     * density is weight(IntMul) * mulChainLen.  Chains are what make
     * the IMUL latency visible: isolated multiplies hide entirely in
     * the out-of-order window.
     */
    double mulChainLen = 1.0;
};

/** A generated instruction stream. */
struct Program
{
    std::string name;
    /** Code footprint the PC wraps inside (from the mix). */
    std::uint64_t codeFootprintBytes = 16 * 1024;
    std::vector<Inst> insts;
};

/**
 * Instructions per chunk when a program is streamed rather than
 * materialised (generate() and the O3 pipeline's producer).
 */
constexpr std::size_t kProgramChunkInsts = 16 * 1024;

/** Generates programs from mixes, deterministically per seed. */
class ProgramGenerator
{
  public:
    /** Receives one chunk of a streamed program. */
    using ChunkSink = std::function<void(std::span<const Inst>)>;

    explicit ProgramGenerator(std::uint64_t seed = 17);

    /** Generate @p count instructions following @p mix. */
    Program generate(const ProgramMix &mix, std::size_t count) const;

    /**
     * Generate the same @p count instructions as generate(), handing
     * them to @p emit in order, @p chunk at a time (the last chunk
     * may be shorter; a zero count emits nothing).  Each span is
     * valid only during its call.  The generator's state carries over
     * from one chunk to the next, so the program is never held in
     * full.
     */
    void stream(const ProgramMix &mix, std::size_t count,
                std::size_t chunk, const ChunkSink &emit) const;

  private:
    std::uint64_t seed_;
};

/** @{ Workload presets used by the Fig. 14 reproduction. */

/** Generic SPECint-like mix (0.07 % IMUL, the paper's average). */
ProgramMix specIntLikeMix();

/** Generic SPECfp-like mix. */
ProgramMix specFpLikeMix();

/** 525.x264-like mix: 0.99 % IMUL, multiply chains, SIMD-heavy. */
ProgramMix x264LikeMix();

/** Memory-bound mix (505.mcf-like). */
ProgramMix memBoundMix();

/** Branchy mix (541.leela-like). */
ProgramMix branchyMix();

/** AES-service mix (Nginx-like) with dense AESENC. */
ProgramMix aesServiceMix();

/**
 * The eight-mix set over which the Fig. 14 geomean is computed
 * (the paper reports n = 8).
 */
std::vector<ProgramMix> figure14Mixes();

/** @} */

} // namespace suit::uarch

#endif // SUIT_UARCH_PROGRAM_HH
