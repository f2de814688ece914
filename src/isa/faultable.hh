/**
 * @file
 * The faultable instruction taxonomy (paper Table 1).
 *
 * Kogler et al.'s Minefield study found that when undervolting x86
 * CPUs, a small set of instructions produces wrong *data* results
 * long before anything else breaks.  SUIT's entire design revolves
 * around this set: IMUL (so frequent it is hardened statically) and a
 * handful of SIMD/AES instructions (infrequent; trapped via #DO).
 * This header enumerates the set, carries the published fault counts
 * and orders the instructions by the voltage at which they start
 * faulting.
 */

#ifndef SUIT_ISA_FAULTABLE_HH
#define SUIT_ISA_FAULTABLE_HH

#include <array>
#include <cstdint>
#include <string>

namespace suit::isa {

/**
 * Instruction classes observed to fault under undervolting
 * (paper Table 1, ordered by observed fault count, descending).
 */
enum class FaultableKind : std::uint8_t
{
    IMUL,       //!< integer multiply (IMUL/MUL family)
    VOR,        //!< vector bitwise OR (VOR*)
    AESENC,     //!< AES-NI round encryption
    VXOR,       //!< vector bitwise XOR (VXOR*)
    VANDN,      //!< vector AND-NOT (VANDN*)
    VAND,       //!< vector bitwise AND (VAND*)
    VSQRTPD,    //!< packed double square root
    VPCLMULQDQ, //!< carry-less multiply
    VPSRAD,     //!< packed arithmetic shift right
    VPCMP,      //!< packed compare (VPCMP*)
    VPMAX,      //!< packed maximum (VPMAX*)
    VPADDQ,     //!< packed 64-bit add
    NumKinds,
};

/** Number of distinct faultable instruction classes. */
constexpr std::size_t kNumFaultableKinds =
    static_cast<std::size_t>(FaultableKind::NumKinds);

/** Mnemonic string for a kind (e.g. "IMUL", "VPCLMULQDQ"). */
const char *toString(FaultableKind kind);

/** Parse a mnemonic; fatal() on unknown names. */
FaultableKind faultableKindFromString(const std::string &name);

/**
 * Observed fault count per kind from Table 1 of the paper (79 for
 * IMUL down to 1 for VPADDQ).  A "fault" is one (core, frequency,
 * offset) combination at which the instruction misbehaved.
 */
int publishedFaultCount(FaultableKind kind);

/**
 * Relative Vmin of the instruction within the instruction-variation
 * band, in mV above the band's floor.  Frequently faulting
 * instructions (IMUL) fault at *higher* voltages, i.e. they have the
 * largest offsets; rarely faulting ones sit near the floor (paper
 * Table 1 caption).  The band spans ~70 mV on the studied CPUs.
 */
double relativeVminMv(FaultableKind kind);

/** True for the SIMD members of the set (everything but IMUL/AESENC
 *  is SIMD; AESENC is an SSE/VAES instruction and also disabled when
 *  compiling without SIMD, but the paper groups it separately because
 *  software AES can replace it). */
bool isSimd(FaultableKind kind);

/** All kinds, in Table 1 order. */
std::array<FaultableKind, kNumFaultableKinds> allFaultableKinds();

/**
 * Bitmask set of faultable kinds, the in-model analogue of SUIT's
 * per-domain DISABLE_OPCODE MSR contents.
 */
class FaultableSet
{
  public:
    /** Empty set. */
    constexpr FaultableSet() = default;

    /** Set with every faultable kind enabled. */
    static FaultableSet all();

    /**
     * The set SUIT disables on the efficient curve: everything except
     * IMUL, which is statically hardened via the 4-cycle pipeline
     * (paper Sec. 4.2) and therefore never needs trapping.
     */
    static FaultableSet suitTrapSet();

    /** Add a kind to the set. */
    void insert(FaultableKind kind);
    /** Remove a kind from the set. */
    void erase(FaultableKind kind);
    /** Membership test. */
    bool
    contains(FaultableKind kind) const
    {
        return bits_ & (1u << static_cast<unsigned>(kind));
    }
    /** Number of kinds in the set. */
    int count() const;
    /** True if no kind is in the set. */
    bool empty() const { return bits_ == 0; }
    /** Raw bitmask (bit i = kind i), the MSR encoding. */
    std::uint32_t bits() const { return bits_; }
    /** Rebuild from an MSR bit pattern. */
    static FaultableSet fromBits(std::uint32_t bits);

    bool operator==(const FaultableSet &other) const = default;

  private:
    std::uint32_t bits_ = 0;
};

} // namespace suit::isa

#endif // SUIT_ISA_FAULTABLE_HH
