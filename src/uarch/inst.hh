/**
 * @file
 * Dynamic instruction representation for the out-of-order model.
 *
 * The microarchitectural study (paper Sec. 6.1, Table 5, Fig. 14)
 * needs timing, not architectural values: instructions carry an
 * operation class, register dependencies and, for memory operations,
 * an address.  Faultable instructions additionally carry their
 * FaultableKind so the #DO trap logic can check them against the
 * disable-opcode MSR.
 */

#ifndef SUIT_UARCH_INST_HH
#define SUIT_UARCH_INST_HH

#include <cstdint>
#include <optional>

#include "isa/faultable.hh"

namespace suit::uarch {

/** Functional classes the pipeline distinguishes. */
enum class OpClass : std::uint8_t
{
    IntAlu,   //!< add/sub/logic/shift, 1 cycle
    IntMul,   //!< IMUL: 3 cycles stock, 4 with SUIT (Sec. 4.2)
    IntDiv,   //!< unpipelined long-latency divide
    FpAlu,    //!< FP add/compare
    FpMul,    //!< FP multiply
    FpDiv,    //!< unpipelined FP divide / sqrt
    SimdAlu,  //!< vector integer/logic ops
    Aes,      //!< AES-NI round
    Load,
    Store,
    Branch,
    NumClasses,
};

/** Number of operation classes. */
constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumClasses);

/** Printable op-class name. */
const char *toString(OpClass op);

/** Number of architectural registers the generator uses. */
constexpr int kNumArchRegs = 16;

/** One (static) instruction of a synthetic program. */
struct Inst
{
    /** Functional class. */
    OpClass op = OpClass::IntAlu;
    /** Destination architectural register; -1 = none (store/branch). */
    std::int8_t dst = -1;
    /** First source register; -1 = none. */
    std::int8_t src1 = -1;
    /** Second source register; -1 = none. */
    std::int8_t src2 = -1;
    /** Byte address for loads/stores. */
    std::uint64_t addr = 0;
    /** Sequential-stream access (covered by the stride prefetcher). */
    bool streamingHint = false;
    /** Branch outcome for conditional branches. */
    bool taken = false;
    /**
     * For SIMD/AES/IMUL instructions of the faultable set: which
     * Table 1 class this is (checked against the disable MSR).
     */
    std::optional<suit::isa::FaultableKind> faultable;

    /** True for loads and stores. */
    bool isMem() const
    {
        return op == OpClass::Load || op == OpClass::Store;
    }
    /** True for control-flow instructions. */
    bool isBranch() const { return op == OpClass::Branch; }

    /** Field-wise equality (padding bytes are not compared). */
    bool operator==(const Inst &other) const = default;
};

} // namespace suit::uarch

#endif // SUIT_UARCH_INST_HH
