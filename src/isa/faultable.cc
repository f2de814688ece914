#include "isa/faultable.hh"

#include "util/logging.hh"

namespace suit::isa {

namespace {

struct KindInfo
{
    const char *name;
    int faultCount;  //!< Table 1
    double vminMv;   //!< relative Vmin within the variation band
    bool simd;
};

// Relative Vmin above the core's crash voltage (~250 mV below the
// operating point).  IMUL faults first, at roughly -100 mV from
// nominal (Murdoch et al.), i.e. 150 mV above the crash point; the
// SIMD/AES cluster follows 55-90 mV lower (Kogler et al. measured
// >60 mV of instruction-to-instruction variation), and the rarely
// faulting stragglers sit just above the crash point.
constexpr KindInfo kKinds[kNumFaultableKinds] = {
    {"IMUL",       79, 150.0, false},
    {"VOR",        47,  95.0, true},
    {"AESENC",     40,  93.0, false},
    {"VXOR",       40,  92.0, true},
    {"VANDN",      30,  87.0, true},
    {"VAND",       28,  85.0, true},
    {"VSQRTPD",    24,  82.0, true},
    {"VPCLMULQDQ", 16,  77.0, true},
    {"VPSRAD",      9,  72.0, true},
    {"VPCMP",       5,  68.0, true},
    {"VPMAX",       3,  66.0, true},
    {"VPADDQ",      1,  63.0, true},
};

const KindInfo &
info(FaultableKind kind)
{
    const auto idx = static_cast<std::size_t>(kind);
    SUIT_ASSERT(idx < kNumFaultableKinds, "bad FaultableKind %zu", idx);
    return kKinds[idx];
}

} // namespace

const char *
toString(FaultableKind kind)
{
    return info(kind).name;
}

FaultableKind
faultableKindFromString(const std::string &name)
{
    for (std::size_t i = 0; i < kNumFaultableKinds; ++i) {
        if (name == kKinds[i].name)
            return static_cast<FaultableKind>(i);
    }
    suit::util::fatal("unknown faultable instruction '%s'",
                      name.c_str());
}

int
publishedFaultCount(FaultableKind kind)
{
    return info(kind).faultCount;
}

double
relativeVminMv(FaultableKind kind)
{
    return info(kind).vminMv;
}

bool
isSimd(FaultableKind kind)
{
    return info(kind).simd;
}

std::array<FaultableKind, kNumFaultableKinds>
allFaultableKinds()
{
    std::array<FaultableKind, kNumFaultableKinds> kinds;
    for (std::size_t i = 0; i < kNumFaultableKinds; ++i)
        kinds[i] = static_cast<FaultableKind>(i);
    return kinds;
}

FaultableSet
FaultableSet::all()
{
    FaultableSet s;
    s.bits_ = (1u << kNumFaultableKinds) - 1;
    return s;
}

FaultableSet
FaultableSet::suitTrapSet()
{
    FaultableSet s = all();
    s.erase(FaultableKind::IMUL);
    return s;
}

void
FaultableSet::insert(FaultableKind kind)
{
    bits_ |= 1u << static_cast<unsigned>(kind);
}

void
FaultableSet::erase(FaultableKind kind)
{
    bits_ &= ~(1u << static_cast<unsigned>(kind));
}

int
FaultableSet::count() const
{
    return __builtin_popcount(bits_);
}

FaultableSet
FaultableSet::fromBits(std::uint32_t bits)
{
    SUIT_ASSERT(bits < (1u << kNumFaultableKinds),
                "MSR bit pattern %x has unknown kinds set", bits);
    FaultableSet s;
    s.bits_ = bits;
    return s;
}

} // namespace suit::isa
