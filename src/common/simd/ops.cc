#include "common/simd/ops.hh"

#include "common/simd/ops_draw.hh"

namespace fracdram::simd
{

namespace
{

const RawOps kScalarOps = {draw::gaussianFill, draw::gaussianPairs,
                           draw::chanceFill};

} // namespace

#if FRACDRAM_HAVE_AVX2
const RawOps &avx2RawOps(); // ops_avx2.cc
#endif

const RawOps *
rawOpsForIsa(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return &kScalarOps;
    case Isa::Avx2:
#if FRACDRAM_HAVE_AVX2
        if (cpuFeatures().avx2)
            return &avx2RawOps();
#endif
        return nullptr;
    }
    return nullptr;
}

const RawOps &
rawOps()
{
    static const RawOps &ops = *rawOpsForIsa(activeIsa());
    return ops;
}

} // namespace fracdram::simd
