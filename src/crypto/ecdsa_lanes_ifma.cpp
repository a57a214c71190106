// The AVX-512 IFMA backend of crypto::verify_lanes: one 512-bit vector
// holds a limb of eight field elements, and vpmadd52{lo,hi}uq form the
// 5×52 limb products. Compiled with -mavx512f -mavx512ifma (see
// crypto/CMakeLists.txt); ecdsa_lanes.cpp only calls in here after
// have_ifma() confirms CPU and OS support at run time.
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/ecdsa_lanes_kernel.hpp"

#if defined(EBV_CRYPTO_IFMA) && defined(__x86_64__)

#include <immintrin.h>

namespace ebv::crypto {

namespace {

struct IfmaOps {
    using V = __m512i;

    static V set1(std::uint64_t x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
    static V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
    static void store(std::uint64_t* p, V a) { _mm512_storeu_si512(p, a); }
    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm512_sub_epi64(a, b); }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }
    // Shifts and the gather use their all-lanes masked forms: GCC's
    // unmasked ones read an undefined vector and trip -Wuninitialized.
    template <unsigned N>
    static V shr(V a) {
        return _mm512_maskz_srli_epi64(0xff, a, N);
    }
    template <unsigned N>
    static V shl(V a) {
        return _mm512_maskz_slli_epi64(0xff, a, N);
    }
    static V madd_lo(V acc, V a, V b) { return _mm512_madd52lo_epu64(acc, a, b); }
    static V madd_hi(V acc, V a, V b) { return _mm512_madd52hi_epu64(acc, a, b); }
    static V select(std::uint8_t m, V a, V b) { return _mm512_mask_blend_epi64(m, b, a); }
    static V gather(const std::uint64_t* base, V index) {
        return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xff, index, base, 8);
    }
};

}  // namespace

bool detail::have_ifma() {
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
}

void lanes::run_ifma(const Batch& in, const std::uint64_t* g_table, Result& out) {
    Kernel<IfmaOps>::run(in, g_table, out);
}

void lanes::mul_chain_ifma(std::uint64_t (&a)[5][kLanes], const std::uint64_t (&b)[5][kLanes],
                           std::size_t count) {
    Kernel<IfmaOps>::mul_chain(a, b, count);
}

void lanes::sqrt_ifma(std::uint64_t (&a)[5][kLanes]) { Kernel<IfmaOps>::sqrt(a); }

}  // namespace ebv::crypto

#else  // !EBV_CRYPTO_IFMA

namespace ebv::crypto {

bool detail::have_ifma() { return false; }

void lanes::run_ifma(const Batch&, const std::uint64_t*, Result&) {}

void lanes::mul_chain_ifma(std::uint64_t (&)[5][kLanes], const std::uint64_t (&)[5][kLanes],
                           std::size_t) {}

void lanes::sqrt_ifma(std::uint64_t (&)[5][kLanes]) {}

}  // namespace ebv::crypto

#endif
