#include "crypto/scalar.hpp"

#include "crypto/modinv.hpp"

namespace ebv::crypto::secp256k1 {

namespace {

using u128 = unsigned __int128;

/// 2^256 − n, 129 bits.
constexpr U256 kComplement{{0x402da1732fc9bebfULL, 0x4551231950b75fc4ULL, 1, 0}};

constexpr U256 kHalfOrder{
    {0xdfe92f46681b20a0ULL, 0x5d576e7357a4501dULL, ~0ULL, 0x7fffffffffffffffULL}};

/// out[0..NH+4) = lo[0..4) + hi[0..NH)·(2^256 − n), which is ≡ the value
/// hi·2^256 + lo (mod n): the product row by row as in u256_mul_wide, then
/// one carry chain to add lo.
template <int NH>
void fold(const std::uint64_t* lo, const std::uint64_t* hi, std::uint64_t out[NH + 4]) {
    std::uint64_t prod[NH + 3];
    for (int i = 0; i < NH; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 3; ++j) {
            carry += static_cast<u128>(hi[i]) * kComplement.limbs[j] + (i == 0 ? 0 : prod[i + j]);
            prod[i + j] = static_cast<std::uint64_t>(carry);
            carry >>= 64;
        }
        prod[i + 3] = static_cast<std::uint64_t>(carry);
    }
    u128 carry = 0;
    for (int k = 0; k < NH + 3; ++k) {
        carry += static_cast<u128>(prod[k]) + (k < 4 ? lo[k] : 0);
        out[k] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
    }
    out[NH + 3] = static_cast<std::uint64_t>(carry);
}

/// A 512-bit value mod n: the folds shrink it to < 2^386, < 2^261 and then
/// < 2^256 + 2^134; a last carry (if any) folds into a tiny value.
Scalar reduce_wide(const std::uint64_t t[8]) {
    std::uint64_t a[8];
    fold<4>(t, t + 4, a);
    std::uint64_t b[7];
    fold<3>(a, a + 4, b);
    std::uint64_t c[5];
    fold<1>(b, b + 4, c);
    U256 v{{c[0], c[1], c[2], c[3]}};
    if (c[4] != 0) u256_add(v, kComplement, v);
    return Scalar(v);
}

/// round(k·g / 2^384) for the GLV rounding constants g < 2^256.
Scalar mul_shift_384(const Scalar& k, const U256& g) {
    std::uint64_t wide[8];
    u256_mul_wide(k.value(), g, wide);
    U256 q{{wide[6], wide[7], 0, 0}};
    u256_add(q, U256::from_u64(wide[5] >> 63), q);
    return Scalar(q);
}

}  // namespace

bool Scalar::is_high() const { return u256_less(kHalfOrder, v_); }

Scalar operator+(const Scalar& a, const Scalar& b) {
    // a + b < 2n; subtracting n is adding 2^256 − n and dropping the 2^256.
    Scalar r;
    const std::uint64_t carry = u256_add(a.v_, b.v_, r.v_);
    if (carry || !u256_less(r.v_, kGroupOrder)) u256_add(r.v_, kComplement, r.v_);
    return r;
}

Scalar operator-(const Scalar& a, const Scalar& b) {
    Scalar r;
    if (u256_sub(a.v_, b.v_, r.v_)) u256_add(r.v_, kGroupOrder, r.v_);
    return r;
}

Scalar operator*(const Scalar& a, const Scalar& b) {
    std::uint64_t wide[8];
    u256_mul_wide(a.v_, b.v_, wide);
    return reduce_wide(wide);
}

Scalar Scalar::inverse() const { return Scalar(modinv(v_, kGroupOrder)); }

LambdaSplit split_lambda(const Scalar& k) {
    // Babai rounding against the reduced lattice basis {(a1, b1), (a2, b2)}
    // of {(x, y) : x + y·λ ≡ 0}: c1 = round(b2·k/n), c2 = round(−b1·k/n),
    // with g1 = round(2^384·b2/n) and g2 = round(2^384·(−b1)/n).
    static constexpr U256 kG1{{0xe893209a45dbb031ULL, 0x3daa8a1471e8ca7fULL,
                               0xe86c90e49284eb15ULL, 0x3086d221a7d46bcdULL}};
    static constexpr U256 kG2{{0x1571b4ae8ac47f71ULL, 0x221208ac9df506c6ULL,
                               0x6f547fa90abfe4c4ULL, 0xe4437ed6010e8828ULL}};
    static const Scalar kMinusB1(U256{{0x6f547fa90abfe4c3ULL, 0xe4437ed6010e8828ULL, 0, 0}});
    static const Scalar kMinusB2(U256{{0xd765cda83db1562cULL, 0x8a280ac50774346dULL,
                                       0xfffffffffffffffeULL, ~0ULL}});
    static const Scalar kLambdaScalar(kLambda);

    const Scalar c1 = mul_shift_384(k, kG1) * kMinusB1;
    const Scalar c2 = mul_shift_384(k, kG2) * kMinusB2;
    const Scalar k2 = c1 + c2;
    return LambdaSplit{k - k2 * kLambdaScalar, k2};
}

}  // namespace ebv::crypto::secp256k1
