// Test oracles for the secp256k1 arithmetic: shift-add modular arithmetic
// on plain 256-bit integers, an affine group law on top of it, and helpers
// that build lazily reduced field elements at a chosen magnitude, plus
// ECDSA signatures whose verification is steered to a chosen sum.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/ecdsa.hpp"
#include "crypto/field.hpp"
#include "crypto/modinv.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/u256.hpp"
#include "util/rng.hpp"

namespace ebv::crypto::reference {

inline U256 random_u256(util::Rng& rng) {
    U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

inline U256 minus(const U256& a, std::uint64_t k) {
    U256 out;
    u256_sub(a, U256::from_u64(k), out);
    return out;
}

/// Reference modular multiplication: shift-and-add with a reduction step
/// after every shift. O(256) but obviously correct.
inline U256 reference_modmul(const U256& a, const U256& b, const U256& m) {
    auto mod_reduce = [&](U256& x) {
        while (!u256_less(x, m)) u256_sub(x, m, x);
    };

    // x + 2^256 ≡ x + (2^256 - m) (mod m): fold a carry-out back in.
    U256 complement;
    {
        U256 not_m;
        for (int i = 0; i < 4; ++i) not_m.limbs[i] = ~m.limbs[i];
        u256_add(not_m, U256::one(), complement);
    }
    auto mod_add = [&](const U256& x, const U256& y) {
        U256 sum;
        if (u256_add(x, y, sum)) u256_add(sum, complement, sum);
        mod_reduce(sum);
        return sum;
    };

    U256 acc = U256::zero();
    U256 addend = a;
    mod_reduce(addend);

    for (int bit = 0; bit < 256; ++bit) {
        if (b.bit(static_cast<unsigned>(bit))) acc = mod_add(acc, addend);
        addend = mod_add(addend, addend);
    }
    return acc;
}

/// a mod m by repeated subtraction (few steps for m > 2^255).
inline U256 reference_reduce(U256 a, const U256& m) {
    while (!u256_less(a, m)) u256_sub(a, m, a);
    return a;
}

/// (a + b) mod m for any 256-bit a and b (m > 2^255).
inline U256 reference_modadd(const U256& a, const U256& b, const U256& m) {
    U256 sum;
    // x + y < 2m: subtract m once if the sum reached m or wrapped past 2^256.
    if (u256_add(reference_reduce(a, m), reference_reduce(b, m), sum) || !u256_less(sum, m)) {
        u256_sub(sum, m, sum);
    }
    return sum;
}

/// Square-and-multiply on the reference multiply: base^exponent mod m.
inline U256 reference_pow(const U256& base, const U256& exponent, const U256& m) {
    U256 acc = U256::one();
    for (int bit = 255; bit >= 0; --bit) {
        acc = reference_modmul(acc, acc, m);
        if (exponent.bit(static_cast<unsigned>(bit))) acc = reference_modmul(acc, base, m);
    }
    return acc;
}

// ---- Lazily reduced field elements -------------------------------------------

using secp256k1::FieldElement;

inline constexpr std::uint64_t kMask52 = (1ULL << 52) - 1;
inline constexpr std::uint64_t kMask48 = (1ULL << 48) - 1;

/// The largest limb that magnitude m permits at position i (field.hpp).
inline std::uint64_t limb_bound(std::uint64_t m, int i) {
    return 2 * m * (i < 4 ? kMask52 : kMask48);
}

inline bool within_magnitude(const FieldElement& a, std::uint64_t m) {
    for (int i = 0; i < 5; ++i) {
        if (a.limbs()[i] > limb_bound(m, i)) return false;
    }
    return true;
}

/// Every limb at the largest value magnitude m permits.
inline FieldElement max_limbs(std::uint64_t m) {
    FieldElement::Limbs n;
    for (int i = 0; i < 5; ++i) n[i] = limb_bound(m, i);
    return FieldElement::from_limbs(n);
}

/// Uniformly random limbs within magnitude m.
inline FieldElement random_limbs(util::Rng& rng, std::uint64_t m) {
    FieldElement::Limbs n;
    for (int i = 0; i < 5; ++i) n[i] = rng.next() % (limb_bound(m, i) + 1);
    return FieldElement::from_limbs(n);
}

/// The same value as a, re-encoded at magnitude m >= 2 with limbs near the
/// bound: canonical a plus the zero 2(m − 1)·p written limb by limb.
inline FieldElement inflate(const FieldElement& a, std::uint64_t m) {
    const FieldElement r = a.normalized() + FieldElement().negate(m - 2);
    EXPECT_TRUE(within_magnitude(r, m));
    return r;
}

/// sum(n[i]·2^(52·i)) mod p of the raw limbs, by Horner's rule on the oracle.
inline U256 reference_value(const FieldElement& a) {
    const U256& p = secp256k1::kFieldPrime;
    const U256 radix = U256::from_u64(1ULL << 52);
    U256 acc;
    for (int i = 4; i >= 0; --i) {
        acc = reference_modadd(reference_modmul(acc, radix, p), U256::from_u64(a.limbs()[i]), p);
    }
    return acc;
}

// ---- Affine group law on the oracle --------------------------------------------

struct AffinePoint {
    U256 x{};
    U256 y{};
    bool infinity = true;

    secp256k1::Point point() const { return {x, y, infinity}; }
};

inline U256 fmul(const U256& a, const U256& b) {
    return reference_modmul(a, b, secp256k1::kFieldPrime);
}
inline U256 fadd(const U256& a, const U256& b) {
    return reference_modadd(a, b, secp256k1::kFieldPrime);
}
inline U256 fneg(const U256& a) {
    const U256 r = reference_reduce(a, secp256k1::kFieldPrime);
    if (r.is_zero()) return r;
    U256 out;
    u256_sub(secp256k1::kFieldPrime, r, out);
    return out;
}
/// The inverse by modinv, checked on the oracle before use.
inline U256 finv(const U256& a) {
    const U256 inv = modinv(a, secp256k1::kFieldPrime);
    EXPECT_EQ(fmul(a, inv), U256::one());
    return inv;
}

inline AffinePoint affine_negate(const AffinePoint& a) {
    if (a.infinity) return a;
    return {a.x, fneg(a.y), false};
}

inline AffinePoint affine_double(const AffinePoint& a) {
    if (a.infinity || a.y.is_zero()) return {};
    // λ = 3x² / 2y; x3 = λ² − 2x; y3 = λ(x − x3) − y.
    const U256 xx = fmul(a.x, a.x);
    const U256 lambda = fmul(fadd(fadd(xx, xx), xx), finv(fadd(a.y, a.y)));
    const U256 x3 = fadd(fmul(lambda, lambda), fneg(fadd(a.x, a.x)));
    const U256 y3 = fadd(fmul(lambda, fadd(a.x, fneg(x3))), fneg(a.y));
    return {x3, y3, false};
}

inline AffinePoint affine_add(const AffinePoint& a, const AffinePoint& b) {
    if (a.infinity) return b;
    if (b.infinity) return a;
    if (a.x == b.x) return a.y == b.y ? affine_double(a) : AffinePoint{};
    // λ = (y2 − y1) / (x2 − x1); x3 = λ² − x1 − x2; y3 = λ(x1 − x3) − y1.
    const U256 lambda = fmul(fadd(b.y, fneg(a.y)), finv(fadd(b.x, fneg(a.x))));
    const U256 x3 = fadd(fadd(fmul(lambda, lambda), fneg(a.x)), fneg(b.x));
    const U256 y3 = fadd(fmul(lambda, fadd(a.x, fneg(x3))), fneg(a.y));
    return {x3, y3, false};
}

inline AffinePoint affine_of(const secp256k1::Point& p) { return {p.x, p.y, p.infinity}; }

// ---- verify() cases whose verdict is known by construction -----------------
// For chosen u1, u2 and r, the signature s = r·u2⁻¹ over digest z = u1·s
// makes verify() compute exactly R = u1·G + u2·P; P = u2⁻¹·(R − u1·G) then
// places R anywhere on the curve.

struct Constructed {
    PublicKey key;
    Hash256 digest;
    Signature sig;
};

inline Hash256 digest_of(const secp256k1::Scalar& z) {
    Hash256 h;
    z.value().to_be_bytes({h.bytes().data(), 32});
    return h;
}

inline secp256k1::Scalar random_scalar(util::Rng& rng) {
    for (;;) {
        const secp256k1::Scalar s(random_u256(rng));
        if (!s.is_zero()) return s;
    }
}

inline Constructed construct(const secp256k1::Point& R, const secp256k1::Scalar& u1,
                             const secp256k1::Scalar& u2, const secp256k1::Scalar& r) {
    namespace k1 = secp256k1;
    const k1::Scalar u2_inv = u2.inverse();
    const k1::Point minus_u1g = k1::negate(k1::multiply_generator(u1.value()));
    const k1::Point p = k1::multiply(k1::add(R, minus_u1g), u2_inv.value());
    const k1::Scalar s = r * u2_inv;
    return {PublicKey(p), digest_of(u1 * s), Signature{r.value(), s.value()}};
}

/// The signature under key d·G that makes verify() compute u1·G + u2·(d·G)
/// for the chosen u1 and u2 (u2 ≠ 0): r is that sum's x mod n, or, when the
/// sum is at infinity or its x is ≡ 0, `fallback_r` (the verdict is false).
inline Constructed steered(const secp256k1::Scalar& d, const secp256k1::Scalar& u1,
                           const secp256k1::Scalar& u2, const secp256k1::Scalar& fallback_r) {
    namespace k1 = secp256k1;
    const k1::Point R = k1::multiply_generator((u1 + d * u2).value());
    k1::Scalar r = R.infinity ? fallback_r : k1::Scalar(R.x);
    if (r.is_zero()) r = fallback_r;
    const k1::Scalar s = r * u2.inverse();
    return {PublicKey(k1::multiply_generator(d.value())), digest_of(u1 * s),
            Signature{r.value(), s.value()}};
}

}  // namespace ebv::crypto::reference
