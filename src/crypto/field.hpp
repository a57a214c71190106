// The secp256k1 base field F_p, p = 2^256 − 2^32 − 977, specialized for
// that prime: a 512-bit product reduces in one pass because
// 2^256 ≡ 0x1000003D1 (mod p), squaring has its own half-size product, and
// inversion and square root are fixed addition chains. Elements are kept
// fully reduced in [0, p), so equality is limb equality.
//
// Not constant-time (see secp256k1.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/u256.hpp"

namespace ebv::crypto::secp256k1 {

/// The field prime p.
inline constexpr U256 kFieldPrime{
    {0xfffffffefffffc2fULL, ~0ULL, ~0ULL, ~0ULL}};

class FieldElement {
public:
    FieldElement() = default;
    /// v mod p; any 256-bit value is accepted (v < 2p always holds).
    explicit FieldElement(const U256& v) : v_(v) {
        if (!u256_less(v_, kFieldPrime)) u256_sub(v_, kFieldPrime, v_);
    }

    static FieldElement from_u64(std::uint64_t v) { return FieldElement(U256::from_u64(v)); }

    [[nodiscard]] const U256& value() const { return v_; }
    [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
    [[nodiscard]] bool is_odd() const { return v_.is_odd(); }

    friend FieldElement operator+(const FieldElement& a, const FieldElement& b) {
        // a + b < 2p. The sum is >= p exactly when it carries out of 2^256,
        // either by itself or after adding 2^256 − p; then the wrapped
        // sum + (2^256 − p) is the result. Selected by mask: the carry is a
        // coin flip, so a branch would mispredict half the time.
        U256 sum;
        U256 wrapped;
        const std::uint64_t carry = u256_add(a.v_, b.v_, sum);
        const std::uint64_t over = carry | u256_add(sum, kComplement, wrapped);
        const std::uint64_t mask = 0 - over;
        FieldElement r;
        for (int i = 0; i < 4; ++i) {
            r.v_.limbs[i] = (wrapped.limbs[i] & mask) | (sum.limbs[i] & ~mask);
        }
        return r;
    }

    friend FieldElement operator-(const FieldElement& a, const FieldElement& b) {
        // On borrow the limbs hold a − b + 2^256; adding p is subtracting
        // 2^256 − p (no underflow: a − b + 2^256 >= 2^256 − p).
        FieldElement r;
        const std::uint64_t borrow = u256_sub(a.v_, b.v_, r.v_);
        u256_sub(r.v_, U256{{kFold & (0 - borrow), 0, 0, 0}}, r.v_);
        return r;
    }

    FieldElement operator-() const { return FieldElement() - *this; }

    friend FieldElement operator*(const FieldElement& a, const FieldElement& b);

    [[nodiscard]] FieldElement sqr() const;
    /// 2·a as an addition; the curve formulas' 3·a, 4·a and 8·a build on it.
    [[nodiscard]] FieldElement twice() const { return *this + *this; }

    /// a^(p−2), the inverse of a nonzero element; zero maps to zero.
    [[nodiscard]] FieldElement inverse() const;
    /// The root y = a^((p+1)/4) with y² = a, or nullopt if a is not a
    /// quadratic residue (p ≡ 3 mod 4).
    [[nodiscard]] std::optional<FieldElement> sqrt() const;

    friend bool operator==(const FieldElement&, const FieldElement&) = default;

private:
    static constexpr std::uint64_t kFold = 0x1000003d1ULL;  // 2^256 mod p
    static constexpr U256 kComplement{{kFold, 0, 0, 0}};    // 2^256 − p

    /// A 512-bit value mod p: fold the high half in as hi·2^256 ≡ hi·kFold
    /// (< 2^290), then the few bits that overflow 2^256 once more.
    static FieldElement reduce_wide(const std::uint64_t t[8]);

    U256 v_{};
};

inline FieldElement operator*(const FieldElement& a, const FieldElement& b) {
    std::uint64_t wide[8];
    u256_mul_wide(a.v_, b.v_, wide);
    return FieldElement::reduce_wide(wide);
}

inline FieldElement FieldElement::sqr() const {
    std::uint64_t wide[8];
    u256_sqr_wide(v_, wide);
    return reduce_wide(wide);
}

inline FieldElement FieldElement::reduce_wide(const std::uint64_t t[8]) {
    using u128 = unsigned __int128;
    FieldElement r;
    u128 acc = 0;
    for (int i = 0; i < 4; ++i) {
        acc += static_cast<u128>(t[i + 4]) * kFold + t[i];
        r.v_.limbs[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    // acc < 2^34 is the part above 2^256; fold it the same way.
    acc = acc * kFold + r.v_.limbs[0];
    r.v_.limbs[0] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
    for (int i = 1; i < 4; ++i) {
        acc += r.v_.limbs[i];
        r.v_.limbs[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    // A final carry leaves a tiny remainder, so one more kFold cannot carry.
    if (acc != 0) u256_add(r.v_, kComplement, r.v_);
    if (!u256_less(r.v_, kFieldPrime)) u256_add(r.v_, kComplement, r.v_);
    return r;
}

}  // namespace ebv::crypto::secp256k1
