// The secp256k1 base field F_p, p = 2^256 − 2^32 − 977, in five 52-bit
// limbs with lazy reduction. An element is sum(n[i]·2^(52·i)); its limbs
// may exceed 52 bits, and its value may exceed p. The slack makes +,
// mul_int, negate and half a few limb-wise instructions with no carry
// chain, and gives a 5×5 limb product independent partial sums.
//
// Magnitude. An element of magnitude m has n[0..3] <= 2m·(2^52 − 1) and
// n[4] <= 2m·(2^48 − 1). Construction, *, sqr, inverse and sqrt return
// magnitude 1; a + b has the sum of the magnitudes; mul_int(k) multiplies
// it by k; negate(m) takes magnitude <= m and returns m + 1; half takes m
// and returns m/2 + 1 (rounded down). * and sqr accept magnitude <= 8.
// The magnitudes are not tracked at run time: each call site states them
// (see the curve formulas in secp256k1.cpp).
//
// Normalization. The canonical form has every limb below 2^52, n[4] below
// 2^48, and value < p. It is computed only where a value is compared,
// tested, or leaves the type: value(), ==, is_zero and is_odd.
//
// Not constant-time (see secp256k1.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/u256.hpp"

namespace ebv::crypto::secp256k1 {

/// The field prime p.
inline constexpr U256 kFieldPrime{
    {0xfffffffefffffc2fULL, ~0ULL, ~0ULL, ~0ULL}};

class FieldElement {
public:
    using Limbs = std::array<std::uint64_t, 5>;

    FieldElement() = default;
    /// v mod p; any 256-bit value is accepted. Magnitude 1.
    explicit FieldElement(const U256& v)
        : n_{v.limbs[0] & kMask52, (v.limbs[0] >> 52 | v.limbs[1] << 12) & kMask52,
             (v.limbs[1] >> 40 | v.limbs[2] << 24) & kMask52,
             (v.limbs[2] >> 28 | v.limbs[3] << 36) & kMask52, v.limbs[3] >> 16} {}

    static FieldElement from_u64(std::uint64_t v) { return FieldElement(U256::from_u64(v)); }
    /// Raw limbs, which the caller vouches are within some magnitude.
    static FieldElement from_limbs(const Limbs& n) {
        FieldElement r;
        r.n_ = n;
        return r;
    }
    [[nodiscard]] const Limbs& limbs() const { return n_; }

    /// The canonical value in [0, p).
    [[nodiscard]] U256 value() const;
    [[nodiscard]] bool is_zero() const;
    [[nodiscard]] bool is_odd() const { return normalized().n_[0] & 1; }
    friend bool operator==(const FieldElement& a, const FieldElement& b) {
        return a.normalized().n_ == b.normalized().n_;
    }

    friend FieldElement operator+(const FieldElement& a, const FieldElement& b) {
        FieldElement r;
        for (int i = 0; i < 5; ++i) r.n_[i] = a.n_[i] + b.n_[i];
        return r;
    }
    [[nodiscard]] FieldElement mul_int(std::uint64_t k) const {
        FieldElement r;
        for (int i = 0; i < 5; ++i) r.n_[i] = n_[i] * k;
        return r;
    }
    /// −a for a of magnitude <= m: 2(m + 1)·p − a, limb by limb.
    [[nodiscard]] FieldElement negate(std::uint64_t m) const {
        const std::uint64_t k = 2 * (m + 1);
        FieldElement r;
        r.n_[0] = 0xffffefffffc2fULL * k - n_[0];
        for (int i = 1; i < 4; ++i) r.n_[i] = kMask52 * k - n_[i];
        r.n_[4] = kMask48 * k - n_[4];
        return r;
    }
    /// a/2: adds p first when a is odd, then shifts the limbs right by one.
    [[nodiscard]] FieldElement half() const {
        const std::uint64_t mask = (0 - (n_[0] & 1)) >> 12;
        const std::uint64_t t0 = n_[0] + (0xffffefffffc2fULL & mask);
        const std::uint64_t t1 = n_[1] + mask;
        const std::uint64_t t2 = n_[2] + mask;
        const std::uint64_t t3 = n_[3] + mask;
        const std::uint64_t t4 = n_[4] + (mask >> 4);
        FieldElement r;
        r.n_[0] = (t0 >> 1) + ((t1 & 1) << 51);
        r.n_[1] = (t1 >> 1) + ((t2 & 1) << 51);
        r.n_[2] = (t2 >> 1) + ((t3 & 1) << 51);
        r.n_[3] = (t3 >> 1) + ((t4 & 1) << 51);
        r.n_[4] = t4 >> 1;
        return r;
    }

    friend FieldElement operator*(const FieldElement& a, const FieldElement& b);
    [[nodiscard]] FieldElement sqr() const;

    /// The inverse of a nonzero element (safegcd, crypto/modinv.hpp); zero
    /// maps to zero.
    [[nodiscard]] FieldElement inverse() const;
    /// The root y = a^((p+1)/4) with y² = a, or nullopt if a is not a
    /// quadratic residue (p ≡ 3 mod 4).
    [[nodiscard]] std::optional<FieldElement> sqrt() const;

    /// The same value in canonical form.
    [[nodiscard]] FieldElement normalized() const;

private:
    static constexpr std::uint64_t kMask52 = 0xfffffffffffffULL;
    static constexpr std::uint64_t kMask48 = 0xffffffffffffULL;

    Limbs n_{};
};

// The 5×5 product and square follow libsecp256k1's field_5x52 (design
// reference: https://github.com/bitcoin-core/secp256k1). Limb position k
// weighs 2^(52k); position 5 is 2^260 ≡ R = 0x1000003D10 (mod p), so a
// partial sum at position k + 5 folds into position k times R. Two 128-bit
// accumulators run side by side: d collects the high positions (3..8) and
// c the low ones (0..2), which the folds of d feed.

inline FieldElement operator*(const FieldElement& fa, const FieldElement& fb) {
    using u128 = unsigned __int128;
    constexpr std::uint64_t M = FieldElement::kMask52;
    constexpr std::uint64_t R = 0x1000003d10ULL;
    const std::uint64_t* a = fa.n_.data();
    const std::uint64_t* b = fb.n_.data();
    FieldElement out;
    std::uint64_t* r = out.n_.data();

    // Position 3 and the fold of position 8.
    u128 d = static_cast<u128>(a[0]) * b[3] + static_cast<u128>(a[1]) * b[2] +
             static_cast<u128>(a[2]) * b[1] + static_cast<u128>(a[3]) * b[0];
    u128 c = static_cast<u128>(a[4]) * b[4];
    d += static_cast<u128>(R) * static_cast<std::uint64_t>(c);
    c >>= 64;
    const std::uint64_t t3 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;

    // Position 4; the rest of position 8 (c·2^64 = c·2^12 at position 9).
    d += static_cast<u128>(a[0]) * b[4] + static_cast<u128>(a[1]) * b[3] +
         static_cast<u128>(a[2]) * b[2] + static_cast<u128>(a[3]) * b[1] +
         static_cast<u128>(a[4]) * b[0];
    d += static_cast<u128>(R << 12) * static_cast<std::uint64_t>(c);
    std::uint64_t t4 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;
    const std::uint64_t tx = t4 >> 48;  // bits of position 4 at or above 2^256
    t4 &= M >> 4;

    // Position 0 and the fold of position 5 (with tx, at 2^256 ≡ R/16).
    c = static_cast<u128>(a[0]) * b[0];
    d += static_cast<u128>(a[1]) * b[4] + static_cast<u128>(a[2]) * b[3] +
         static_cast<u128>(a[3]) * b[2] + static_cast<u128>(a[4]) * b[1];
    std::uint64_t u0 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;
    u0 = (u0 << 4) | tx;
    c += static_cast<u128>(u0) * (R >> 4);
    r[0] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    // Position 1 and the fold of position 6.
    c += static_cast<u128>(a[0]) * b[1] + static_cast<u128>(a[1]) * b[0];
    d += static_cast<u128>(a[2]) * b[4] + static_cast<u128>(a[3]) * b[3] +
         static_cast<u128>(a[4]) * b[2];
    c += static_cast<u128>(static_cast<std::uint64_t>(d) & M) * R;
    d >>= 52;
    r[1] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    // Position 2 and the fold of position 7 (its top bits go to position 3).
    c += static_cast<u128>(a[0]) * b[2] + static_cast<u128>(a[1]) * b[1] +
         static_cast<u128>(a[2]) * b[0];
    d += static_cast<u128>(a[3]) * b[4] + static_cast<u128>(a[4]) * b[3];
    c += static_cast<u128>(R) * static_cast<std::uint64_t>(d);
    d >>= 64;
    r[2] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    c += static_cast<u128>(R << 12) * static_cast<std::uint64_t>(d) + t3;
    r[3] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;
    r[4] = static_cast<std::uint64_t>(c) + t4;
    return out;
}

inline FieldElement FieldElement::sqr() const {
    // operator* with a == b: each cross product a[i]·a[j] (i ≠ j) appears
    // once, with one factor doubled.
    using u128 = unsigned __int128;
    constexpr std::uint64_t M = kMask52;
    constexpr std::uint64_t R = 0x1000003d10ULL;
    std::uint64_t a0 = n_[0], a1 = n_[1], a2 = n_[2], a3 = n_[3], a4 = n_[4];
    FieldElement out;
    std::uint64_t* r = out.n_.data();

    u128 d = static_cast<u128>(a0 * 2) * a3 + static_cast<u128>(a1 * 2) * a2;
    u128 c = static_cast<u128>(a4) * a4;
    d += static_cast<u128>(R) * static_cast<std::uint64_t>(c);
    c >>= 64;
    const std::uint64_t t3 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;

    a4 *= 2;
    d += static_cast<u128>(a0) * a4 + static_cast<u128>(a1 * 2) * a3 +
         static_cast<u128>(a2) * a2;
    d += static_cast<u128>(R << 12) * static_cast<std::uint64_t>(c);
    std::uint64_t t4 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;
    const std::uint64_t tx = t4 >> 48;
    t4 &= M >> 4;

    c = static_cast<u128>(a0) * a0;
    d += static_cast<u128>(a1) * a4 + static_cast<u128>(a2 * 2) * a3;
    std::uint64_t u0 = static_cast<std::uint64_t>(d) & M;
    d >>= 52;
    u0 = (u0 << 4) | tx;
    c += static_cast<u128>(u0) * (R >> 4);
    r[0] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    a0 *= 2;
    c += static_cast<u128>(a0) * a1;
    d += static_cast<u128>(a2) * a4 + static_cast<u128>(a3) * a3;
    c += static_cast<u128>(static_cast<std::uint64_t>(d) & M) * R;
    d >>= 52;
    r[1] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    c += static_cast<u128>(a0) * a2 + static_cast<u128>(a1) * a1;
    d += static_cast<u128>(a3) * a4;
    c += static_cast<u128>(R) * static_cast<std::uint64_t>(d);
    d >>= 64;
    r[2] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;

    c += static_cast<u128>(R << 12) * static_cast<std::uint64_t>(d) + t3;
    r[3] = static_cast<std::uint64_t>(c) & M;
    c >>= 52;
    r[4] = static_cast<std::uint64_t>(c) + t4;
    return out;
}

inline FieldElement FieldElement::normalized() const {
    // Fold the bits of n[4] above 2^48 (the part at or above 2^256) in as
    // ·0x1000003D1 and carry: limbs drop below 2^52, the value below 2^256
    // plus one possible carry into bit 48 of n[4]. Then subtract p once if
    // the value is still >= p (by adding 2^256 − p and dropping 2^256).
    std::uint64_t t0 = n_[0], t1 = n_[1], t2 = n_[2], t3 = n_[3], t4 = n_[4];
    std::uint64_t x = t4 >> 48;
    t4 &= kMask48;
    t0 += x * 0x1000003d1ULL;
    t1 += t0 >> 52;
    t0 &= kMask52;
    t2 += t1 >> 52;
    t1 &= kMask52;
    std::uint64_t all_ones = t1;
    t3 += t2 >> 52;
    t2 &= kMask52;
    all_ones &= t2;
    t4 += t3 >> 52;
    t3 &= kMask52;
    all_ones &= t3;
    x = (t4 >> 48) |
        static_cast<std::uint64_t>(t4 == kMask48 && all_ones == kMask52 && t0 >= 0xffffefffffc2fULL);
    t0 += x * 0x1000003d1ULL;
    t1 += t0 >> 52;
    t0 &= kMask52;
    t2 += t1 >> 52;
    t1 &= kMask52;
    t3 += t2 >> 52;
    t2 &= kMask52;
    t4 += t3 >> 52;
    t3 &= kMask52;
    t4 &= kMask48;
    FieldElement r;
    r.n_ = {t0, t1, t2, t3, t4};
    return r;
}

inline bool FieldElement::is_zero() const {
    const Limbs& n = normalized().n_;
    return (n[0] | n[1] | n[2] | n[3] | n[4]) == 0;
}

inline U256 FieldElement::value() const {
    const Limbs& n = normalized().n_;
    return U256{{n[0] | n[1] << 52, n[1] >> 12 | n[2] << 40, n[2] >> 24 | n[3] << 28,
                 n[3] >> 36 | n[4] << 16}};
}

}  // namespace ebv::crypto::secp256k1
