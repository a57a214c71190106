// Scalars mod the secp256k1 group order n: ECDSA's r, s, u1, u2 and nonces.
// Elements are kept fully reduced in [0, n). A 512-bit product reduces in
// three fixed folds by 2^256 − n (129 bits); inversion is safegcd
// (crypto/modinv.hpp).
//
// Not constant-time (see secp256k1.hpp).
#pragma once

#include <cstdint>

#include "crypto/u256.hpp"

namespace ebv::crypto::secp256k1 {

/// The group order n.
inline constexpr U256 kGroupOrder{
    {0xbfd25e8cd0364141ULL, 0xbaaedce6af48a03bULL, 0xfffffffffffffffeULL, ~0ULL}};

/// λ, the cube root of unity mod n whose endomorphism is
/// λ·(x, y) = (β·x, y) (β in secp256k1.cpp).
inline constexpr U256 kLambda{
    {0xdf02967c1b23bd72ULL, 0x122e22ea20816678ULL, 0xa5261c028812645aULL,
     0x5363ad4cc05c30e0ULL}};

class Scalar {
public:
    Scalar() = default;
    /// v mod n; any 256-bit value is accepted (v < 2n always holds).
    explicit Scalar(const U256& v) : v_(v) {
        if (!u256_less(v_, kGroupOrder)) u256_sub(v_, kGroupOrder, v_);
    }

    [[nodiscard]] const U256& value() const { return v_; }
    [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
    /// v > n/2: the negation n − v is the shorter magnitude.
    [[nodiscard]] bool is_high() const;

    friend Scalar operator+(const Scalar& a, const Scalar& b);
    friend Scalar operator-(const Scalar& a, const Scalar& b);
    Scalar operator-() const { return Scalar() - *this; }
    friend Scalar operator*(const Scalar& a, const Scalar& b);

    /// The inverse of a nonzero scalar; zero maps to zero.
    [[nodiscard]] Scalar inverse() const;

    friend bool operator==(const Scalar&, const Scalar&) = default;

private:
    U256 v_{};
};

/// The GLV decomposition k ≡ k1 + k2·λ (mod n) with k1 and k2 within 2^128
/// of zero (a negative part is held as n − |part|, see Scalar::is_high).
struct LambdaSplit {
    Scalar k1;
    Scalar k2;
};
LambdaSplit split_lambda(const Scalar& k);

}  // namespace ebv::crypto::secp256k1
