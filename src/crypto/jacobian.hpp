// Jacobian points and the group law under secp256k1.cpp's scalar
// multiplication. The field elements are lazily reduced (field.hpp), so
// every formula states the magnitude of each intermediate in brackets, and
// every Jacobian value the formulas produce keeps X within kMaxMagX, Y
// within kMaxMagY and Z at magnitude 1 — inside the bound of 8 that * and
// sqr accept once the formulas add their own terms.
#pragma once

#include <cstdint>

#include "crypto/field.hpp"
#include "crypto/secp256k1.hpp"

namespace ebv::crypto::secp256k1 {

/// (X, Y, Z) represents the affine point (X/Z², Y/Z³).
struct Jacobian {
    FieldElement x{};
    FieldElement y{};
    FieldElement z{};
    bool infinity = true;
};

inline constexpr std::uint64_t kMaxMagX = 4;
inline constexpr std::uint64_t kMaxMagY = 4;

Jacobian to_jacobian(const Point& p);
/// One field inversion.
Point to_affine(const Jacobian& j);

/// 2·A: X of A within kMaxMagX and Y within kMaxMagY; returns X and Y of
/// magnitude 3.
Jacobian dbl(const Jacobian& a);
/// A + B for B = (bx, by) affine and finite, bx of magnitude 1 and by of
/// magnitude <= 2; returns X of magnitude 4 and Y of 2.
Jacobian add_affine(const Jacobian& a, const FieldElement& bx, const FieldElement& by);
/// A + B; returns X of magnitude 4 and Y of 2 unless an input is at
/// infinity (then the other input) or the sum is a doubling (dbl's result).
Jacobian add(const Jacobian& a, const Jacobian& b);

/// ECDSA's final check on R = u1·G + u2·P: whether R is finite and
/// R.x ≡ r (mod n), compared as r·Z² == X without a field inversion.
bool x_matches(const Jacobian& R, const Scalar& r);

}  // namespace ebv::crypto::secp256k1
