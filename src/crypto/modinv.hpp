// Modular inversion by the safegcd algorithm (Bernstein–Yang, "Fast
// constant-time gcd computation and modular inversion", TCHES 2019), in its
// variable-time form: batches of 62 divsteps, each batch applied to the
// full-width values as one 2×2 transition matrix. The one inverse behind
// both FieldElement::inverse and Scalar::inverse.
//
// Not constant-time (see secp256k1.hpp).
#pragma once

#include "crypto/u256.hpp"

namespace ebv::crypto {

/// x⁻¹ mod m for an odd modulus m and x in [0, m) coprime to m; zero maps
/// to zero. The result lies in [0, m).
U256 modinv(const U256& x, const U256& modulus);

}  // namespace ebv::crypto
