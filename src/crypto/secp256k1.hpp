// The secp256k1 curve: y² = x³ + 7 over F_p, the curve Bitcoin signs with.
// Points use Jacobian coordinates internally. Every scalar multiplication
// is one GLV-split, interleaved wNAF pass (see docs/CRYPTO.md), with a
// precomputed affine table for the generator.
//
// This implementation is *not* constant-time. It exists so Script
// Validation in the reproduction costs real, representative CPU work; it is
// not hardened for production key handling.
#pragma once

#include <optional>

#include "crypto/field.hpp"
#include "crypto/scalar.hpp"
#include "util/span.hpp"

namespace ebv::crypto::secp256k1 {

/// Affine point with coordinates in [0, p); infinity is modelled explicitly.
struct Point {
    U256 x{};
    U256 y{};
    bool infinity = true;

    static Point at_infinity() { return {}; }

    [[nodiscard]] bool on_curve() const;

    friend bool operator==(const Point&, const Point&) = default;
};

/// The generator G.
const Point& generator();

Point add(const Point& a, const Point& b);
Point negate(const Point& a);

/// k · P for arbitrary P; k is reduced mod n.
Point multiply(const Point& p, const U256& k);
/// k · G through the generator's precomputed table (used by signing).
Point multiply_generator(const U256& k);

/// u1·G + u2·P in one pass sharing a single double chain; scalars are
/// reduced mod n. Equals add(multiply_generator(u1), multiply(p, u2)).
Point multiply_double_generator(const Point& p, const U256& u1, const U256& u2);

/// ECDSA's final check without leaving Jacobian coordinates: whether
/// R = u1·G + u2·P is finite and R.x ≡ r (mod n). R.x lies in [0, p) and
/// p > n, so R.x is either r or, when r + n < p, r + n; each is compared
/// as r·Z² == X, which needs no field inversion.
bool double_multiply_x_matches(const Point& p, const Scalar& u1, const Scalar& u2,
                               const Scalar& r);

/// 33-byte compressed SEC1 encoding (02/03 prefix + big-endian x).
void serialize_compressed(const Point& p, util::MutableByteSpan out33);
/// Decompress; rejects off-curve and malformed encodings.
std::optional<Point> parse_compressed(util::ByteSpan in33);
/// The x of an encoding that passes parse_compressed's checks before its
/// square root: 33 bytes, prefix 02 or 03, x < p.
std::optional<U256> compressed_x(util::ByteSpan in33);

}  // namespace ebv::crypto::secp256k1
