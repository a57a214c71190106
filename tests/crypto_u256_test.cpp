#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "crypto/field.hpp"
#include "crypto/modinv.hpp"
#include "crypto/scalar.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/u256.hpp"
#include "crypto_reference.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

using namespace reference;

TEST(U256, BytesRoundTrip) {
    util::Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const U256 v = random_u256(rng);
        std::uint8_t buf[32];
        v.to_be_bytes(buf);
        EXPECT_EQ(U256::from_be_bytes({buf, 32}), v);
    }
}

TEST(U256, FromHexMatchesBytes) {
    const U256 v = U256::from_hex(
        "00000000000000000000000000000000000000000000000000000000000000ff");
    EXPECT_EQ(v, U256::from_u64(0xff));

    const U256 top = U256::from_hex(
        "8000000000000000000000000000000000000000000000000000000000000000");
    EXPECT_EQ(top.limbs[3], 0x8000000000000000ULL);
    EXPECT_EQ(top.limbs[0], 0u);
}

TEST(U256, AddSubInverse) {
    util::Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        const U256 a = random_u256(rng);
        const U256 b = random_u256(rng);
        U256 sum, back;
        const std::uint64_t carry = u256_add(a, b, sum);
        const std::uint64_t borrow = u256_sub(sum, b, back);
        EXPECT_EQ(back, a);
        EXPECT_EQ(carry, borrow);  // overflow in add shows up as borrow coming back
    }
}

TEST(U256, ComparisonIsTotalOrder) {
    const U256 small = U256::from_u64(5);
    const U256 large = U256::from_hex(
        "0000000000000001000000000000000000000000000000000000000000000000");
    EXPECT_TRUE(u256_less(small, large));
    EXPECT_FALSE(u256_less(large, small));
    EXPECT_FALSE(u256_less(small, small));
    EXPECT_TRUE(u256_less_equal(small, small));
}

TEST(U256, MulWideLowLimbsMatchNativeMul) {
    util::Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next();
        std::uint64_t wide[8];
        u256_mul_wide(U256::from_u64(a), U256::from_u64(b), wide);
        const unsigned __int128 expected = static_cast<unsigned __int128>(a) * b;
        EXPECT_EQ(wide[0], static_cast<std::uint64_t>(expected));
        EXPECT_EQ(wide[1], static_cast<std::uint64_t>(expected >> 64));
        for (int j = 2; j < 8; ++j) EXPECT_EQ(wide[j], 0u);
    }
}

/// The field or scalar type's operations on raw values, chosen by modulus,
/// so one suite checks both against the same shift-add oracle.
struct ModOps {
    U256 modulus;
    U256 (*reduce)(const U256&);
    U256 (*mul)(const U256&, const U256&);
    U256 (*sqr)(const U256&);
    U256 (*add)(const U256&, const U256&);
    U256 (*sub)(const U256&, const U256&);
    U256 (*neg)(const U256&);
    U256 (*inverse)(const U256&);
};

/// −a: the field type's negate takes a magnitude bound (1 for a freshly
/// constructed element); the scalar type is always fully reduced.
template <class T>
T negated(const T& a) {
    if constexpr (std::is_same_v<T, secp256k1::FieldElement>) {
        return a.negate(1);
    } else {
        return -a;
    }
}

template <class T>
ModOps ops_for(const U256& modulus) {
    return ModOps{
        modulus,
        [](const U256& a) { return T(a).value(); },
        [](const U256& a, const U256& b) { return (T(a) * T(b)).value(); },
        [](const U256& a) {
            if constexpr (std::is_same_v<T, secp256k1::FieldElement>) {
                return T(a).sqr().value();
            } else {
                return (T(a) * T(a)).value();
            }
        },
        [](const U256& a, const U256& b) { return (T(a) + T(b)).value(); },
        [](const U256& a, const U256& b) { return (T(a) + negated(T(b))).value(); },
        [](const U256& a) { return negated(T(a)).value(); },
        [](const U256& a) { return T(a).inverse().value(); },
    };
}

/// 0, 1, m − 1, m, m + 1 and 2^256 − 1: the reduced edges and unreduced
/// values in [m, 2^256).
std::vector<U256> boundary_values(const U256& m) {
    U256 m_plus_1;
    u256_add(m, U256::one(), m_plus_1);
    U256 max;
    for (auto& limb : max.limbs) limb = ~0ULL;
    return {U256::zero(), U256::one(), minus(m, 1), m, m_plus_1, max};
}

class ModArithAgainstReference : public ::testing::TestWithParam<const char*> {
protected:
    ModOps ops() const {
        const U256 m = U256::from_hex(GetParam());
        if (m == secp256k1::kFieldPrime) return ops_for<secp256k1::FieldElement>(m);
        EXPECT_EQ(m, secp256k1::kGroupOrder);
        return ops_for<secp256k1::Scalar>(m);
    }
};

TEST_P(ModArithAgainstReference, MulMatchesShiftAddReference) {
    const ModOps m = ops();
    util::Rng rng(4);
    std::vector<U256> inputs = boundary_values(m.modulus);
    for (int i = 0; i < 60; ++i) inputs.push_back(random_u256(rng));
    for (const U256& a : inputs) {
        EXPECT_EQ(m.sqr(a), reference_modmul(a, a, m.modulus));
        for (const U256& b : boundary_values(m.modulus)) {
            EXPECT_EQ(m.mul(a, b), reference_modmul(a, b, m.modulus));
        }
    }
    for (int i = 0; i < 60; ++i) {
        const U256 a = random_u256(rng);
        const U256 b = random_u256(rng);
        EXPECT_EQ(m.mul(a, b), reference_modmul(a, b, m.modulus));
    }
}

TEST_P(ModArithAgainstReference, AddSubNegConsistent) {
    const ModOps m = ops();
    util::Rng rng(5);
    std::vector<U256> inputs = boundary_values(m.modulus);
    for (int i = 0; i < 100; ++i) inputs.push_back(random_u256(rng));
    for (const U256& raw : inputs) {
        const U256 a = m.reduce(raw);
        EXPECT_TRUE(u256_less(a, m.modulus));
        // reduce() agrees with the oracle: a·1 == a mod m.
        EXPECT_EQ(a, reference_modmul(raw, U256::one(), m.modulus));
        for (const U256& b : {m.reduce(random_u256(rng)), minus(m.modulus, 1)}) {
            // (a + b) - b == a
            EXPECT_EQ(m.sub(m.add(a, b), b), a);
        }
        // a + (-a) == 0
        EXPECT_TRUE(m.add(a, m.neg(a)).is_zero());
    }
    // (m − 1) + (m − 1) wraps to m − 2; 0 − 1 wraps to m − 1.
    EXPECT_EQ(m.add(minus(m.modulus, 1), minus(m.modulus, 1)), minus(m.modulus, 2));
    EXPECT_EQ(m.sub(U256::zero(), U256::one()), minus(m.modulus, 1));
}

TEST_P(ModArithAgainstReference, InverseIsMultiplicativeInverse) {
    const ModOps m = ops();
    util::Rng rng(6);
    std::vector<U256> inputs = {U256::one(), minus(m.modulus, 1), m.modulus};
    for (int i = 0; i < 20; ++i) inputs.push_back(random_u256(rng));
    for (const U256& raw : inputs) {
        const U256 a = m.reduce(raw);
        if (a.is_zero()) {
            EXPECT_TRUE(m.inverse(raw).is_zero());  // m itself reduces to zero
            continue;
        }
        EXPECT_EQ(m.mul(a, m.inverse(raw)), U256::one());
    }
    EXPECT_EQ(m.inverse(minus(m.modulus, 1)), minus(m.modulus, 1));  // (−1)⁻¹ = −1
}

TEST_P(ModArithAgainstReference, PowMatchesRepeatedMul) {
    // By Fermat the inverse is a^(m − 2): safegcd must equal
    // square-and-multiply on the reference multiply.
    const ModOps m = ops();
    util::Rng rng(7);
    const U256 exponent = minus(m.modulus, 2);
    for (const U256& base : {U256::from_u64(2), minus(m.modulus, 1), random_u256(rng),
                             random_u256(rng)}) {
        EXPECT_EQ(m.inverse(base), reference_pow(m.reduce(base), exponent, m.modulus));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Secp256k1Moduli, ModArithAgainstReference,
    ::testing::Values(
        // field prime p
        "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        // group order n
        "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));

TEST(SecpField, MulReducesMaxUnreducedInputs) {
    // (2^256 − 1)² is the largest 512-bit product the one-pass reduction
    // sees; both operands are unreduced.
    U256 max256;
    for (auto& l : max256.limbs) l = ~0ULL;
    const secp256k1::FieldElement x(max256);
    EXPECT_EQ((x * x).value(), reference_modmul(max256, max256, secp256k1::kFieldPrime));
    EXPECT_EQ(x.sqr(), x * x);
    const secp256k1::Scalar s(max256);
    EXPECT_EQ((s * s).value(), reference_modmul(max256, max256, secp256k1::kGroupOrder));
}

TEST(SecpField, SqrtMatchesReferenceAndRejectsNonResidues) {
    using secp256k1::FieldElement;
    const U256& p = secp256k1::kFieldPrime;
    U256 exponent;  // (p + 1) / 4
    u256_add(p, U256::one(), exponent);
    for (int i = 0; i < 4; ++i) {
        exponent.limbs[i] >>= 2;
        if (i + 1 < 4) exponent.limbs[i] |= exponent.limbs[i + 1] << 62;
    }

    // p ≡ 3 (mod 4), so −1 is a non-residue.
    EXPECT_FALSE(FieldElement::from_u64(1).negate(1).sqrt().has_value());
    EXPECT_EQ(FieldElement().sqrt(), FieldElement());

    // For a ≠ 0 exactly one of a and −a is a square.
    util::Rng rng(8);
    int residues = 0;
    for (int i = 0; i < 16; ++i) {
        const FieldElement a(random_u256(rng));
        const auto root = a.sqrt();
        const auto neg_root = a.negate(1).sqrt();
        ASSERT_NE(root.has_value(), neg_root.has_value());
        const FieldElement square = root ? a : a.negate(1);
        const FieldElement r = root ? *root : *neg_root;
        EXPECT_EQ(r.sqr(), square);
        EXPECT_EQ(r.value(), reference_pow(square.value(), exponent, p));
        residues += root ? 1 : 0;
        EXPECT_EQ(a.sqr().sqrt()->sqr(), a.sqr());
    }
    EXPECT_GT(residues, 0);
    EXPECT_LT(residues, 16);
}

// ---- The lazily reduced field at its magnitude bounds ----------------------
// Each operation runs on limbs at the largest value its callers may pass
// (max_limbs) and on random limbs within that bound, is checked against
// the oracle on the raw limb value, and must return limbs within the
// magnitude field.hpp promises.

/// Inputs at magnitude m: every limb at the bound, the same with an odd
/// low limb, and random limbs within the bound.
std::vector<FieldElement> inputs_at(std::uint64_t m, util::Rng& rng) {
    FieldElement::Limbs odd = max_limbs(m).limbs();
    odd[0] -= 1;
    std::vector<FieldElement> v = {max_limbs(m), FieldElement::from_limbs(odd)};
    for (int i = 0; i < 24; ++i) v.push_back(random_limbs(rng, m));
    return v;
}

TEST(SecpField, MulAndSqrAtMagnitudeEight) {
    const U256& p = secp256k1::kFieldPrime;
    util::Rng rng(12);
    const std::vector<FieldElement> xs = inputs_at(8, rng);
    for (const FieldElement& a : xs) {
        const U256 ra = reference_value(a);
        const FieldElement sq = a.sqr();
        EXPECT_TRUE(within_magnitude(sq, 1));
        EXPECT_EQ(sq.value(), reference_modmul(ra, ra, p));
        for (const FieldElement& b : {xs[0], xs[1], xs[2]}) {
            const FieldElement prod = a * b;
            EXPECT_TRUE(within_magnitude(prod, 1));
            EXPECT_EQ(prod.value(), reference_modmul(ra, reference_value(b), p));
        }
    }
}

TEST(SecpField, AddMulIntNegateHalfAtTheirBounds) {
    const U256& p = secp256k1::kFieldPrime;
    util::Rng rng(13);
    // a + b: magnitudes add; 4 + 4 is the largest sum a formula feeds to *.
    for (const FieldElement& a : inputs_at(4, rng)) {
        const FieldElement b = random_limbs(rng, 4);
        const FieldElement sum = a + b;
        EXPECT_TRUE(within_magnitude(sum, 8));
        EXPECT_EQ(sum.value(), reference_modadd(reference_value(a), reference_value(b), p));
        EXPECT_EQ((sum * sum).value(), reference_modmul(sum.value(), sum.value(), p));
    }
    // mul_int(k): magnitude times k, up to 8.
    for (const std::uint64_t k : {2u, 3u, 8u}) {
        for (const FieldElement& a : inputs_at(8 / k, rng)) {
            const FieldElement r = a.mul_int(k);
            EXPECT_TRUE(within_magnitude(r, 8 / k * k));
            EXPECT_EQ(r.value(), reference_modmul(reference_value(a), U256::from_u64(k), p));
        }
    }
    // negate(m) at magnitude m returns m + 1; 7 keeps the result within 8.
    for (std::uint64_t m = 1; m <= 7; ++m) {
        for (const FieldElement& a : inputs_at(m, rng)) {
            const FieldElement r = a.negate(m);
            EXPECT_TRUE(within_magnitude(r, m + 1)) << "m = " << m;
            EXPECT_TRUE((r + a).is_zero()) << "m = " << m;
            EXPECT_EQ(r.value(), fneg(reference_value(a)));
        }
    }
    // half at magnitude m returns m/2 + 1, and twice the half is the input.
    for (std::uint64_t m = 1; m <= 8; ++m) {
        for (const FieldElement& a : inputs_at(m, rng)) {
            const FieldElement h = a.half();
            EXPECT_TRUE(within_magnitude(h, m / 2 + 1)) << "m = " << m;
            EXPECT_EQ((h + h).value(), reference_value(a));
        }
    }
}

TEST(SecpField, NormalizeCanonicalizesEveryEncoding) {
    const U256& p = secp256k1::kFieldPrime;
    const U256 p_minus_1 = minus(p, 1);
    // Zero: p and 2^256-wrapping encodings; −0 at several magnitudes is the
    // limb-wise 2(m + 1)·p.
    std::vector<FieldElement> zeros = {FieldElement(p)};
    for (std::uint64_t m = 0; m <= 7; ++m) zeros.push_back(FieldElement().negate(m));
    for (const FieldElement& z : zeros) {
        EXPECT_TRUE(z.is_zero());
        EXPECT_FALSE(z.is_odd());
        EXPECT_EQ(z, FieldElement());
        EXPECT_EQ(z.value(), U256::zero());
        EXPECT_EQ(z.normalized().limbs(), FieldElement().limbs());
    }
    // p − 1 plus each encoding of zero.
    const FieldElement canonical(p_minus_1);
    for (const FieldElement& z : zeros) {
        const FieldElement v = canonical + z;
        EXPECT_FALSE(v.is_zero());
        EXPECT_FALSE(v.is_odd());  // p − 1 is even
        EXPECT_EQ(v, canonical);
        EXPECT_EQ(v.value(), p_minus_1);
    }
    // Values in [p, 2^256) as constructed from a U256.
    U256 max256;
    for (auto& l : max256.limbs) l = ~0ULL;
    U256 p_plus_1;
    u256_add(p, U256::one(), p_plus_1);
    U256 p_plus_2_32;
    u256_add(p, U256::from_u64(1ULL << 32), p_plus_2_32);
    for (const U256& raw : {p, p_plus_1, p_plus_2_32, max256, minus(max256, 1)}) {
        const FieldElement v(raw);
        const U256 expected = reference_reduce(raw, p);
        EXPECT_EQ(v.value(), expected);
        EXPECT_EQ(v.is_odd(), expected.is_odd());
        EXPECT_EQ(v.is_zero(), expected.is_zero());
        EXPECT_EQ(v, FieldElement(expected));
    }
    // Random encodings up to magnitude 8.
    util::Rng rng(14);
    for (std::uint64_t m = 1; m <= 8; ++m) {
        for (const FieldElement& v : inputs_at(m, rng)) {
            const U256 expected = reference_value(v);
            EXPECT_EQ(v.value(), expected);
            EXPECT_EQ(v, FieldElement(expected));
            EXPECT_EQ(v.is_odd(), expected.is_odd());
        }
    }
}

// ---- safegcd inversion ---------------------------------------------------------

class ModInvAgainstReference : public ::testing::TestWithParam<const char*> {};

TEST_P(ModInvAgainstReference, InverseTimesValueIsOne) {
    const U256 m = U256::from_hex(GetParam());
    util::Rng rng(15);
    std::vector<U256> inputs = {U256::one(), U256::from_u64(2), minus(m, 1), minus(m, 2)};
    for (unsigned k = 1; k < 256; ++k) {
        U256 pow2;
        pow2.limbs[k / 64] = 1ULL << (k % 64);
        inputs.push_back(pow2);
        inputs.push_back(minus(pow2, 1));
    }
    for (int i = 0; i < 200; ++i) inputs.push_back(reference_reduce(random_u256(rng), m));
    for (const U256& x : inputs) {
        if (x.is_zero()) continue;
        const U256 inv = modinv(x, m);
        EXPECT_TRUE(u256_less(inv, m));
        EXPECT_EQ(reference_modmul(x, inv, m), U256::one());
    }
    EXPECT_EQ(modinv(U256::zero(), m), U256::zero());
    EXPECT_EQ(modinv(U256::one(), m), U256::one());
    EXPECT_EQ(modinv(minus(m, 1), m), minus(m, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Secp256k1Moduli, ModInvAgainstReference,
    ::testing::Values(
        "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));

bool within_2_128(const secp256k1::Scalar& k) {
    const U256 magnitude = k.is_high() ? (-k).value() : k.value();
    return magnitude.limbs[2] == 0 && magnitude.limbs[3] == 0;
}

TEST(Glv, SplitRecombinesWithHalfLengthParts) {
    using secp256k1::Scalar;
    const U256& n = secp256k1::kGroupOrder;
    const Scalar lambda(secp256k1::kLambda);
    EXPECT_EQ(lambda * lambda * lambda, Scalar(U256::one()));  // λ³ = 1

    U256 half = n;
    for (int i = 0; i < 4; ++i) {
        half.limbs[i] >>= 1;
        if (i + 1 < 4) half.limbs[i] |= half.limbs[i + 1] << 63;
    }
    U256 two_128;
    two_128.limbs[2] = 1;
    U256 two_255;
    two_255.limbs[3] = 1ULL << 63;
    std::vector<U256> ks = {U256::zero(), U256::one(), minus(n, 1), half,
                            minus(half, 1), two_128, minus(two_128, 1), two_255,
                            secp256k1::kLambda, minus(n, 2)};
    util::Rng rng(9);
    for (int i = 0; i < 200; ++i) ks.push_back(random_u256(rng));

    for (const U256& raw : ks) {
        const Scalar k(raw);
        const secp256k1::LambdaSplit split = secp256k1::split_lambda(k);
        EXPECT_EQ(split.k1 + split.k2 * lambda, k);
        EXPECT_TRUE(within_2_128(split.k1));
        EXPECT_TRUE(within_2_128(split.k2));
    }
}

TEST(Glv, BetaTimesXIsLambdaTimesPoint) {
    // The endomorphism pairs λ with β: λ·(x, y) = (β·x, y).
    const secp256k1::FieldElement beta(U256::from_hex(
        "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
    EXPECT_EQ(beta * beta * beta, secp256k1::FieldElement::from_u64(1));
    util::Rng rng(10);
    std::vector<secp256k1::Point> points = {secp256k1::generator()};
    for (int i = 0; i < 4; ++i) points.push_back(secp256k1::multiply_generator(random_u256(rng)));
    for (const secp256k1::Point& p : points) {
        const secp256k1::Point expected{(beta * secp256k1::FieldElement(p.x)).value(), p.y,
                                        false};
        EXPECT_TRUE(expected.on_curve());
        EXPECT_EQ(secp256k1::multiply(p, secp256k1::kLambda), expected);
    }
}

}  // namespace
}  // namespace ebv::crypto
