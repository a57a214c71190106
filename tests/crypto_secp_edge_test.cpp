// Edge cases of the curve and signature layers beyond the happy path.
#include <gtest/gtest.h>

#include "crypto/ecdsa.hpp"
#include "crypto/jacobian.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto_reference.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;

TEST(SecpEdge, InfinityIsAdditiveIdentity) {
    const k1::Point inf = k1::Point::at_infinity();
    EXPECT_EQ(k1::add(inf, inf), inf);
    EXPECT_EQ(k1::add(k1::generator(), inf), k1::generator());
    EXPECT_EQ(k1::add(inf, k1::generator()), k1::generator());
    EXPECT_FALSE(inf.on_curve());
}

TEST(SecpEdge, DoublingMatchesAdditionChains) {
    // 8G via three doublings == 8G via repeated addition.
    k1::Point doubled = k1::generator();
    for (int i = 0; i < 3; ++i) doubled = k1::add(doubled, doubled);
    EXPECT_EQ(doubled, k1::multiply(k1::generator(), U256::from_u64(8)));
}

TEST(SecpEdge, ScalarMultipleWrapsModOrder) {
    // (n + 5)·G == 5·G.
    const U256& n = k1::kGroupOrder;
    U256 n_plus_5 = n;
    U256 five = U256::from_u64(5);
    u256_add(n_plus_5, five, n_plus_5);
    EXPECT_EQ(k1::multiply(k1::generator(), n_plus_5),
              k1::multiply(k1::generator(), five));
    EXPECT_EQ(k1::multiply_generator(n_plus_5), k1::multiply_generator(five));
}

TEST(SecpEdge, NegatePointProperties) {
    util::Rng rng(1);
    const auto key = PrivateKey::generate(rng);
    const k1::Point p = key.public_key().point();
    const k1::Point neg = k1::negate(p);
    EXPECT_TRUE(neg.on_curve());
    EXPECT_EQ(neg.x, p.x);
    EXPECT_NE(neg.y, p.y);
    EXPECT_TRUE(k1::add(p, neg).infinity);
    EXPECT_EQ(k1::negate(k1::Point::at_infinity()), k1::Point::at_infinity());
}

TEST(SecpEdge, ParityPrefixSelectsCorrectY) {
    util::Rng rng(2);
    for (int i = 0; i < 8; ++i) {
        const auto p = PrivateKey::generate(rng).public_key().point();
        std::uint8_t buf[33];
        k1::serialize_compressed(p, buf);
        // Flipping the parity prefix must decode to the negated point.
        buf[0] ^= 0x01;
        const auto flipped = k1::parse_compressed({buf, 33});
        ASSERT_TRUE(flipped.has_value());
        EXPECT_EQ(*flipped, k1::negate(p));
    }
}

TEST(SecpEdge, XBeyondFieldRejected) {
    std::uint8_t buf[33];
    buf[0] = 0x02;
    k1::kFieldPrime.to_be_bytes({buf + 1, 32});  // x == p
    EXPECT_FALSE(k1::parse_compressed({buf, 33}).has_value());
}

// ---- The lazily reduced group law against the affine oracle ------------------
// dbl, add_affine and add run on inputs re-encoded at the largest
// magnitudes the formulas accept (jacobian.hpp), must return coordinates
// within the magnitudes they promise, and must match the affine group law
// computed on the shift-add oracle (crypto_reference.hpp).

using reference::AffinePoint;
using reference::inflate;
using reference::within_magnitude;
using Fe = k1::FieldElement;

/// a with X and Y re-encoded at kMaxMagX and kMaxMagY.
k1::Jacobian at_max_magnitude(k1::Jacobian a) {
    if (a.infinity) return a;
    a.x = inflate(a.x, k1::kMaxMagX);
    a.y = inflate(a.y, k1::kMaxMagY);
    return a;
}

/// The same point with Z scaled by t: (X·t², Y·t³, Z·t).
k1::Jacobian rescaled(const k1::Jacobian& a, const Fe& t) {
    const Fe tt = t.sqr();
    return {a.x * tt, a.y * tt * t, a.z * t, a.infinity};
}

void expect_within_bounds(const k1::Jacobian& r) {
    EXPECT_TRUE(within_magnitude(r.x, k1::kMaxMagX));
    EXPECT_TRUE(within_magnitude(r.y, k1::kMaxMagY));
    EXPECT_TRUE(within_magnitude(r.z, 1));
}

TEST(SecpGroup, ChainedDoublingsAndMixedAddsMatchAffineReference) {
    util::Rng rng(21);
    for (const k1::Point& start : {k1::generator(),
                                   k1::multiply_generator(reference::random_u256(rng))}) {
        k1::Jacobian acc = k1::to_jacobian(start);
        AffinePoint expected = reference::affine_of(start);
        // One verify's worth of doublings with a mixed addition after every
        // fourth, some with the negated y a negative wNAF digit selects.
        for (int step = 0; step < 160; ++step) {
            acc = at_max_magnitude(acc);
            if (step % 5 == 4) {
                const k1::Point b = k1::multiply_generator(reference::random_u256(rng));
                ASSERT_TRUE(b.on_curve());
                const bool negative = rng.next() & 1;
                acc = k1::add_affine(acc, Fe(b.x), negative ? Fe(b.y).negate(1) : Fe(b.y));
                const AffinePoint rb = reference::affine_of(b);
                expected = reference::affine_add(expected,
                                                 negative ? reference::affine_negate(rb) : rb);
            } else {
                acc = k1::dbl(acc);
                expected = reference::affine_double(expected);
            }
            expect_within_bounds(acc);
            ASSERT_EQ(k1::to_affine(acc), expected.point()) << "step " << step;
        }
    }
}

TEST(SecpGroup, JacobianAddMatchesAffineReference) {
    util::Rng rng(22);
    for (int i = 0; i < 24; ++i) {
        const k1::Point a = k1::multiply_generator(reference::random_u256(rng));
        const k1::Point b = k1::multiply_generator(reference::random_u256(rng));
        // Non-trivial Z on both sides, inputs at the largest magnitudes.
        const k1::Jacobian ja = at_max_magnitude(
            rescaled(k1::to_jacobian(a), Fe(reference::random_u256(rng))));
        const k1::Jacobian jb = at_max_magnitude(
            rescaled(k1::to_jacobian(b), Fe(reference::random_u256(rng))));
        const k1::Jacobian sum = k1::add(ja, jb);
        expect_within_bounds(sum);
        EXPECT_EQ(k1::to_affine(sum),
                  reference::affine_add(reference::affine_of(a), reference::affine_of(b)).point());
    }
}

TEST(SecpGroup, InfinityAndEqualXCasesOfEveryAddition) {
    util::Rng rng(23);
    const k1::Point p = k1::multiply_generator(reference::random_u256(rng));
    const AffinePoint rp = reference::affine_of(p);
    const Fe px(p.x);
    const Fe py(p.y);
    // P with Z ≠ 1, so h = 0 is reached through different encodings of X.
    const k1::Jacobian jp =
        at_max_magnitude(rescaled(k1::to_jacobian(p), Fe(reference::random_u256(rng))));
    const k1::Jacobian jp2 = rescaled(k1::to_jacobian(p), Fe(reference::random_u256(rng)));
    k1::Jacobian jneg = jp2;
    jneg.y = jneg.y.negate(1);
    const k1::Jacobian inf;

    EXPECT_TRUE(k1::dbl(inf).infinity);
    // The point at infinity on either side of each addition.
    EXPECT_EQ(k1::to_affine(k1::add_affine(inf, px, py)), p);
    EXPECT_EQ(k1::to_affine(k1::add(inf, jp)), p);
    EXPECT_EQ(k1::to_affine(k1::add(jp, inf)), p);
    EXPECT_TRUE(k1::add(inf, inf).infinity);
    // h = 0 and i = 0: the same point, so the sum is a doubling.
    const secp256k1::Point doubled = reference::affine_double(rp).point();
    EXPECT_EQ(k1::to_affine(k1::add_affine(jp, px, py)), doubled);
    EXPECT_EQ(k1::to_affine(k1::add(jp, jp2)), doubled);
    // h = 0 and i ≠ 0: P + (−P) is the point at infinity.
    EXPECT_TRUE(k1::add_affine(jp, px, py.negate(1)).infinity);
    EXPECT_TRUE(k1::add(jp, jneg).infinity);
}

TEST(EcdsaEdge, SignaturesAreLowSNormalized) {
    util::Rng rng(3);
    const auto key = PrivateKey::generate(rng);
    for (int i = 0; i < 20; ++i) {
        Hash256 digest;
        rng.fill({digest.bytes().data(), 32});
        const Signature sig = key.sign(digest);
        EXPECT_TRUE(sig.is_low_s());
        // The high-s counterpart also verifies mathematically (malleability)
        // but is non-canonical; we only guarantee we never *emit* it.
        Signature high = sig;
        high.s = (-k1::Scalar(high.s)).value();
        EXPECT_FALSE(high.is_low_s());
        EXPECT_TRUE(key.public_key().verify(digest, high));
    }
}

TEST(EcdsaEdge, DifferentMessagesNeverShareNonce) {
    // RFC 6979 nonces are message-dependent: identical r across two
    // different digests would leak the key.
    util::Rng rng(4);
    const auto key = PrivateKey::generate(rng);
    Hash256 d1, d2;
    rng.fill({d1.bytes().data(), 32});
    rng.fill({d2.bytes().data(), 32});
    EXPECT_NE(key.sign(d1).r, key.sign(d2).r);
}

TEST(EcdsaEdge, VerifyRejectsROrSEqualToOrder) {
    util::Rng rng(5);
    const auto key = PrivateKey::generate(rng);
    Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    Signature sig = key.sign(digest);

    Signature r_n = sig;
    r_n.r = k1::kGroupOrder;
    EXPECT_FALSE(key.public_key().verify(digest, r_n));

    Signature s_n = sig;
    s_n.s = k1::kGroupOrder;
    EXPECT_FALSE(key.public_key().verify(digest, s_n));
}

TEST(EcdsaEdge, DerMinimalIntegerEncodings) {
    // r = s = 1 encodes to the shortest legal DER and round-trips.
    Signature tiny{U256::one(), U256::one()};
    const auto der = tiny.to_der();
    EXPECT_EQ(der.size(), 8u);  // 30 06 02 01 01 02 01 01
    const auto parsed = Signature::from_der(der);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->r, U256::one());
    EXPECT_EQ(parsed->s, U256::one());
}

TEST(EcdsaEdge, DerRejectsNonMinimalPadding) {
    // 0x00 prefix on a value whose top bit is clear is non-minimal.
    const util::Bytes bad = {0x30, 0x08, 0x02, 0x02, 0x00, 0x01, 0x02, 0x02, 0x00, 0x01};
    EXPECT_FALSE(Signature::from_der(bad).has_value());
}

// ---- verify() cases whose verdict is known by construction -----------------

using reference::construct;
using reference::Constructed;
using reference::digest_of;
using reference::random_scalar;

bool verdict(const PublicKey& key, const Hash256& digest, const Signature& sig) {
    return key.verify(digest, sig);
}

TEST(EcdsaEdge, RxBetweenOrderAndPrimeMatchesROnlyReduced) {
    // R.x = n + k lies in [n, p): verify must accept r = k (R.x mod n) and
    // reject r = n + k, which is outside [1, n − 1].
    util::Rng rng(6);
    int built = 0;
    for (std::uint64_t k = 1; built < 3; ++k) {
        U256 x;
        u256_add(k1::kGroupOrder, U256::from_u64(k), x);
        std::uint8_t buf[33];
        buf[0] = static_cast<std::uint8_t>(0x02 + (k & 1));
        x.to_be_bytes({buf + 1, 32});
        const auto R = k1::parse_compressed({buf, 33});
        if (!R) continue;  // n + k is not an x-coordinate on the curve
        ++built;

        const k1::Scalar r(U256::from_u64(k));
        const Constructed c = construct(*R, random_scalar(rng), random_scalar(rng), r);
        ASSERT_TRUE(c.key.valid());
        EXPECT_TRUE(verdict(c.key, c.digest, c.sig)) << "k = " << k;

        Signature unreduced = c.sig;
        unreduced.r = x;
        EXPECT_FALSE(verdict(c.key, c.digest, unreduced)) << "k = " << k;

        // A neighbouring r is a plain mismatch in both comparisons.
        Signature off_by_one = c.sig;
        off_by_one.r = U256::from_u64(k + 1);
        EXPECT_FALSE(verdict(c.key, c.digest, off_by_one)) << "k = " << k;
    }
}

TEST(EcdsaEdge, RAtInfinityRejected) {
    // P = −(u1/u2)·G makes u1·G + u2·P the point at infinity.
    util::Rng rng(7);
    for (int i = 0; i < 4; ++i) {
        const k1::Scalar u1 = random_scalar(rng);
        const k1::Scalar u2 = i == 0 ? u1 : random_scalar(rng);  // i = 0: P = −G
        const PublicKey key(k1::multiply_generator((-(u1 * u2.inverse())).value()));
        ASSERT_TRUE(key.valid());
        const k1::Scalar r = random_scalar(rng);
        const k1::Scalar s = r * u2.inverse();
        EXPECT_FALSE(verdict(key, digest_of(u1 * s), Signature{r.value(), s.value()}));
    }
}

TEST(EcdsaEdge, DigestZeroModOrderAccepted) {
    // z ≡ 0 (mod n) makes u1 = 0: R = u2·P alone. The digests 0 and n are
    // the same scalar, so one signature verifies under both.
    util::Rng rng(8);
    const auto key = PrivateKey::generate(rng);
    const Hash256 zero{};
    const Signature sig = key.sign(zero);
    EXPECT_TRUE(verdict(key.public_key(), zero, sig));
    Hash256 n_digest;
    k1::kGroupOrder.to_be_bytes({n_digest.bytes().data(), 32});
    EXPECT_TRUE(verdict(key.public_key(), n_digest, sig));
    const Signature resigned = key.sign(n_digest);
    EXPECT_TRUE(verdict(key.public_key(), zero, resigned));
}

TEST(EcdsaEdge, HighSAcceptedAndOutOfRangeScalarsRejected) {
    util::Rng rng(9);
    const auto key = PrivateKey::generate(rng);
    Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    const Signature sig = key.sign(digest);
    ASSERT_TRUE(verdict(key.public_key(), digest, sig));
    EXPECT_TRUE(verdict(key.public_key(), digest,
                        Signature{sig.r, (-k1::Scalar(sig.s)).value()}));
    for (const U256& bad : {U256::zero(), k1::kGroupOrder}) {
        EXPECT_FALSE(verdict(key.public_key(), digest, Signature{bad, sig.s}));
        EXPECT_FALSE(verdict(key.public_key(), digest, Signature{sig.r, bad}));
    }
}

class ScalarMulSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarMulSweep, TableMatchesGenericForStructuredScalars) {
    // Scalars with pathological nibble patterns (all zeros except one
    // nibble, repeating patterns, etc).
    U256 k = U256::from_u64(GetParam());
    EXPECT_EQ(k1::multiply_generator(k), k1::multiply(k1::generator(), k));

    // Also smear the value across high limbs.
    U256 high;
    high.limbs[3] = GetParam();
    EXPECT_EQ(k1::multiply_generator(high), k1::multiply(k1::generator(), high));
}

INSTANTIATE_TEST_SUITE_P(Patterns, ScalarMulSweep,
                         ::testing::Values(1ULL, 2ULL, 15ULL, 16ULL, 0xffULL,
                                           0x8000000000000000ULL, 0xf0f0f0f0f0f0f0f0ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace ebv::crypto
