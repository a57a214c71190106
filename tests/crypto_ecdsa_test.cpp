#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;

Hash256 msg_hash(std::string_view msg) { return hash256(util::as_bytes(msg)); }

TEST(Secp256k1, GeneratorIsOnCurve) {
    EXPECT_TRUE(k1::generator().on_curve());
}

TEST(Secp256k1, GroupLawBasics) {
    const k1::Point g = k1::generator();
    const k1::Point g2_add = k1::add(g, g);
    const k1::Point g2_mul = k1::multiply(g, U256::from_u64(2));
    EXPECT_EQ(g2_add, g2_mul);
    EXPECT_TRUE(g2_add.on_curve());

    // Commutativity: G + 2G == 2G + G == 3G.
    const k1::Point g3a = k1::add(g, g2_add);
    const k1::Point g3b = k1::add(g2_add, g);
    EXPECT_EQ(g3a, g3b);
    EXPECT_EQ(g3a, k1::multiply(g, U256::from_u64(3)));
}

TEST(Secp256k1, AddingInverseYieldsInfinity) {
    const k1::Point g = k1::generator();
    const k1::Point sum = k1::add(g, k1::negate(g));
    EXPECT_TRUE(sum.infinity);
    // P + infinity == P.
    EXPECT_EQ(k1::add(g, k1::Point::at_infinity()), g);
}

TEST(Secp256k1, OrderTimesGeneratorIsInfinity) {
    const U256 n = k1::kGroupOrder;
    // n ≡ 0 (mod n) so multiply() reduces it to zero ⇒ infinity.
    EXPECT_TRUE(k1::multiply(k1::generator(), n).infinity);
    // (n-1)·G == -G.
    U256 n_minus_1;
    u256_sub(n, U256::one(), n_minus_1);
    EXPECT_EQ(k1::multiply(k1::generator(), n_minus_1), k1::negate(k1::generator()));
}

TEST(Secp256k1, GeneratorTableMatchesGenericMultiply) {
    util::Rng rng(42);
    for (int i = 0; i < 10; ++i) {
        U256 k;
        for (auto& limb : k.limbs) limb = rng.next();
        EXPECT_EQ(k1::multiply_generator(k), k1::multiply(k1::generator(), k));
    }
}

TEST(Secp256k1, MultiplyDistributesOverScalarAddition) {
    util::Rng rng(43);
    for (int i = 0; i < 5; ++i) {
        U256 a, b;
        for (auto& limb : a.limbs) limb = rng.next();
        for (auto& limb : b.limbs) limb = rng.next();
        const U256 sum = (k1::Scalar(a) + k1::Scalar(b)).value();
        const k1::Point lhs = k1::multiply_generator(sum);
        const k1::Point rhs = k1::add(k1::multiply_generator(a), k1::multiply_generator(b));
        EXPECT_EQ(lhs, rhs);
    }
}

TEST(Secp256k1, CompressedSerializationRoundTrip) {
    util::Rng rng(44);
    for (int i = 0; i < 10; ++i) {
        const PrivateKey key = PrivateKey::generate(rng);
        const k1::Point p = key.public_key().point();
        std::uint8_t buf[33];
        k1::serialize_compressed(p, buf);
        const auto parsed = k1::parse_compressed({buf, 33});
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
}

TEST(Secp256k1, ParseRejectsBadEncodings) {
    std::uint8_t buf[33] = {};
    EXPECT_FALSE(k1::parse_compressed({buf, 32}).has_value());  // short
    buf[0] = 0x04;  // uncompressed prefix unsupported in this codec
    EXPECT_FALSE(k1::parse_compressed({buf, 33}).has_value());
    buf[0] = 0x02;  // x = 0: 0³+7 = 7 is a QR? parse must verify on-curve
    const auto p = k1::parse_compressed({buf, 33});
    if (p) {
        EXPECT_TRUE(p->on_curve());
    }
}

TEST(Ecdsa, SignVerifyRoundTrip) {
    util::Rng rng(45);
    const PrivateKey key = PrivateKey::generate(rng);
    const PublicKey pub = key.public_key();
    const Hash256 digest = msg_hash("EBV block validation");

    const Signature sig = key.sign(digest);
    EXPECT_TRUE(sig.is_low_s());
    EXPECT_TRUE(pub.verify(digest, sig));
}

TEST(Ecdsa, VerifyRejectsTamperedMessage) {
    util::Rng rng(46);
    const PrivateKey key = PrivateKey::generate(rng);
    const Signature sig = key.sign(msg_hash("original"));
    EXPECT_FALSE(key.public_key().verify(msg_hash("tampered"), sig));
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
    util::Rng rng(47);
    const PrivateKey key1 = PrivateKey::generate(rng);
    const PrivateKey key2 = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("message");
    const Signature sig = key1.sign(digest);
    EXPECT_FALSE(key2.public_key().verify(digest, sig));
}

TEST(Ecdsa, VerifyRejectsMangledSignature) {
    util::Rng rng(48);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("message");
    Signature sig = key.sign(digest);

    Signature bad_r = sig;
    bad_r.r = (k1::Scalar(bad_r.r) + k1::Scalar(U256::one())).value();
    EXPECT_FALSE(key.public_key().verify(digest, bad_r));

    Signature zero_s = sig;
    zero_s.s = U256::zero();
    EXPECT_FALSE(key.public_key().verify(digest, zero_s));
}

TEST(Ecdsa, DeterministicSignaturesAreStable) {
    util::Rng rng(49);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("same message");
    const Signature a = key.sign(digest);
    const Signature b = key.sign(digest);
    EXPECT_EQ(a.r, b.r);
    EXPECT_EQ(a.s, b.s);
}

// The widely-cited RFC 6979 secp256k1 vector: d = 1, H = SHA256("Satoshi
// Nakamoto"). Expected r/s are the low-s-normalized values.
TEST(Ecdsa, Rfc6979KnownVector) {
    std::uint8_t one[32] = {};
    one[31] = 1;
    const auto key = PrivateKey::from_bytes({one, 32});
    ASSERT_TRUE(key.has_value());

    const auto digest_arr = Sha256::hash(util::as_bytes("Satoshi Nakamoto"));
    const Hash256 digest = Hash256::from_span({digest_arr.data(), digest_arr.size()});

    const Signature sig = key->sign(digest);
    std::uint8_t r_bytes[32], s_bytes[32];
    sig.r.to_be_bytes(r_bytes);
    sig.s.to_be_bytes(s_bytes);
    EXPECT_EQ(util::hex_encode({r_bytes, 32}),
              "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8");
    EXPECT_EQ(util::hex_encode({s_bytes, 32}),
              "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5");
    EXPECT_TRUE(key->public_key().verify(digest, sig));
}

TEST(Ecdsa, DerRoundTrip) {
    util::Rng rng(50);
    for (int i = 0; i < 20; ++i) {
        const PrivateKey key = PrivateKey::generate(rng);
        const Signature sig = key.sign(msg_hash("der test"));
        const auto der = sig.to_der();
        EXPECT_GE(der.size(), 8u);
        EXPECT_LE(der.size(), 72u);
        const auto parsed = Signature::from_der(der);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->r, sig.r);
        EXPECT_EQ(parsed->s, sig.s);
    }
}

TEST(Ecdsa, DerRejectsMalformed) {
    EXPECT_FALSE(Signature::from_der({}).has_value());
    util::Rng rng(51);
    const Signature sig = PrivateKey::generate(rng).sign(msg_hash("x"));
    auto der = sig.to_der();
    der[0] = 0x31;  // wrong tag
    EXPECT_FALSE(Signature::from_der(der).has_value());
    der[0] = 0x30;
    der[1] += 1;  // wrong length
    EXPECT_FALSE(Signature::from_der(der).has_value());
}

TEST(Ecdsa, LowSBoundaryIsExactlyHalfTheOrder) {
    // n is odd, so the canonical threshold is floor(n/2) = (n-1)/2:
    // s == n/2 is the largest accepted value, n/2 + 1 the smallest rejected.
    U256 half = k1::kGroupOrder;
    for (int i = 0; i < 4; ++i) {
        half.limbs[i] >>= 1;
        if (i + 1 < 4) half.limbs[i] |= half.limbs[i + 1] << 63;
    }
    Signature sig{U256::one(), half};
    EXPECT_TRUE(sig.is_low_s());
    sig.s = (k1::Scalar(half) + k1::Scalar(U256::one())).value();
    EXPECT_FALSE(sig.is_low_s());
    // And a signature plus its negation straddle the boundary.
    util::Rng rng(53);
    const Signature low = PrivateKey::generate(rng).sign(msg_hash("low-s"));
    EXPECT_TRUE(low.is_low_s());
    const Signature high{low.r, (-k1::Scalar(low.s)).value()};
    EXPECT_FALSE(high.is_low_s());
}

TEST(Ecdsa, DerRejectsEdgeCases) {
    // Baseline: minimal r = s = 1 parses.
    const std::uint8_t ok[] = {0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01};
    ASSERT_TRUE(Signature::from_der(ok).has_value());

    // Negative INTEGER (top bit set, no 0x00 pad).
    const std::uint8_t negative[] = {0x30, 0x06, 0x02, 0x01, 0x81, 0x02, 0x01, 0x01};
    EXPECT_FALSE(Signature::from_der(negative).has_value());

    // Non-minimal padding: 0x00 prefix on a byte without its top bit set.
    const std::uint8_t padded[] = {0x30, 0x07, 0x02, 0x02, 0x00,
                                   0x01, 0x02, 0x01, 0x01};
    EXPECT_FALSE(Signature::from_der(padded).has_value());

    // Trailing garbage past the two INTEGERs (outer length includes it).
    const std::uint8_t trailing[] = {0x30, 0x07, 0x02, 0x01, 0x01,
                                     0x02, 0x01, 0x01, 0x00};
    EXPECT_FALSE(Signature::from_der(trailing).has_value());

    // Zero INTEGERs: r = 0 and s = 0 are outside [1, n-1].
    const std::uint8_t zero_r[] = {0x30, 0x06, 0x02, 0x01, 0x00, 0x02, 0x01, 0x01};
    EXPECT_FALSE(Signature::from_der(zero_r).has_value());
    const std::uint8_t zero_s[] = {0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x00};
    EXPECT_FALSE(Signature::from_der(zero_s).has_value());

    // 73 bytes: one past the longest legal encoding.
    std::uint8_t oversize[73] = {};
    oversize[0] = 0x30;
    oversize[1] = 71;
    EXPECT_FALSE(Signature::from_der({oversize, 73}).has_value());
}

TEST(Ecdsa, DerRejectsOutOfRangeScalars) {
    // A 33-byte padded INTEGER (0x00 + 32 value bytes, top bit set) is
    // minimally encoded, so it can carry any 256-bit value — including the
    // group order itself, which from_der must now reject at parse time.
    util::Bytes der{0x30, 0x26, 0x02, 0x21, 0x00};
    std::uint8_t n_bytes[32];
    k1::kGroupOrder.to_be_bytes(n_bytes);
    der.insert(der.end(), n_bytes, n_bytes + 32);  // r = n
    der.insert(der.end(), {0x02, 0x01, 0x01});     // s = 1
    ASSERT_EQ(der.size(), der[1] + 2u);
    EXPECT_FALSE(Signature::from_der(der).has_value());

    // Same shape with r = n - 1 (in range) must parse.
    U256 n_minus_1;
    u256_sub(k1::kGroupOrder, U256::one(), n_minus_1);
    n_minus_1.to_be_bytes(n_bytes);
    std::copy(n_bytes, n_bytes + 32, der.begin() + 5);
    const auto parsed = Signature::from_der(der);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->r, n_minus_1);
    EXPECT_EQ(parsed->s, U256::one());
}

TEST(Ecdsa, VerifyReducesRxModOrderAndRejectsUnreducedR) {
    // verify() accepts iff reduce(R.x) == r. R.x lives in the field
    // [0, p) where p > n, so values in [n, p) must fold down by exactly n —
    // pin that reduction contract on the order arithmetic directly.
    const U256& n = k1::kGroupOrder;
    U256 x = n;
    x.limbs[0] += 5;  // n + 5 < p, representative of an unreduced R.x
    EXPECT_EQ(k1::Scalar(x).value(), U256::from_u64(5));
    EXPECT_TRUE(k1::Scalar(n).is_zero());

    // The flip side: a signature presenting the *unreduced* value as r is
    // outside [1, n-1] and dies in the range check, never at the curve.
    util::Rng rng(54);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("reduced r");
    const Signature sig = key.sign(digest);
    ASSERT_TRUE(key.public_key().verify(digest, sig));

    Signature unreduced = sig;
    unreduced.r = n;  // smallest value the reduction would fold
    EXPECT_FALSE(key.public_key().verify(digest, unreduced));

    // High-s acceptance: verify is policy-free, so n - s also verifies.
    const Signature high{sig.r, (-k1::Scalar(sig.s)).value()};
    EXPECT_TRUE(key.public_key().verify(digest, high));
}

TEST(Ecdsa, PrivateKeyFromBytesRejectsOutOfRange) {
    std::uint8_t zero[32] = {};
    EXPECT_FALSE(PrivateKey::from_bytes({zero, 32}).has_value());

    std::uint8_t big[32];
    k1::kGroupOrder.to_be_bytes(big);
    EXPECT_FALSE(PrivateKey::from_bytes({big, 32}).has_value());  // == n

    EXPECT_FALSE(PrivateKey::from_bytes({zero, 31}).has_value());  // short
}

TEST(Ecdsa, PublicKeySerializeParseRoundTrip) {
    util::Rng rng(52);
    const PrivateKey key = PrivateKey::generate(rng);
    const auto bytes = key.public_key().serialize();
    EXPECT_EQ(bytes.size(), 33u);
    const auto parsed = PublicKey::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->point(), key.public_key().point());
    EXPECT_EQ(parsed->id(), key.public_key().id());
}

TEST(Ecdsa, JacobianRCheckMatchesAffineReference) {
    // verify() compares r with R.x in Jacobian form (r·Z² == X, and
    // (r + n)·Z² == X when r + n < p). The reference computes the affine R
    // through the public multiply and reduces R.x mod n; both must agree on
    // valid, corrupted, high-s and cross-key signatures.
    util::Rng rng(55);
    std::vector<PrivateKey> keys;
    for (int i = 0; i < 4; ++i) keys.push_back(PrivateKey::generate(rng));
    int accepted = 0;
    for (int i = 0; i < 200; ++i) {
        const PrivateKey& key = keys[i % keys.size()];
        PublicKey pub = key.public_key();
        Hash256 digest;
        rng.fill({digest.bytes().data(), 32});
        Signature sig = key.sign(digest);
        switch (i % 5) {
            case 1: sig.s = (-k1::Scalar(sig.s)).value(); break;
            case 2: sig.r.limbs[rng.next() % 4] ^= 1ULL << (rng.next() % 64); break;
            case 3: pub = keys[(i + 1) % keys.size()].public_key(); break;
            case 4: digest.bytes()[rng.next() % 32] ^= 0x01; break;
            default: break;
        }
        bool expected = false;
        if (!sig.r.is_zero() && u256_less(sig.r, k1::kGroupOrder)) {
            const k1::Scalar s_inv = k1::Scalar(sig.s).inverse();
            const k1::Scalar z(U256::from_be_bytes(digest.span()));
            const k1::Scalar r(sig.r);
            const k1::Point R = k1::multiply_double_generator(
                pub.point(), (z * s_inv).value(), (r * s_inv).value());
            expected = !R.infinity && k1::Scalar(R.x) == r;
        }
        EXPECT_EQ(pub.verify(digest, sig), expected) << "case " << i;
        accepted += expected ? 1 : 0;
    }
    EXPECT_EQ(accepted, 80);  // cases 0 and 1 of every five
}

// ---------------------------------------------------------------------------
// Strauss/Shamir double-scalar multiplication

U256 random_u256(util::Rng& rng) {
    U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

k1::Point reference_double_mul(const k1::Point& p, const U256& u1, const U256& u2) {
    return k1::add(k1::multiply_generator(u1), k1::multiply(p, u2));
}

TEST(StraussShamir, MatchesIndependentMultiplies) {
    util::Rng rng(7);
    for (int i = 0; i < 16; ++i) {
        const PrivateKey key = PrivateKey::generate(rng);
        const k1::Point p = key.public_key().point();
        const U256 u1 = random_u256(rng);
        const U256 u2 = random_u256(rng);
        EXPECT_EQ(k1::multiply_double_generator(p, u1, u2),
                  reference_double_mul(p, u1, u2));
    }
}

TEST(StraussShamir, EdgeScalars) {
    util::Rng rng(8);
    const k1::Point p = PrivateKey::generate(rng).public_key().point();
    const U256 n = k1::kGroupOrder;
    U256 n_minus_1;
    u256_sub(n, U256::one(), n_minus_1);
    const U256 edges[] = {U256::zero(), U256::one(), U256::from_u64(2),
                          n_minus_1, n};
    for (const U256& u1 : edges) {
        for (const U256& u2 : edges) {
            EXPECT_EQ(k1::multiply_double_generator(p, u1, u2),
                      reference_double_mul(p, u1, u2));
        }
    }
}

TEST(StraussShamir, InfinityPointUsesOnlyGeneratorTerm) {
    util::Rng rng(9);
    const U256 u1 = random_u256(rng);
    const U256 u2 = random_u256(rng);
    EXPECT_EQ(k1::multiply_double_generator(k1::Point::at_infinity(), u1, u2),
              k1::multiply_generator(u1));
}

// ---------------------------------------------------------------------------
// A 10k-signature corpus whose verdicts are known by construction

enum class Corruption {
    kNone,
    kFlipR,
    kFlipS,
    kOtherDigest,
    kWrongKey,
    kZeroR,
    kZeroS,
    kROrder,
    kInvalidKey,
    kHighS,
    kCount,
};

/// Only an untouched signature and its high-s twin (n − s) verify.
bool accepted_by_construction(Corruption c) {
    return c == Corruption::kNone || c == Corruption::kHighS;
}

/// One corpus job: a valid signature, then one corruption class applied.
/// Rolls 0-8 pick a corruption each; the rest (~2/3 of jobs) stay valid.
VerifyJob make_job(util::Rng& rng, const std::vector<PrivateKey>& keys, std::size_t i,
                   Corruption& kind) {
    const PrivateKey& signer = keys[i % keys.size()];
    char tag[32];
    std::snprintf(tag, sizeof tag, "corpus message %zu", i);
    VerifyJob job;
    job.key = signer.public_key();
    job.digest = msg_hash(tag);
    job.sig = signer.sign(job.digest);

    const std::uint64_t roll = rng.next() % 27;
    kind = roll < 9 ? static_cast<Corruption>(roll + 1) : Corruption::kNone;
    switch (kind) {
        case Corruption::kFlipR:
            job.sig.r.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case Corruption::kFlipS:
            job.sig.s.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case Corruption::kOtherDigest:
            job.digest = msg_hash("a different message entirely");
            break;
        case Corruption::kWrongKey:
            job.key = keys[(i + 1) % keys.size()].public_key();
            break;
        case Corruption::kZeroR: job.sig.r = U256::zero(); break;
        case Corruption::kZeroS: job.sig.s = U256::zero(); break;
        case Corruption::kROrder: job.sig.r = k1::kGroupOrder; break;
        case Corruption::kInvalidKey: job.key = PublicKey(); break;
        case Corruption::kHighS: {
            U256 high_s;
            u256_sub(k1::kGroupOrder, job.sig.s, high_s);
            job.sig.s = high_s;
            break;
        }
        case Corruption::kNone:
        case Corruption::kCount: break;
    }
    return job;
}

TEST(EcdsaCorpus, TenThousandSignaturesMatchConstructedVerdicts) {
    util::Rng rng(4242);
    std::vector<PrivateKey> keys;
    for (int i = 0; i < 32; ++i) keys.push_back(PrivateKey::generate(rng));

    constexpr std::size_t kCorpus = 10'000;
    std::array<std::size_t, static_cast<std::size_t>(Corruption::kCount)> seen{};
    for (std::size_t i = 0; i < kCorpus; ++i) {
        Corruption kind{};
        const VerifyJob job = make_job(rng, keys, i, kind);
        ++seen[static_cast<std::size_t>(kind)];
        EXPECT_EQ(job.key.verify(job.digest, job.sig), accepted_by_construction(kind))
            << "corpus index " << i << ", class " << static_cast<int>(kind);
    }
    for (std::size_t c = 0; c < seen.size(); ++c)
        EXPECT_GT(seen[c], 0u) << "class " << c << " never drawn";
}

}  // namespace
}  // namespace ebv::crypto
