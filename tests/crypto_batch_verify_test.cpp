// Batched ECDSA verification: Montgomery batch inversion, the
// double-scalar multiply, and crypto::verify_batch must all be
// bit-identical to their one-at-a-time counterparts — the acceptance
// criterion is a randomized 10k-signature corpus (valid and corrupted)
// whose batch verdicts match PublicKey::verify exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "script/interpreter.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;

Hash256 msg_hash(std::string_view msg) { return hash256(util::as_bytes(msg)); }

U256 random_u256(util::Rng& rng) {
    U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

k1::Scalar random_nonzero(util::Rng& rng) {
    for (;;) {
        const k1::Scalar v(random_u256(rng));
        if (!v.is_zero()) return v;
    }
}

// ---------------------------------------------------------------------------
// Montgomery batch inversion of s values

TEST(InverseBatch, MatchesScalarInverseOverOrder) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{64}}) {
        util::Rng rng(200 + n);
        std::vector<k1::Scalar> values(n);
        for (auto& v : values) v = random_nonzero(rng);
        std::vector<k1::Scalar> expected(n);
        for (std::size_t i = 0; i < n; ++i) expected[i] = values[i].inverse();
        k1::batch_inverse(values);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(values[i], expected[i]) << "mismatch at index " << i;
        }
    }
}

TEST(InverseBatch, EmptyIsNoop) {
    k1::batch_inverse({});  // must not crash
}

TEST(InverseBatch, UnreducedInputsAreReducedFirst) {
    // A value above the order enters as its residue; the batch form must
    // agree with inverse() of that residue.
    U256 big = k1::kGroupOrder;
    big.limbs[0] += 5;  // n + 5, no carry (the order is far below 2^256 - 5)
    k1::Scalar values[2] = {k1::Scalar(big), k1::Scalar(U256::from_u64(7))};
    EXPECT_EQ(values[0], k1::Scalar(U256::from_u64(5)));
    const k1::Scalar expected0 = k1::Scalar(U256::from_u64(5)).inverse();
    const k1::Scalar expected1 = k1::Scalar(U256::from_u64(7)).inverse();
    k1::batch_inverse(values);
    EXPECT_EQ(values[0], expected0);
    EXPECT_EQ(values[1], expected1);
}

// ---------------------------------------------------------------------------
// Strauss/Shamir double-scalar multiplication

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
// verify_batch parity corpus — the PR's acceptance criterion

/// Build one corpus job, corrupting roughly a third of them across every
/// reject class verify() distinguishes.
VerifyJob make_job(util::Rng& rng, const std::vector<PrivateKey>& keys,
                   std::size_t i) {
    const PrivateKey& signer = keys[i % keys.size()];
    char tag[32];
    std::snprintf(tag, sizeof tag, "corpus message %zu", i);
    VerifyJob job;
    job.key = signer.public_key();
    job.digest = msg_hash(tag);
    job.sig = signer.sign(job.digest);

    // Rolls 0-8 pick one corruption class each; the rest (~2/3 of jobs)
    // stay valid, so both verdicts are well represented.
    switch (rng.next() % 27) {
        case 0:  // flip a bit of r
            job.sig.r.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case 1:  // flip a bit of s
            job.sig.s.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case 2:  // signature over a different digest
            job.digest = msg_hash("a different message entirely");
            break;
        case 3:  // verified against the wrong key
            job.key = keys[(i + 1) % keys.size()].public_key();
            break;
        case 4:  // early reject: s == 0
            job.sig.s = U256::zero();
            break;
        case 5:  // early reject: r == 0
            job.sig.r = U256::zero();
            break;
        case 6:  // early reject: r >= n
            job.sig.r = k1::kGroupOrder;
            break;
        case 7:  // early reject: invalid (default-constructed) public key
            job.key = PublicKey();
            break;
        case 8: {  // high-s variant of a valid signature: n - s
            U256 high_s;
            u256_sub(k1::kGroupOrder, job.sig.s, high_s);
            job.sig.s = high_s;  // verify() accepts both s and n - s
            break;
        }
        default:
            break;  // leave valid (~2/3 of the corpus)
    }
    return job;
}

TEST(VerifyBatch, TenThousandSignatureCorpusMatchesSerialVerify) {
    util::Rng rng(4242);
    std::vector<PrivateKey> keys;
    for (int i = 0; i < 32; ++i) keys.push_back(PrivateKey::generate(rng));

    constexpr std::size_t kCorpus = 10'000;
    constexpr std::size_t kChunk = 64;  // drained in worker-sized chunks
    std::vector<VerifyJob> jobs;
    jobs.reserve(kCorpus);
    for (std::size_t i = 0; i < kCorpus; ++i) jobs.push_back(make_job(rng, keys, i));

    std::vector<bool> expected(kCorpus);
    std::size_t expected_accepts = 0;
    for (std::size_t i = 0; i < kCorpus; ++i) {
        expected[i] = jobs[i].key.verify(jobs[i].digest, jobs[i].sig);
        expected_accepts += expected[i] ? 1 : 0;
    }
    // The corruption mix must actually exercise both verdicts.
    ASSERT_GT(expected_accepts, kCorpus / 2);
    ASSERT_LT(expected_accepts, kCorpus);

    BatchVerifyStats total;
    std::vector<bool> got(kCorpus);
    bool verdicts[kChunk];
    for (std::size_t begin = 0; begin < kCorpus; begin += kChunk) {
        const std::size_t size = std::min(kChunk, kCorpus - begin);
        const BatchVerifyStats stats =
            verify_batch({jobs.data() + begin, size}, verdicts);
        EXPECT_EQ(stats.checked, size);
        total.checked += stats.checked;
        total.accepted += stats.accepted;
        total.inversions_saved += stats.inversions_saved;
        for (std::size_t k = 0; k < size; ++k) got[begin + k] = verdicts[k];
    }

    for (std::size_t i = 0; i < kCorpus; ++i) {
        EXPECT_EQ(got[i], expected[i]) << "verdict mismatch at corpus index " << i;
    }
    EXPECT_EQ(total.checked, kCorpus);
    EXPECT_EQ(total.accepted, expected_accepts);
    EXPECT_GT(total.inversions_saved, 0u);
}

TEST(VerifyBatch, AllValidBatchSavesOneInversionPerExtraSignature) {
    util::Rng rng(31);
    const PrivateKey key = PrivateKey::generate(rng);
    constexpr std::size_t kJobs = 8;
    std::vector<VerifyJob> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
        const Hash256 digest = msg_hash(std::string("valid ") + std::to_string(i));
        jobs.push_back({key.public_key(), key.sign(digest), digest});
    }
    bool verdicts[kJobs];
    const BatchVerifyStats stats = verify_batch(jobs, verdicts);
    EXPECT_EQ(stats.checked, kJobs);
    EXPECT_EQ(stats.accepted, kJobs);
    // One s⁻¹ batch saving kJobs - 1 inversions; the r-check is done in
    // Jacobian form, so there is no z⁻¹ to amortize.
    EXPECT_EQ(stats.inversions_saved, kJobs - 1);
    for (const bool v : verdicts) EXPECT_TRUE(v);
}

TEST(VerifyBatch, EmptyAndSingleBatches) {
    util::Rng rng(32);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("only one");

    const BatchVerifyStats empty = verify_batch({}, nullptr);
    EXPECT_EQ(empty.checked, 0u);
    EXPECT_EQ(empty.inversions_saved, 0u);

    const VerifyJob job{key.public_key(), key.sign(digest), digest};
    bool verdict = false;
    const BatchVerifyStats one = verify_batch({&job, 1}, &verdict);
    EXPECT_TRUE(verdict);
    EXPECT_EQ(one.checked, 1u);
    EXPECT_EQ(one.accepted, 1u);
    EXPECT_EQ(one.inversions_saved, 0u);  // nothing to amortize
}

TEST(VerifyBatch, AllEarlyRejectBatch) {
    // Every job dies before the curve stage; no inversion runs at all.
    std::vector<VerifyJob> jobs(5);
    for (auto& job : jobs) job.digest = msg_hash("early");
    bool verdicts[5] = {true, true, true, true, true};
    const BatchVerifyStats stats = verify_batch(jobs, verdicts);
    EXPECT_EQ(stats.checked, 5u);
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_EQ(stats.inversions_saved, 0u);
    for (const bool v : verdicts) EXPECT_FALSE(v);
}

// ---------------------------------------------------------------------------
// DeferringSignatureChecker

/// Checker whose prepare_signature is driven by the test: pubkey bytes of
/// length 33 form a real triple, anything else refuses (forcing fallback).
class StubChecker final : public script::SignatureChecker {
public:
    StubChecker(PublicKey key, Signature sig, Hash256 digest)
        : key_(key), sig_(sig), digest_(digest) {}

    [[nodiscard]] bool check_signature(util::ByteSpan, util::ByteSpan,
                                       util::ByteSpan) const override {
        ++inline_checks_;
        return inline_verdict_;
    }

    [[nodiscard]] std::optional<VerifyJob> prepare_signature(
        util::ByteSpan, util::ByteSpan pubkey, util::ByteSpan) const override {
        if (pubkey.size() != 33) return std::nullopt;
        return VerifyJob{key_, sig_, digest_};
    }

    mutable int inline_checks_ = 0;
    bool inline_verdict_ = false;

private:
    PublicKey key_;
    Signature sig_;
    Hash256 digest_;
};

TEST(DeferringChecker, CollectsTripleAndReportsOptimisticSuccess) {
    util::Rng rng(33);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("deferred");
    StubChecker inner(key.public_key(), key.sign(digest), digest);
    script::DeferringSignatureChecker deferring(inner);

    const std::uint8_t pubkey33[33] = {};
    EXPECT_TRUE(deferring.check_signature({}, {pubkey33, 33}, {}));
    EXPECT_EQ(deferring.collected().size(), 1u);
    EXPECT_EQ(inner.inline_checks_, 0);

    const VerifyJob& job = deferring.collected().front();
    EXPECT_TRUE(job.key.verify(job.digest, job.sig));
}

TEST(DeferringChecker, FallsBackToInlineWhenPrepareRefuses) {
    util::Rng rng(34);
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_hash("inline");
    StubChecker inner(key.public_key(), key.sign(digest), digest);
    inner.inline_verdict_ = true;
    script::DeferringSignatureChecker deferring(inner);

    const std::uint8_t pubkey32[32] = {};  // wrong length ⇒ prepare refuses
    EXPECT_TRUE(deferring.check_signature({}, {pubkey32, 32}, {}));
    EXPECT_EQ(inner.inline_checks_, 1);
    EXPECT_TRUE(deferring.collected().empty());

    inner.inline_verdict_ = false;
    EXPECT_FALSE(deferring.check_signature({}, {pubkey32, 32}, {}));
    EXPECT_EQ(inner.inline_checks_, 2);
    EXPECT_TRUE(deferring.collected().empty());
}

}  // namespace
}  // namespace ebv::crypto
