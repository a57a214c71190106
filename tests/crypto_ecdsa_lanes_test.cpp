// Parity of crypto::verify_lanes with PublicKey::verify: every backend
// (portable always, IFMA when the CPU reports avx512ifma) must return the
// scalar verdicts bit for bit, for any job in any lane and any group size.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto_reference.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;
using reference::random_scalar;
using reference::steered;

/// Backends this CPU can run.
std::vector<std::string> backends() {
    std::vector<std::string> out{"portable"};
    if (detail::have_ifma()) out.emplace_back("ifma");
    return out;
}

class LanesTest : public ::testing::Test {
protected:
    void TearDown() override { ASSERT_TRUE(lanes_force_impl("auto")); }
};

std::uint8_t scalar_mask(std::span<const VerifyJob> jobs) {
    std::uint8_t mask = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].key.verify(jobs[i].digest, jobs[i].sig)) mask |= 1u << i;
    return mask;
}

/// Runs `jobs` in groups of `group` through every backend and compares each
/// group's bitmask with the scalar verdicts.
void expect_parity(const std::vector<VerifyJob>& jobs, std::size_t group = kVerifyLanes) {
    std::vector<std::uint8_t> expected;
    for (std::size_t i = 0; i < jobs.size(); i += group) {
        const std::size_t n = std::min(group, jobs.size() - i);
        expected.push_back(scalar_mask({jobs.data() + i, n}));
    }
    for (const std::string& backend : backends()) {
        ASSERT_TRUE(lanes_force_impl(backend));
        for (std::size_t i = 0, g = 0; i < jobs.size(); i += group, ++g) {
            const std::size_t n = std::min(group, jobs.size() - i);
            ASSERT_EQ(verify_lanes({jobs.data() + i, n}), expected[g])
                << backend << ", group of " << n << " at job " << i;
        }
    }
}

Hash256 random_digest(util::Rng& rng) {
    Hash256 h;
    rng.fill({h.bytes().data(), 32});
    return h;
}

VerifyJob signed_job(const PrivateKey& key, const Hash256& digest) {
    return VerifyJob{key.public_key(), key.sign(digest), digest};
}

VerifyJob as_job(const reference::Constructed& c) { return VerifyJob{c.key, c.sig, c.digest}; }

// ---- the vectors of crypto_secp_edge_test ------------------------------------

std::vector<VerifyJob> edge_vectors() {
    std::vector<VerifyJob> jobs;
    util::Rng rng(3);
    const auto key = PrivateKey::generate(rng);
    for (int i = 0; i < 4; ++i) {
        VerifyJob job = signed_job(key, random_digest(rng));
        jobs.push_back(job);
        job.sig.s = (-k1::Scalar(job.sig.s)).value();  // high s verifies too
        jobs.push_back(job);
    }
    const VerifyJob good = jobs.front();
    for (const U256& bad : {U256::zero(), k1::kGroupOrder}) {
        jobs.push_back(VerifyJob{good.key, Signature{bad, good.sig.s}, good.digest});
        jobs.push_back(VerifyJob{good.key, Signature{good.sig.r, bad}, good.digest});
    }
    jobs.push_back(VerifyJob{PublicKey(), good.sig, good.digest});  // invalid key

    // R.x = n + k in [n, p): r = k verifies, r = n + k and r = k + 1 do not.
    int built = 0;
    for (std::uint64_t k = 1; built < 3; ++k) {
        U256 x;
        u256_add(k1::kGroupOrder, U256::from_u64(k), x);
        std::uint8_t buf[33];
        buf[0] = static_cast<std::uint8_t>(0x02 + (k & 1));
        x.to_be_bytes({buf + 1, 32});
        const auto R = k1::parse_compressed({buf, 33});
        if (!R) continue;
        ++built;
        const auto c = reference::construct(*R, random_scalar(rng), random_scalar(rng),
                                            k1::Scalar(U256::from_u64(k)));
        jobs.push_back(as_job(c));
        VerifyJob unreduced = as_job(c);
        unreduced.sig.r = x;
        jobs.push_back(unreduced);
        VerifyJob off_by_one = as_job(c);
        off_by_one.sig.r = U256::from_u64(k + 1);
        jobs.push_back(off_by_one);
    }

    // R at infinity: P = −(u1/u2)·G.
    for (int i = 0; i < 4; ++i) {
        const k1::Scalar u1 = random_scalar(rng);
        const k1::Scalar u2 = i == 0 ? u1 : random_scalar(rng);
        jobs.push_back(as_job(steered(-(u1 * u2.inverse()), u1, u2, random_scalar(rng))));
    }

    // z ≡ 0 (mod n): the digests 0 and n are the same scalar.
    const Hash256 zero{};
    Hash256 n_digest;
    k1::kGroupOrder.to_be_bytes({n_digest.bytes().data(), 32});
    const Signature zero_sig = key.sign(zero);
    jobs.push_back(VerifyJob{key.public_key(), zero_sig, zero});
    jobs.push_back(VerifyJob{key.public_key(), zero_sig, n_digest});
    jobs.push_back(VerifyJob{key.public_key(), key.sign(n_digest), zero});
    return jobs;
}

TEST_F(LanesTest, EdgeVectorsMatchScalar) {
    const std::vector<VerifyJob> jobs = edge_vectors();
    ASSERT_NE(scalar_mask({jobs.data(), 8}), 0);
    expect_parity(jobs);
}

// ---- exceptional additions ---------------------------------------------------

/// Jobs whose lockstep sum meets H = 0: with P = ±G, ±λG or 2G and small
/// u1, u2, the P and G terms land on the same multiple of G (a doubling)
/// or on opposite ones (infinity) inside the kernel.
std::vector<VerifyJob> exceptional_jobs(util::Rng& rng) {
    const k1::Scalar lambda(k1::kLambda);
    const k1::Scalar one(U256::one());
    const k1::Scalar keys[] = {one, -one, lambda, -lambda, one + one};
    std::vector<VerifyJob> jobs;
    for (const k1::Scalar& d : keys) {
        for (std::uint64_t c : {1ULL, 2ULL, 3ULL, 16ULL, 17ULL, 255ULL, 511ULL, 512ULL}) {
            const k1::Scalar u(U256::from_u64(c));
            jobs.push_back(as_job(steered(d, u, u, random_scalar(rng))));
            jobs.push_back(as_job(steered(d, -u, u, random_scalar(rng))));
            jobs.push_back(as_job(steered(d, u + u, u, random_scalar(rng))));
        }
    }
    return jobs;
}

TEST_F(LanesTest, ExceptionalAdditionsFallBackToScalar) {
    util::Rng rng(11);
    const std::vector<VerifyJob> jobs = exceptional_jobs(rng);
    obs::Counter& fallbacks = obs::Registry::global().counter("ebv.crypto.lane_fallbacks");
    const std::uint64_t before = fallbacks.value();
    expect_parity(jobs);
    // The corpus does reach the fallback in groups of eight (a one-job
    // group never runs the kernel, so it cannot fall back).
    EXPECT_GT(fallbacks.value(), before);
}

// ---- a randomized corpus -----------------------------------------------------

std::vector<VerifyJob> random_corpus(std::size_t size) {
    util::Rng rng(12);
    std::vector<PrivateKey> keys;
    for (int i = 0; i < 64; ++i) keys.push_back(PrivateKey::generate(rng));
    std::vector<VerifyJob> jobs;
    jobs.reserve(size);
    while (jobs.size() < size) {
        const PrivateKey& key = keys[rng.next() % keys.size()];
        VerifyJob job = signed_job(key, random_digest(rng));
        switch (rng.next() % 10) {
            case 0: job.sig.r = k1::Scalar(reference::random_u256(rng)).value(); break;
            case 1: job.sig.s = k1::Scalar(reference::random_u256(rng)).value(); break;
            case 2: job.digest.bytes()[rng.next() % 32] ^= 1u << (rng.next() % 8); break;
            case 3: job.key = keys[rng.next() % keys.size()].public_key(); break;
            case 4: {
                // A structured sum: small or opposite scalars on P = ±G.
                const k1::Scalar u(U256::from_u64(1 + rng.next() % 600));
                const k1::Scalar d = rng.next() % 2 != 0 ? k1::Scalar(U256::one())
                                                         : -k1::Scalar(U256::one());
                job = as_job(steered(d, rng.next() % 2 != 0 ? u : -u, u, random_scalar(rng)));
                break;
            }
            default: break;  // valid
        }
        if (job.sig.r.is_zero() || job.sig.s.is_zero()) continue;
        jobs.push_back(job);
    }
    return jobs;
}

TEST_F(LanesTest, RandomCorpusMatchesScalar) {
    const std::vector<VerifyJob> jobs = random_corpus(10'000);
    std::size_t valid = 0;
    for (const VerifyJob& job : jobs) valid += job.key.verify(job.digest, job.sig);
    EXPECT_GT(valid, jobs.size() / 2);
    EXPECT_LT(valid, jobs.size());
    expect_parity(jobs);
}

TEST_F(LanesTest, GroupsOfOneToSeven) {
    const std::vector<VerifyJob> jobs = random_corpus(200);
    for (std::size_t group = 1; group < kVerifyLanes; ++group) expect_parity(jobs, group);
}

TEST_F(LanesTest, OneJobTakesTheScalarPath) {
    // ebv.crypto.lane_groups counts kernel runs: a one-job group goes to
    // PublicKey::verify, a group of two runs the kernel.
    const std::vector<VerifyJob> jobs = random_corpus(2);
    obs::Counter& groups = obs::Registry::global().counter("ebv.crypto.lane_groups");
    for (const std::string& backend : backends()) {
        ASSERT_TRUE(lanes_force_impl(backend));
        const std::uint64_t before = groups.value();
        EXPECT_EQ(verify_lanes({jobs.data(), 1}), scalar_mask({jobs.data(), 1})) << backend;
        EXPECT_EQ(groups.value(), before) << backend;
        EXPECT_EQ(verify_lanes(jobs), scalar_mask(jobs)) << backend;
        EXPECT_EQ(groups.value(), before + 1) << backend;
    }
}

TEST_F(LanesTest, EveryBadJobInEveryLane) {
    util::Rng rng(13);
    const auto key = PrivateKey::generate(rng);
    std::vector<VerifyJob> good;
    for (std::size_t i = 0; i < kVerifyLanes; ++i)
        good.push_back(signed_job(key, random_digest(rng)));
    ASSERT_EQ(scalar_mask(good), 0xff);

    std::vector<VerifyJob> bad;
    for (const VerifyJob& job : edge_vectors())
        if (!job.key.verify(job.digest, job.sig)) bad.push_back(job);
    for (const VerifyJob& job : exceptional_jobs(rng))
        if (!job.key.verify(job.digest, job.sig)) bad.push_back(job);
    VerifyJob tampered = good[0];
    tampered.digest.bytes()[0] ^= 1;
    bad.push_back(tampered);
    ASSERT_GT(bad.size(), 10u);

    for (const VerifyJob& b : bad) {
        for (std::size_t lane = 0; lane < kVerifyLanes; ++lane) {
            std::vector<VerifyJob> group = good;
            group[lane] = b;
            expect_parity(group);
        }
    }
}

TEST_F(LanesTest, FieldProductChainMatchesScalar) {
    // 2,000 dependent products per lane, one lane at the limb bounds.
    util::Rng rng(14);
    using k1::FieldElement;
    FieldElement x[kVerifyLanes];
    FieldElement y[kVerifyLanes];
    for (std::size_t lane = 0; lane < kVerifyLanes; ++lane) {
        x[lane] = FieldElement(reference::random_u256(rng));
        y[lane] = FieldElement(reference::random_u256(rng));
    }
    // The largest carried limbs (all below 2^52, the top below 2^49).
    const FieldElement corner = FieldElement::from_limbs(
        {reference::kMask52, reference::kMask52, reference::kMask52, reference::kMask52,
         (1ULL << 49) - 2});
    x[0] = corner;
    y[0] = corner;
    y[1] = FieldElement(reference::minus(k1::kFieldPrime, 1));
    for (const std::string& backend : backends()) {
        ASSERT_TRUE(lanes_force_impl(backend));
        std::uint64_t a[5][kVerifyLanes];
        std::uint64_t b[5][kVerifyLanes];
        for (std::size_t lane = 0; lane < kVerifyLanes; ++lane) {
            for (int l = 0; l < 5; ++l) {
                a[l][lane] = x[lane].limbs()[l];
                b[l][lane] = y[lane].limbs()[l];
            }
        }
        detail::field_mul_lanes(a, b, 2000);
        for (std::size_t lane = 0; lane < kVerifyLanes; ++lane) {
            FieldElement expected = x[lane];
            for (int i = 0; i < 2000; ++i) expected = expected * y[lane];
            FieldElement::Limbs got{};
            for (int l = 0; l < 5; ++l) got[l] = a[l][lane];
            EXPECT_EQ(FieldElement::from_limbs(got), expected) << backend << ", lane " << lane;
            EXPECT_LT(got[4], 1ULL << 49);
        }
    }
}

TEST_F(LanesTest, ForceHookSelectsBackends) {
    ASSERT_TRUE(lanes_force_impl("portable"));
    EXPECT_STREQ(lanes_impl(), "portable");
    EXPECT_TRUE(lanes_enabled());
    ASSERT_TRUE(lanes_force_impl("none"));
    EXPECT_FALSE(lanes_enabled());
    EXPECT_EQ(lanes_force_impl("ifma"), detail::have_ifma());
    EXPECT_FALSE(lanes_force_impl("avx9000"));
    ASSERT_TRUE(lanes_force_impl("auto"));
    EXPECT_STREQ(lanes_impl(), detail::have_ifma() ? "ifma" : "none");
}

}  // namespace
}  // namespace ebv::crypto
