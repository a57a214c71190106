// Parity of crypto::verify_lanes with PublicKey::verify: every backend
// (portable always, IFMA when the CPU reports avx512ifma) must return the
// scalar verdicts bit for bit, for any job in any lane and any group size.
// The same holds for public keys decompressed in the lanes
// (crypto::parse_keys_lanes) against PublicKey::parse, alone and inside a
// chain::LaneBatcher group whose keys are pending.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chain/sig_cache.hpp"
#include "chain/sighash.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/parse_memo.hpp"
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

// ---- public keys decompressed in the lanes ----------------------------------

/// Encodings PublicKey::parse accepts and refuses: both parities, x = 0,
/// x ≥ p, x³ + 7 a non-square, prefixes 0x00/0x04/0x05 and lengths
/// 32/34/65. The first four are good keys.
std::vector<util::Bytes> key_edge_corpus() {
    util::Rng rng(21);
    std::vector<util::Bytes> out;
    for (const std::uint8_t prefix : {0x02, 0x03}) {
        while (out.size() < (prefix == 0x02 ? 2u : 4u)) {
            util::Bytes key = PrivateKey::generate(rng).public_key().serialize();
            if (key[0] == prefix) out.push_back(std::move(key));
        }
    }
    const auto with_x = [](std::uint8_t prefix, const U256& x) {
        util::Bytes b(33, prefix);
        x.to_be_bytes({b.data() + 1, 32});
        return b;
    };
    out.push_back(with_x(0x02, U256::zero()));
    out.push_back(with_x(0x03, U256::zero()));
    out.push_back(with_x(0x02, k1::kFieldPrime));
    out.push_back(with_x(0x03, reference::minus(k1::kFieldPrime, 1)));
    U256 over;
    u256_add(k1::kFieldPrime, U256::one(), over);
    out.push_back(with_x(0x02, over));
    out.push_back(util::Bytes(33, 0xff));
    for (std::uint64_t x = 1, found = 0; found < 2; ++x) {
        const util::Bytes b = with_x(static_cast<std::uint8_t>(0x02 + found), U256::from_u64(x));
        if (!PublicKey::parse(b)) {
            out.push_back(b);
            ++found;
        }
    }
    for (const std::uint8_t prefix : {0x00, 0x04, 0x05}) {
        util::Bytes b = out[0];
        b[0] = prefix;
        out.push_back(b);
    }
    out.push_back(util::Bytes(out[0].begin(), out[0].begin() + 32));
    util::Bytes longer = out[0];
    longer.push_back(0x01);
    out.push_back(longer);
    util::Bytes uncompressed(65, 0x04);
    const k1::Point& g = k1::generator();
    g.x.to_be_bytes({uncompressed.data() + 1, 32});
    g.y.to_be_bytes({uncompressed.data() + 33, 32});
    out.push_back(uncompressed);
    return out;
}

TEST_F(LanesTest, KeyParseMatchesScalarOnEdgeCorpus) {
    const std::vector<util::Bytes> corpus = key_edge_corpus();
    std::vector<std::optional<PublicKey>> expected;
    for (const util::Bytes& b : corpus) expected.push_back(PublicKey::parse(b));
    std::size_t good = 0;
    for (const auto& key : expected) {
        if (!key) continue;
        ++good;
        // The affine oracle: y² = x³ + 7.
        const U256& x = key->point().x;
        EXPECT_EQ(reference::fmul(key->point().y, key->point().y),
                  reference::fadd(reference::fmul(reference::fmul(x, x), x), U256::from_u64(7)));
    }
    ASSERT_GE(good, 4u);
    ASSERT_LT(good, corpus.size() - 10);

    obs::Counter& decompressed = obs::Registry::global().counter("ebv.crypto.lane_decompressions");
    for (const std::string& backend : {std::string("none"), std::string("portable"),
                                       std::string(detail::have_ifma() ? "ifma" : "portable")}) {
        ASSERT_TRUE(lanes_force_impl(backend));
        // Each encoding in every lane of groups of 1–8, good keys around it.
        for (std::size_t c = 0; c < corpus.size(); ++c) {
            for (std::size_t n = 1; n <= kVerifyLanes; ++n) {
                for (std::size_t lane = 0; lane < n; ++lane) {
                    std::vector<util::ByteSpan> group;
                    std::vector<std::size_t> index;
                    for (std::size_t i = 0; i < n; ++i) {
                        index.push_back(i == lane ? c : (c + i) % 4);
                        group.emplace_back(corpus[index.back()]);
                    }
                    std::vector<PublicKey> keys(n);
                    const std::uint64_t before = decompressed.value();
                    const std::uint8_t mask = parse_keys_lanes(group, keys);
                    std::uint64_t well_formed = 0;
                    for (std::size_t i = 0; i < n; ++i) {
                        well_formed += k1::compressed_x(group[i]).has_value();
                        ASSERT_EQ((mask >> i & 1) != 0, expected[index[i]].has_value())
                            << backend << ", encoding " << index[i] << " in lane " << i;
                        if (expected[index[i]])
                            EXPECT_TRUE(keys[i].point() == expected[index[i]]->point());
                    }
                    const bool chained = backend != "none" && well_formed >= 2;
                    EXPECT_EQ(decompressed.value() - before, chained ? well_formed : 0);
                }
            }
        }
    }
}

TEST_F(LanesTest, PendingKeysVerifyLikeParseThenVerify) {
    // Groups of 1–8 through chain::LaneBatcher, mixing memo hits, pending
    // keys (deferred memo misses) and keys with no point, every kind in
    // every lane; the verdicts must be PublicKey::parse, then verify.
    const std::vector<util::Bytes> corpus = key_edge_corpus();
    util::Rng rng(22);
    std::vector<PrivateKey> signers;
    for (int i = 0; i < 24; ++i) signers.push_back(PrivateKey::generate(rng));
    const util::Bytes& no_point = corpus[corpus.size() - 8];  // x³ + 7 a non-square
    ASSERT_TRUE(k1::compressed_x(no_point) && !PublicKey::parse(no_point));

    std::vector<std::string> all{"none", "portable"};
    if (detail::have_ifma()) all.emplace_back("ifma");
    for (const std::string& backend : all) {
        ASSERT_TRUE(lanes_force_impl(backend));
        std::size_t used = 0;
        for (std::size_t n = 1; n <= kVerifyLanes; ++n) {
            for (std::size_t shift = 0; shift < 4; ++shift) {
                parse_memo_reset();
                std::vector<util::Bytes> encodings(n);
                std::vector<VerifyJob> jobs(n);
                std::vector<bool> expected(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const PrivateKey& signer = signers[used++ % signers.size()];
                    const Hash256 digest = random_digest(rng);
                    const std::size_t kind = (i + shift) % 4;  // hit, pending, no point, bad sig
                    encodings[i] = kind == 2 ? no_point : signer.public_key().serialize();
                    jobs[i].sig = signer.sign(digest);
                    jobs[i].digest = digest;
                    if (kind == 3) jobs[i].digest.bytes()[7] ^= 0x40;
                    if (kind == 0) ASSERT_TRUE(parse_public_key_memo(encodings[i]));
                    const auto key = parse_public_key_memo(encodings[i], true);
                    ASSERT_TRUE(key.has_value());
                    EXPECT_EQ(key->valid(), kind == 0);
                    jobs[i].key = *key;
                    const auto parsed = PublicKey::parse(encodings[i]);
                    expected[i] = parsed && parsed->verify(jobs[i].digest, jobs[i].sig);
                }
                chain::LaneBatcher batcher;
                std::vector<chain::SigVerdict> verdicts(n, chain::SigVerdict::kQueued);
                for (std::size_t i = 0; i < n; ++i)
                    batcher.add(jobs[i], &verdicts[i], encodings[i]);
                batcher.flush();
                for (std::size_t i = 0; i < n; ++i) {
                    const bool no_key = (i + shift) % 4 == 2;
                    EXPECT_EQ(verdicts[i] == chain::SigVerdict::kTrue, expected[i])
                        << backend << ", group of " << n << ", lane " << i;
                    EXPECT_EQ(verdicts[i] == chain::SigVerdict::kRefused, no_key);
                }
                // The flush entered each pending key in the memo; the last one
                // entered has no later entry to evict it, so it hits.
                for (std::size_t i = n; i-- > 0;) {
                    const std::size_t kind = (i + shift) % 4;
                    if (kind != 1 && kind != 2) continue;
                    const ParseMemoStats before = parse_memo_stats();
                    EXPECT_EQ(parse_public_key_memo(encodings[i]).has_value(), kind == 1);
                    EXPECT_EQ(parse_memo_stats().pubkey_hits, before.pubkey_hits + 1);
                    break;
                }
            }
        }
    }
    parse_memo_reset();
}

TEST_F(LanesTest, SigCacheKeysFromTheEncoding) {
    // A triple entered with its point is found from its encoding alone,
    // with the key still pending, and the other way round.
    util::Rng rng(23);
    chain::SigCache cache;
    for (int i = 0; i < 8; ++i) {
        const PrivateKey signer = PrivateKey::generate(rng);
        const Hash256 digest = random_digest(rng);
        const VerifyJob job = signed_job(signer, digest);
        const util::Bytes encoding = job.key.serialize();
        VerifyJob pending = job;
        pending.key = PublicKey();
        if (i % 2 == 0) {
            cache.insert(job);
        } else {
            cache.insert(pending, encoding);
        }
        EXPECT_TRUE(cache.contains(job));
        EXPECT_TRUE(cache.contains(pending, encoding));
        util::Bytes other_parity = encoding;
        other_parity[0] ^= 0x01;
        EXPECT_FALSE(cache.contains(pending, other_parity));
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
