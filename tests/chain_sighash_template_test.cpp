// Parity pinning for the sighash template and the one sighash rule built on
// it (chain::SighashCache, docs/CRYPTO.md): every digest must be
// bit-identical to the naive re-serializing signature_hash, across a
// randomized corpus that covers input counts, script sizes, and hash-type
// edge bytes — including the types the consensus path never requests
// (0x00, 0x80, 0xff), since the template widens the type byte exactly like
// the naive path does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chain/miner.hpp"
#include "chain/sighash.hpp"
#include "chain/sighash_template.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/parse_memo.hpp"
#include "crypto/sha256.hpp"
#include "intermediary/converter.hpp"
#include "obs/metrics.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"

namespace ebv {
namespace {

constexpr std::uint8_t kHashTypes[] = {0x00, 0x01, 0x02, 0x03, 0x80, 0x81, 0xff};

util::Bytes random_script(util::Rng& rng, std::size_t max_len) {
    util::Bytes script(rng.below(max_len + 1));
    rng.fill({script.data(), script.size()});
    return script;
}

chain::Transaction random_transaction(util::Rng& rng, std::size_t input_count) {
    chain::Transaction tx;
    tx.version = static_cast<std::uint32_t>(rng.next());
    tx.locktime = static_cast<std::uint32_t>(rng.next());
    tx.vin.resize(input_count);
    for (auto& in : tx.vin) {
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.prevout.index = static_cast<std::uint32_t>(rng.next());
        in.sequence = static_cast<std::uint32_t>(rng.next());
        in.unlock_script = random_script(rng, 64);  // ignored by the sighash
    }
    tx.vout.resize(rng.below(9));
    for (auto& out : tx.vout) {
        out.value = static_cast<chain::Amount>(rng.below(21'000'000ull * 100'000'000ull));
        out.lock_script = random_script(rng, 120);
    }
    return tx;
}

// ≥10k digests pinning the template to the naive path bit for bit. Input
// counts sweep 1..24 so both the empty-midstate case (slot inside the
// first block) and deep multi-block prefixes are exercised.
TEST(SighashTemplate, RandomizedParityCorpus) {
    util::Rng rng(20260807);
    std::size_t digests = 0;
    for (int round = 0; digests < 10'000; ++round) {
        const std::size_t inputs = 1 + static_cast<std::size_t>(rng.below(24));
        const chain::Transaction tx = random_transaction(rng, inputs);
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        ASSERT_EQ(tpl.input_count(), inputs);

        for (std::size_t i = 0; i < inputs; ++i) {
            // A couple of script sizes per input, including empty and one
            // spanning several 64-byte blocks.
            for (const std::size_t max_len : {std::size_t{0}, std::size_t{40}, std::size_t{300}}) {
                const util::Bytes script = random_script(rng, max_len);
                const std::uint8_t ht = kHashTypes[rng.below(std::size(kHashTypes))];
                const crypto::Hash256 naive = chain::signature_hash(
                    tx, i, script, static_cast<chain::SigHashType>(ht));
                ASSERT_EQ(tpl.digest(i, script, ht), naive)
                    << "round " << round << " input " << i << " type " << int{ht};
                ++digests;
            }
        }
    }
    EXPECT_GE(digests, 10'000u);
}

// Every hash-type edge byte, on a fixed transaction, for every input.
TEST(SighashTemplate, HashTypeEdgeBytes) {
    util::Rng rng(7);
    const chain::Transaction tx = random_transaction(rng, 4);
    const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
    const util::Bytes script = random_script(rng, 80);
    for (std::size_t i = 0; i < tx.vin.size(); ++i) {
        for (const std::uint8_t ht : kHashTypes) {
            EXPECT_EQ(tpl.digest(i, script, ht),
                      chain::signature_hash(tx, i, script, static_cast<chain::SigHashType>(ht)));
        }
    }
}

// preimage() must materialize exactly the bytes digest() hashes:
// double-SHA256 of the materialized preimage equals the midstate path.
TEST(SighashTemplate, PreimageMatchesDigest) {
    util::Rng rng(11);
    for (int round = 0; round < 50; ++round) {
        const std::size_t inputs = 1 + static_cast<std::size_t>(rng.below(12));
        const chain::Transaction tx = random_transaction(rng, inputs);
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        util::Bytes preimage;
        for (std::size_t i = 0; i < inputs; ++i) {
            const util::Bytes script = random_script(rng, 150);
            const std::uint8_t ht = kHashTypes[rng.below(std::size(kHashTypes))];
            tpl.preimage(i, script, ht, preimage);
            ASSERT_EQ(preimage.size(), tpl.preimage_size(i, script));
            const auto d = crypto::double_sha256(preimage);
            EXPECT_EQ(crypto::Hash256::from_span({d.data(), d.size()}),
                      tpl.digest(i, script, ht));
        }
    }
}

// prefix_skipped() grows with the input position and never exceeds the
// base size — the single-input case must skip (at most) nothing, which is
// what keeps 1-input transactions regression-free.
TEST(SighashTemplate, PrefixSkippedMonotone) {
    util::Rng rng(13);
    const chain::Transaction tx = random_transaction(rng, 16);
    const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
    std::size_t prev = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t skipped = tpl.prefix_skipped(i);
        EXPECT_GE(skipped, prev);
        EXPECT_LT(skipped, tpl.base_size());
        prev = skipped;
    }
    EXPECT_LT(tpl.prefix_skipped(0), 64u);  // first slot is inside block 0
}

core::EbvTransaction random_ebv_transaction(util::Rng& rng, std::size_t input_count) {
    core::EbvTransaction tx;
    tx.version = static_cast<std::uint32_t>(rng.next());
    tx.locktime = static_cast<std::uint32_t>(rng.next());
    tx.inputs.resize(input_count);
    for (auto& in : tx.inputs) {
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.prevout.index = static_cast<std::uint32_t>(rng.next());
        in.sequence = static_cast<std::uint32_t>(rng.next());
        in.els.outputs.resize(1 + rng.below(3));
        for (auto& out : in.els.outputs) {
            out.value = static_cast<chain::Amount>(rng.below(1'000'000));
            out.lock_script = random_script(rng, 40);
        }
        in.out_index = static_cast<std::uint16_t>(rng.below(in.els.outputs.size()));
    }
    tx.outputs.resize(rng.below(6));
    for (auto& out : tx.outputs) {
        out.value = static_cast<chain::Amount>(rng.below(1'000'000));
        out.lock_script = random_script(rng, 120);
    }
    return tx;
}

// The EBV-side cache (template + eagerly batched SIGHASH_ALL digests over
// the ELs lock scripts) must agree with ebv_signature_hash on both its
// fast paths and its fallbacks.
TEST(TxSighashCache, MatchesNaiveEbvSignatureHash) {
    obs::Counter& bytes_saved =
        obs::Registry::global().counter("ebv.crypto.sighash_bytes_saved");
    util::Rng rng(17);
    for (int round = 0; round < 40; ++round) {
        const std::size_t inputs = 1 + static_cast<std::size_t>(rng.below(20));
        const core::EbvTransaction tx = random_ebv_transaction(rng, inputs);
        const core::TxSighashCache cache(tx);
        const std::uint64_t saved_before = bytes_saved.value();

        for (std::size_t i = 0; i < inputs; ++i) {
            const auto& lock = tx.inputs[i].els.outputs[tx.inputs[i].out_index].lock_script;
            // Standard request: the precomputed batch path.
            EXPECT_EQ(cache.digest(i, lock, 0x01),
                      core::ebv_signature_hash(tx, i, lock, 0x01));
            // Same script, non-standard type: template fallback.
            EXPECT_EQ(cache.digest(i, lock, 0x81),
                      core::ebv_signature_hash(tx, i, lock, 0x81));
            // Different script (a P2SH redeem script, say): template path.
            const util::Bytes redeem = random_script(rng, 90);
            EXPECT_EQ(cache.digest(i, redeem, 0x01),
                      core::ebv_signature_hash(tx, i, redeem, 0x01));
        }
        EXPECT_GT(bytes_saved.value(), saved_before);
    }
}

// Forcing every available SHA-256 row must not change any digest: neither
// the template's streamed ones nor the standard SIGHASH_ALL digests
// chain::SighashCache batches through sha256d_many. Twenty inputs whose
// claimed lock scripts all have one length give one run of equal-length
// preimages, so the 16-lane row fills a batch and leaves stragglers.
TEST(TxSighashCache, ParityHoldsUnderEveryShaImpl) {
    util::Rng rng(19);
    core::EbvTransaction tx = random_ebv_transaction(rng, 20);
    for (auto& in : tx.inputs) {
        auto& lock = in.els.outputs[in.out_index].lock_script;
        lock.resize(25);  // P2PKH-sized: standard, never P2SH
        rng.fill({lock.data(), lock.size()});
    }
    // Per input: the batched SIGHASH_ALL digest and, at a non-standard
    // type over the same script, the template's streamed one.
    std::vector<crypto::Hash256> expected, expected_streamed;
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
        const auto& lock = tx.inputs[i].els.outputs[tx.inputs[i].out_index].lock_script;
        expected.push_back(core::ebv_signature_hash(tx, i, lock, 0x01));
        expected_streamed.push_back(core::ebv_signature_hash(tx, i, lock, 0x81));
    }

    ASSERT_TRUE(crypto::sha256_force_batch_impl("auto"));
    const std::string detected = crypto::sha256_impl();
    obs::Counter& batched = obs::Registry::global().counter("ebv.crypto.sha256d_msgs");
    {
        struct AutoGuard {
            ~AutoGuard() { crypto::sha256_force_batch_impl("auto"); }
        } guard;
        for (const char* impl : {"scalar", "avx2", "avx512", "sha-ni", "avx2+sha-ni",
                                 "avx512+sha-ni"}) {
            if (!crypto::sha256_force_batch_impl(impl)) continue;  // unsupported row
            const std::uint64_t batched_before = batched.value();
            const core::TxSighashCache cache(tx);
            EXPECT_EQ(batched.value() - batched_before, tx.inputs.size()) << impl;
            for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
                const auto& lock =
                    tx.inputs[i].els.outputs[tx.inputs[i].out_index].lock_script;
                EXPECT_EQ(cache.digest(i, lock, 0x01), expected[i]) << impl << " input " << i;
                EXPECT_EQ(cache.digest(i, lock, 0x81), expected_streamed[i])
                    << impl << " input " << i;
            }
        }
    }
    // Later tests in this binary must hash on the detected row.
    EXPECT_EQ(crypto::sha256_impl(), detected);
}

// --- One rule for both validators ------------------------------------------

enum class LockKind { kP2pkh, kP2sh, kMultisig };

/// A Bitcoin-style spend of `inputs` outputs of one lock kind, and its
/// conversion by the intermediary node (height-1 block, funding at 0).
struct SpendPair {
    chain::Transaction btc;
    core::EbvTransaction ebv;
    script::Script lock;
    script::Script script_code;  ///< what the VM hands the checker
};

/// `k1` owns the P2PKH lock and is the first multisig key.
SpendPair make_spend_pair(LockKind kind, std::size_t inputs, const crypto::PrivateKey& k1,
                          util::Rng& rng) {
    const crypto::PrivateKey k2 = crypto::PrivateKey::generate(rng);
    SpendPair p;
    switch (kind) {
        case LockKind::kP2pkh:
            p.lock = p.script_code = script::make_p2pkh(k1.public_key().id());
            break;
        case LockKind::kP2sh:
            p.script_code = script::make_multisig(1, {k1.public_key(), k2.public_key()});
            p.lock = script::make_p2sh(p.script_code);
            break;
        case LockKind::kMultisig:
            p.lock = p.script_code = script::make_multisig(1, {k1.public_key(), k2.public_key()});
            break;
    }

    chain::Block funding;
    funding.txs.push_back(chain::make_coinbase(0, 50 * chain::kCoin, p.lock));
    funding.txs[0].vout.assign(inputs, chain::TxOut{chain::kCoin, p.lock});
    funding.txs[0].invalidate_cache();
    funding.header.merkle_root = funding.compute_merkle_root();

    p.btc.version = 2;
    p.btc.locktime = static_cast<std::uint32_t>(rng.next());
    for (std::uint32_t i = 0; i < inputs; ++i)
        p.btc.vin.push_back(chain::TxIn{chain::OutPoint{funding.txs[0].txid(), i}, {},
                                        static_cast<std::uint32_t>(rng.next())});
    p.btc.vout.push_back(chain::TxOut{chain::kCoin / 2, p.lock});
    chain::Block spending;
    spending.header.prev_hash = funding.header.hash();
    spending.txs.push_back(chain::make_coinbase(1, 50 * chain::kCoin, p.lock));
    spending.txs.push_back(p.btc);
    spending.header.merkle_root = spending.compute_merkle_root();

    intermediary::Converter converter;
    EXPECT_TRUE(converter.convert_block(funding).has_value());
    auto converted = converter.convert_block(spending);
    EXPECT_TRUE(converted.has_value());
    if (converted) p.ebv = converted->txs[1];
    return p;
}

// The shared cache equals the naive digests on both validators' inputs:
// Bitcoin transactions and their intermediary conversions, batched (built
// with the spent lock scripts) and streamed (built without), for every
// lock kind, input count and hash-type edge byte.
TEST(SighashCache, MatchesNaiveDigestsOnBothValidators) {
    util::Rng rng(31);
    for (const LockKind kind : {LockKind::kP2pkh, LockKind::kP2sh, LockKind::kMultisig}) {
        for (const std::size_t inputs :
             {std::size_t{1}, std::size_t{2}, std::size_t{16}, std::size_t{64}}) {
            const SpendPair p =
                make_spend_pair(kind, inputs, crypto::PrivateKey::generate(rng), rng);
            ASSERT_EQ(p.ebv.inputs.size(), inputs);
            const std::vector<util::ByteSpan> locks(inputs, util::ByteSpan(p.lock));
            const chain::SighashCache btc_batched(chain::SighashTemplate::build(p.btc), locks);
            const chain::SighashCache btc_streamed(chain::SighashTemplate::build(p.btc));
            const core::TxSighashCache ebv_batched(p.ebv);
            const chain::SighashCache ebv_streamed(ebv_batched.tpl());

            for (std::size_t i = 0; i < inputs; ++i) {
                for (const util::ByteSpan code :
                     {util::ByteSpan(p.script_code), util::ByteSpan(p.lock)}) {
                    for (const std::uint8_t ht : kHashTypes) {
                        const crypto::Hash256 btc = chain::signature_hash(
                            p.btc, i, code, static_cast<chain::SigHashType>(ht));
                        const crypto::Hash256 ebv = core::ebv_signature_hash(p.ebv, i, code, ht);
                        ASSERT_EQ(btc, ebv);
                        ASSERT_EQ(btc_batched.digest(i, code, ht), btc)
                            << int(kind) << " " << inputs << " " << i << " " << int{ht};
                        ASSERT_EQ(btc_streamed.digest(i, code, ht), btc);
                        ASSERT_EQ(ebv_batched.digest(i, code, ht), ebv);
                        ASSERT_EQ(ebv_streamed.digest(i, code, ht), ebv);
                    }
                }
            }
        }
    }
}

// Both checkers apply the one signature rule: for a valid signature, bad
// DER, hash type 0x81 and the wrong key, the Bitcoin checker and the EBV
// checker return the same verdict on the same (signature, pubkey, script
// code).
TEST(SighashCache, BothCheckersAgreeOnEveryVerdict) {
    util::Rng rng(37);
    const crypto::PrivateKey key = crypto::PrivateKey::generate(rng);
    const crypto::PrivateKey other = crypto::PrivateKey::generate(rng);
    const SpendPair p = make_spend_pair(LockKind::kP2pkh, 4, key, rng);
    ASSERT_EQ(p.ebv.inputs.size(), 4u);
    const util::Bytes pubkey = key.public_key().serialize();

    std::vector<util::Bytes> sigs{
        chain::sign_input(p.btc, 0, p.lock, key),
        chain::sign_input(p.btc, 1, p.lock, key),
        chain::sign_input(p.btc, 2, p.lock, key, static_cast<chain::SigHashType>(0x81)),
        chain::sign_input(p.btc, 3, p.lock, other),
    };
    sigs[1][0] = 0x31;  // not a DER SEQUENCE

    const std::vector<util::ByteSpan> locks(4, util::ByteSpan(p.lock));
    const chain::SighashCache btc_cache(chain::SighashTemplate::build(p.btc), locks);
    const core::TxSighashCache ebv_cache(p.ebv);
    const bool expected[] = {true, false, false, false};
    for (std::size_t i = 0; i < 4; ++i) {
        const chain::SigChecker btc(btc_cache, i);
        const chain::SigChecker ebv(ebv_cache, i);
        EXPECT_EQ(btc.check_signature(sigs[i], pubkey, p.script_code), expected[i]) << i;
        EXPECT_EQ(ebv.check_signature(sigs[i], pubkey, p.script_code), expected[i]) << i;
    }
}

// --- crypto::parse_memo -----------------------------------------------------

TEST(ParseMemo, MatchesDirectParsingAndCaches) {
    crypto::parse_memo_reset();
    util::Rng rng(23);
    const crypto::PrivateKey key = crypto::PrivateKey::generate(rng);
    const util::Bytes pub = key.public_key().serialize();

    const auto direct = crypto::PublicKey::parse(pub);
    ASSERT_TRUE(direct.has_value());

    const auto first = crypto::parse_public_key_memo(pub);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->serialize(), direct->serialize());
    const auto second = crypto::parse_public_key_memo(pub);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->serialize(), direct->serialize());

    const auto stats = crypto::parse_memo_stats();
    EXPECT_EQ(stats.pubkey_misses, 1u);
    EXPECT_EQ(stats.pubkey_hits, 1u);
}

TEST(ParseMemo, CachesNegativeResults) {
    crypto::parse_memo_reset();
    const util::Bytes junk(33, 0x5a);  // not a valid compressed point
    EXPECT_FALSE(crypto::parse_public_key_memo(junk).has_value());
    EXPECT_FALSE(crypto::parse_public_key_memo(junk).has_value());
    const auto stats = crypto::parse_memo_stats();
    EXPECT_EQ(stats.pubkey_misses, 1u);
    EXPECT_EQ(stats.pubkey_hits, 1u);
}

TEST(ParseMemo, SignatureRoundTrip) {
    crypto::parse_memo_reset();
    util::Rng rng(29);
    const crypto::PrivateKey key = crypto::PrivateKey::generate(rng);
    crypto::Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    const util::Bytes der = key.sign(digest).to_der();

    const auto direct = crypto::Signature::from_der(der);
    ASSERT_TRUE(direct.has_value());
    const auto memoized = crypto::parse_signature_der_memo(der);
    ASSERT_TRUE(memoized.has_value());
    EXPECT_TRUE(key.public_key().verify(digest, *memoized));

    (void)crypto::parse_signature_der_memo(der);
    const auto stats = crypto::parse_memo_stats();
    EXPECT_EQ(stats.sig_misses, 1u);
    EXPECT_EQ(stats.sig_hits, 1u);
}

}  // namespace
}  // namespace ebv
