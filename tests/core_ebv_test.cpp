// End-to-end tests of the EBV mechanism on a hand-built chain: transaction
// structures, proof construction, the EV/UV/SV pipeline, the fake-position
// defence, and the transaction-inflation bound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/miner.hpp"
#include "chain/sighash.hpp"
#include "core/chain_archive.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "core/node.hpp"
#include "core/sig_cache.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"

namespace ebv::core {
namespace {

using chain::Amount;
using chain::kCoin;

/// Harness that grows a small EBV chain: every block has a coinbase paying
/// the shared key; helpers build spends with real proofs and signatures.
class EbvChainHarness {
public:
    EbvChainHarness() : key_(crypto::PrivateKey::generate(rng_)) {
        options_.params.coinbase_maturity = 2;
        node_ = std::make_unique<EbvNode>(options_);
    }

    script::Script lock() const { return script::make_p2pkh(key_.public_key().id()); }

    EbvTransaction make_coinbase(std::uint32_t height) {
        EbvTransaction tx;
        tx.coinbase_data = util::Bytes{static_cast<std::uint8_t>(height),
                                       static_cast<std::uint8_t>(height >> 8), 0x01};
        tx.outputs.push_back(
            chain::TxOut{options_.params.subsidy_at(height) + fees_, lock()});
        fees_ = 0;
        return tx;
    }

    /// Spend output `out_index` of tx `tx_index` in block `height`.
    EbvTransaction make_spend(std::uint32_t height, std::uint32_t tx_index,
                              std::uint16_t out_index, Amount out_value,
                              std::size_t out_count = 1) {
        EbvTransaction tx;
        EbvInput in = archive_.make_input(height, tx_index, out_index);
        in.prevout.txid.bytes()[0] = 0x77;  // synthetic legacy outpoint
        in.prevout.index = out_index;
        tx.inputs.push_back(std::move(in));
        for (std::size_t o = 0; o < out_count; ++o) {
            tx.outputs.push_back(chain::TxOut{out_value / static_cast<Amount>(out_count),
                                              lock()});
        }

        const Amount in_value = archive_.tidy(height, tx_index).outputs[out_index].value;
        fees_ += in_value - tx.total_output_value();
        sign(tx, 0);
        return tx;
    }

    void sign(EbvTransaction& tx, std::size_t input_index) {
        const script::Script code = lock();
        const crypto::Hash256 digest = ebv_signature_hash(tx, input_index, code, 0x01);
        util::Bytes sig = key_.sign(digest).to_der();
        sig.push_back(0x01);
        tx.inputs[input_index].unlock_script =
            script::make_p2pkh_unlock(sig, key_.public_key());
    }

    EbvBlock package(std::vector<EbvTransaction> txs) {
        EbvBlock block;
        block.txs.push_back(make_coinbase(node_->next_height()));
        for (auto& tx : txs) block.txs.push_back(std::move(tx));
        block.header.prev_hash = node_->headers().empty()
                                     ? crypto::Hash256{}
                                     : node_->headers().tip_hash();
        block.header.time = node_->next_height() * 600;
        block.assign_stake_positions();
        return block;
    }

    util::Result<EbvTimings, EbvValidationFailure> submit(const EbvBlock& block) {
        auto result = node_->submit_block(block);
        if (result) archive_.add_block(block);
        return result;
    }

    void mine_empty(int count) {
        for (int i = 0; i < count; ++i) {
            auto r = submit(package({}));
            ASSERT_TRUE(r.has_value()) << r.error().describe();
        }
    }

    util::Rng rng_{11};
    crypto::PrivateKey key_;
    EbvNodeOptions options_;
    std::unique_ptr<EbvNode> node_;
    ChainArchive archive_;
    Amount fees_ = 0;
};

class EbvValidatorTest : public ::testing::Test {
protected:
    EbvChainHarness h_;
};

TEST(TidyTransaction, SerializationRoundTrip) {
    TidyTransaction tx;
    tx.version = 2;
    tx.input_hashes.resize(3);
    tx.input_hashes[1].bytes()[5] = 9;
    tx.outputs.push_back(chain::TxOut{100, script::Script{0x51}});
    tx.locktime = 7;
    tx.stake_position = 42;

    util::Writer w;
    tx.serialize(w);
    util::Reader r(w.data());
    auto decoded = TidyTransaction::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, tx);
    EXPECT_EQ(decoded->leaf_hash(), tx.leaf_hash());
}

TEST(TidyTransaction, LeafHashCoversStakePosition) {
    TidyTransaction tx;
    tx.outputs.push_back(chain::TxOut{1, script::Script{0x51}});
    const auto h1 = tx.leaf_hash();
    tx.stake_position = 5;
    EXPECT_NE(tx.leaf_hash(), h1);  // MBr therefore authenticates it
}

TEST(EbvTransaction, TidyProjectionHashesInputs) {
    EbvTransaction tx;
    EbvInput in;
    in.height = 3;
    in.out_index = 1;
    in.els.outputs.push_back(chain::TxOut{5, script::Script{0x51}});
    tx.inputs.push_back(in);
    tx.outputs.push_back(chain::TxOut{4, script::Script{0x52}});

    const TidyTransaction tidy = tx.tidy();
    ASSERT_EQ(tidy.input_hashes.size(), 1u);
    EXPECT_EQ(tidy.input_hashes[0], tx.inputs[0].input_hash());
    EXPECT_EQ(tidy.outputs, tx.outputs);
}

TEST(EbvTransaction, SerializationRoundTrip) {
    EbvChainHarness h;
    h.mine_empty(3);
    EbvTransaction tx = h.make_spend(0, 0, 0, 10 * kCoin, 2);

    util::Writer w;
    tx.serialize(w);
    util::Reader r(w.data());
    auto decoded = EbvTransaction::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, tx);
    EXPECT_EQ(decoded->leaf_hash(), tx.leaf_hash());
}

TEST(EbvBlock, StakePositionsAreRunningOutputCounts) {
    EbvChainHarness h;
    h.mine_empty(4);
    std::vector<EbvTransaction> spends;
    spends.push_back(h.make_spend(0, 0, 0, 10 * kCoin, 3));
    spends.push_back(h.make_spend(1, 0, 0, 10 * kCoin, 2));
    const EbvBlock block = h.package(std::move(spends));

    EXPECT_EQ(block.txs[0].stake_position, 0u);
    EXPECT_EQ(block.txs[1].stake_position, block.txs[0].outputs.size());
    EXPECT_EQ(block.txs[2].stake_position,
              block.txs[0].outputs.size() + block.txs[1].outputs.size());
    EXPECT_EQ(block.compute_merkle_root(), block.header.merkle_root);
}

TEST_F(EbvValidatorTest, AcceptsValidChainWithSpends) {
    h_.mine_empty(3);
    auto r = h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin, 2)}));
    ASSERT_TRUE(r.has_value()) << r.error().describe();
    EXPECT_EQ(r->inputs, 1u);
    // Block 0's only output is spent, so its vector is gone.
    EXPECT_FALSE(h_.node_->status().has_vector(0));
    EXPECT_TRUE(h_.node_->status().has_vector(3));
}

TEST_F(EbvValidatorTest, SpendingSpentOutputFailsUv) {
    h_.mine_empty(3);
    ASSERT_TRUE(h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)})));
    auto r = h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kUnspentFailed);
}

TEST_F(EbvValidatorTest, DoubleSpendWithinBlockRejected) {
    h_.mine_empty(3);
    auto tx1 = h_.make_spend(0, 0, 0, 20 * kCoin);
    auto tx2 = h_.make_spend(0, 0, 0, 20 * kCoin);
    auto r = h_.submit(h_.package({tx1, tx2}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kDoubleSpendInBlock);
}

TEST_F(EbvValidatorTest, FakeStakePositionRejectedByMerkleCheck) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    // The proposer lies about the stake position inside ELs, trying to
    // shift the absolute position UV tests (the fake-position attack).
    spend.inputs[0].els.stake_position += 1;
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    // The tampered ELs no longer matches the Merkle root: EV catches it.
    EXPECT_EQ(r.error().error, EbvError::kExistenceFailed);
}

TEST_F(EbvValidatorTest, MinerAssignedStakePositionsAreVerified) {
    h_.mine_empty(3);
    EbvBlock block = h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)});
    // A malicious miner packaging wrong stake positions must be rejected
    // even though its own Merkle root covers them.
    block.txs[1].stake_position += 1;
    block.header.merkle_root = block.compute_merkle_root();
    auto r = h_.submit(block);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kBadStakePosition);
}

TEST_F(EbvValidatorTest, ForgedElsFailsEv) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    spend.inputs[0].els.outputs[0].value += 1;  // claim a richer output
    h_.sign(spend, 0);                          // even with a fresh signature
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kExistenceFailed);
}

TEST_F(EbvValidatorTest, WrongBranchFailsEv) {
    h_.mine_empty(3);
    // Block 3 has two leaves (coinbase + spend) so the branch is non-empty.
    ASSERT_TRUE(h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)})));

    EbvTransaction spend = h_.make_spend(3, 1, 0, 20 * kCoin);
    ASSERT_FALSE(spend.inputs[0].mbr.siblings.empty());
    spend.inputs[0].mbr.index ^= 1;  // claim a different leaf slot
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kExistenceFailed);
}

TEST_F(EbvValidatorTest, FutureHeightFailsEv) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    spend.inputs[0].height = 99;
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kUnknownHeight);
}

TEST_F(EbvValidatorTest, BadOutIndexRejected) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    spend.inputs[0].out_index = 7;  // coinbase has 1 output
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kBadOutIndex);
}

TEST_F(EbvValidatorTest, ImmatureCoinbaseSpendRejected) {
    h_.mine_empty(2);
    // Height 2 spending block 1's coinbase (maturity 2 ⇒ needs height 3).
    auto r = h_.submit(h_.package({h_.make_spend(1, 0, 0, 25 * kCoin)}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kImmatureCoinbaseSpend);
}

TEST_F(EbvValidatorTest, BadSignatureFailsSv) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    spend.inputs[0].unlock_script[4] ^= 0x20;
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kScriptFailure);
}

TEST_F(EbvValidatorTest, CollectDefersTheSignatureAndKeepsEveryOtherVerdict) {
    h_.mine_empty(3);
    const EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    ASSERT_TRUE(is_standard_p2pkh(spend.inputs[0]));

    // A standard spend defers its one signature and reports success; the
    // deferred triple is what sv_check_input would have verified.
    std::optional<crypto::VerifyJob> deferred;
    EXPECT_EQ(sv_collect_input(spend, 0, nullptr, nullptr, deferred), script::ScriptError::kOk);
    ASSERT_TRUE(deferred.has_value());
    EXPECT_TRUE(deferred->key.verify(deferred->digest, deferred->sig));

    // A signature with a flipped bit in r still parses, so it defers, and
    // its triple is false; a wrong pubkey fails before OP_CHECKSIG,
    // exactly as inline.
    EbvTransaction bad_sig = spend;
    bad_sig.inputs[0].unlock_script[10] ^= 0x01;
    EXPECT_EQ(sv_collect_input(bad_sig, 0, nullptr, nullptr, deferred), script::ScriptError::kOk);
    ASSERT_TRUE(deferred.has_value());
    EXPECT_FALSE(deferred->key.verify(deferred->digest, deferred->sig));
    EXPECT_EQ(sv_check_input(bad_sig, 0), script::ScriptError::kEvalFalse);
    EbvTransaction wrong_key = spend;
    const auto other = crypto::PrivateKey::generate(h_.rng_).public_key();
    const util::Bytes sig(spend.inputs[0].unlock_script.begin() + 1,
                          spend.inputs[0].unlock_script.begin() + 1 +
                              spend.inputs[0].unlock_script[0]);
    wrong_key.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, other);
    EXPECT_EQ(sv_collect_input(wrong_key, 0, nullptr, nullptr, deferred),
              script::ScriptError::kEqualVerifyFailed);
    EXPECT_FALSE(deferred.has_value());

    // A sigcache hit needs no deferral.
    SigCache cache;
    ASSERT_EQ(sv_check_input(spend, 0, nullptr, &cache), script::ScriptError::kOk);
    EXPECT_EQ(sv_collect_input(spend, 0, nullptr, &cache, deferred), script::ScriptError::kOk);
    EXPECT_FALSE(deferred.has_value());

    // Three pushes is not the standard template.
    EbvTransaction extra_push = spend;
    extra_push.inputs[0].unlock_script.insert(extra_push.inputs[0].unlock_script.begin(),
                                              {0x01, 0x01});
    EXPECT_FALSE(is_standard_p2pkh(extra_push.inputs[0]));
}

TEST(LaneBatcher, VerifiesFullAndPartialGroupsAndReportsFalseOwnersInOrder) {
    util::Rng rng(31);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto job = [&](bool valid) {
        crypto::Hash256 digest;
        rng.fill({digest.bytes().data(), 32});
        crypto::VerifyJob j{key.public_key(), key.sign(digest), digest};
        if (!valid) j.digest.bytes()[0] ^= 0x01;
        return j;
    };

    struct RestoreAuto {
        ~RestoreAuto() { crypto::lanes_force_impl("auto"); }
    } restore;
    std::vector<std::string> backends = {"none", "portable"};
    if (crypto::detail::have_ifma()) backends.emplace_back("ifma");
    for (const std::string& backend : backends) {
        SCOPED_TRACE(backend);
        ASSERT_TRUE(crypto::lanes_force_impl(backend));
        SigCache cache;
        std::vector<std::size_t> false_owners;
        const auto on_false = [&](std::size_t owner) { false_owners.push_back(owner); };
        LaneBatcher batcher(&cache, on_false);

        // A full group verifies on its eighth add: lanes 2 and 5 are false.
        std::vector<crypto::VerifyJob> full;
        for (std::size_t k = 0; k < crypto::kVerifyLanes; ++k) {
            full.push_back(job(k != 2 && k != 5));
            batcher.add(full.back(), 100 + k);
            EXPECT_EQ(batcher.size(), (k + 1) % crypto::kVerifyLanes);
        }
        EXPECT_EQ(false_owners, (std::vector<std::size_t>{102, 105}));
        for (std::size_t k = 0; k < full.size(); ++k)
            EXPECT_EQ(cache.contains(full[k]), k != 2 && k != 5) << "lane " << k;

        // A partial group waits for flush().
        false_owners.clear();
        const std::vector<crypto::VerifyJob> partial = {job(true), job(false), job(true)};
        for (std::size_t k = 0; k < partial.size(); ++k) batcher.add(partial[k], 200 + k);
        EXPECT_EQ(batcher.size(), partial.size());
        EXPECT_TRUE(false_owners.empty());
        EXPECT_FALSE(cache.contains(partial[0]));
        batcher.flush();
        EXPECT_EQ(batcher.size(), 0u);
        EXPECT_EQ(false_owners, std::vector<std::size_t>{201});
        EXPECT_TRUE(cache.contains(partial[0]));
        EXPECT_FALSE(cache.contains(partial[1]));
        EXPECT_TRUE(cache.contains(partial[2]));

        // An all-false group reports every owner, in add order, and
        // inserts nothing.
        false_owners.clear();
        std::vector<crypto::VerifyJob> all_false;
        for (std::size_t k = 0; k < crypto::kVerifyLanes; ++k) {
            all_false.push_back(job(false));
            batcher.add(all_false.back(), 7 - k);
        }
        EXPECT_EQ(false_owners, (std::vector<std::size_t>{7, 6, 5, 4, 3, 2, 1, 0}));
        for (const crypto::VerifyJob& j : all_false) EXPECT_FALSE(cache.contains(j));

        // Without a SigCache, verdicts still reach on_false.
        false_owners.clear();
        LaneBatcher uncached(nullptr, on_false);
        uncached.add(job(false), 1);
        uncached.add(job(true), 2);
        uncached.flush();
        EXPECT_EQ(false_owners, std::vector<std::size_t>{1});
    }
}

TEST_F(EbvValidatorTest, SignatureCoversOutputs) {
    h_.mine_empty(3);
    EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    spend.outputs[0].value -= 1;  // mutate after signing
    auto r = h_.submit(h_.package({spend}));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, EbvError::kScriptFailure);
}

TEST_F(EbvValidatorTest, FailureLeavesStatusUntouched) {
    h_.mine_empty(3);
    const auto mem_before = h_.node_->status_memory_bytes();
    const auto fees_backup = h_.fees_;
    EbvTransaction bad = h_.make_spend(0, 0, 0, 25 * kCoin);
    bad.inputs[0].unlock_script[4] ^= 0x20;
    ASSERT_FALSE(h_.submit(h_.package({bad})));
    h_.fees_ = fees_backup;  // the rejected block's fee never materialized
    EXPECT_EQ(h_.node_->status_memory_bytes(), mem_before);
    // The output is still spendable afterwards.
    auto r = h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)}));
    EXPECT_TRUE(r.has_value()) << r.error().describe();
}

TEST_F(EbvValidatorTest, TimingsCoverAllPhases) {
    h_.mine_empty(3);
    auto r = h_.submit(h_.package({h_.make_spend(0, 0, 0, 25 * kCoin)}));
    ASSERT_TRUE(r.has_value());
    EXPECT_GT(r->ev.wall_ns, 0);
    EXPECT_GT(r->uv.wall_ns, 0);
    EXPECT_GT(r->sv.wall_ns, 0);
    EXPECT_GT(r->total().wall_ns, 0);
}

// The transaction-inflation defence (§IV-C2): proof size must NOT grow with
// the ancestry depth of the spent output. We build a chain of single-input
// single-output spends 12 generations deep and check the input body size
// stays flat (it varies only with log(block size) via the Merkle branch).
TEST_F(EbvValidatorTest, NoTransactionInflationAcrossGenerations) {
    h_.mine_empty(3);

    std::vector<std::size_t> input_sizes;
    std::uint32_t spend_height = 0;
    std::uint32_t spend_tx_index = 0;
    for (int generation = 0; generation < 12; ++generation) {
        EbvTransaction spend =
            h_.make_spend(spend_height, spend_tx_index, 0, 20 * kCoin);
        input_sizes.push_back(spend.inputs[0].serialized_size());

        auto r = h_.submit(h_.package({spend}));
        ASSERT_TRUE(r.has_value()) << r.error().describe();
        spend_height = h_.node_->next_height() - 1;
        spend_tx_index = 1;  // the spend tx sits after the coinbase
    }

    // Proof size flat: every generation within a small constant of the
    // first (leaf payload + 1-2 branch levels), never cumulative.
    const std::size_t base = input_sizes.front();
    for (std::size_t s : input_sizes) {
        EXPECT_LE(s, base + 96) << "inflating proofs detected";
        EXPECT_GE(s + 96, base);
    }
}

TEST(EbvSighash, MatchesLegacySighashByteForByte) {
    // The EBV digest must equal chain::signature_hash over the equivalent
    // Bitcoin transaction, so converted signatures verify.
    util::Rng rng(5);
    EbvTransaction etx;
    etx.version = 1;
    EbvInput in;
    rng.fill({in.prevout.txid.bytes().data(), 32});
    in.prevout.index = 3;
    in.sequence = 0xfffffffe;
    etx.inputs.push_back(in);
    etx.outputs.push_back(chain::TxOut{77, script::Script{0x51, 0x52}});
    etx.locktime = 9;

    chain::Transaction btx;
    btx.version = 1;
    btx.vin.push_back(chain::TxIn{etx.inputs[0].prevout, {}, 0xfffffffe});
    btx.vout.push_back(etx.outputs[0]);
    btx.locktime = 9;

    const script::Script code{0xaa, 0xbb};
    EXPECT_EQ(ebv_signature_hash(etx, 0, code, 0x01),
              chain::signature_hash(btx, 0, code, chain::kSigHashAll));
}

}  // namespace
}  // namespace ebv::core
