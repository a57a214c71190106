#include <gtest/gtest.h>

#include <map>

#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/sighash.hpp"
#include "chain/transaction.hpp"
#include "chain/utxo_set.hpp"
#include "chain/validation.hpp"
#include "script/standard.hpp"
#include "storage/mem_kvstore.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ebv::chain {
namespace {

Transaction random_tx(util::Rng& rng, std::size_t inputs, std::size_t outputs) {
    Transaction tx;
    for (std::size_t i = 0; i < inputs; ++i) {
        OutPoint prevout;
        rng.fill({prevout.txid.bytes().data(), 32});
        prevout.index = static_cast<std::uint32_t>(rng.below(10));
        util::Bytes script(rng.between(1, 100));
        rng.fill(script);
        tx.vin.push_back(TxIn{prevout, std::move(script),
                              static_cast<std::uint32_t>(rng.next())});
    }
    for (std::size_t o = 0; o < outputs; ++o) {
        util::Bytes script(rng.between(1, 60));
        rng.fill(script);
        tx.vout.push_back(
            TxOut{static_cast<Amount>(rng.below(kMaxMoney / 4)), std::move(script)});
    }
    return tx;
}

class TxSerializationRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TxSerializationRoundTrip, RoundTrips) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam().first * 31 + GetParam().second));
    const Transaction tx = random_tx(rng, static_cast<std::size_t>(GetParam().first),
                                     static_cast<std::size_t>(GetParam().second));
    util::Writer w;
    tx.serialize(w);
    util::Reader r(w.data());
    auto decoded = Transaction::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, tx);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(decoded->txid(), tx.txid());
}

INSTANTIATE_TEST_SUITE_P(Shapes, TxSerializationRoundTrip,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 3},
                                           std::pair{5, 2}, std::pair{20, 20},
                                           std::pair{1, 50}));

TEST(Transaction, TxidChangesWithContent) {
    util::Rng rng(7);
    Transaction tx = random_tx(rng, 2, 2);
    const auto id1 = tx.txid();
    tx.vout[0].value ^= 1;
    tx.invalidate_cache();
    EXPECT_NE(tx.txid(), id1);
}

TEST(Transaction, CoinbaseDetection) {
    Transaction cb = make_coinbase(5, 50 * kCoin, script::Script{0x51});
    EXPECT_TRUE(cb.is_coinbase());
    util::Rng rng(8);
    EXPECT_FALSE(random_tx(rng, 1, 1).is_coinbase());
}

TEST(Transaction, DeserializeRejectsTruncation) {
    util::Rng rng(9);
    const Transaction tx = random_tx(rng, 2, 2);
    util::Writer w;
    tx.serialize(w);
    for (std::size_t cut : {1ul, 10ul, w.size() - 1}) {
        util::Reader r(util::ByteSpan(w.data()).first(cut));
        EXPECT_FALSE(Transaction::deserialize(r).has_value()) << "cut " << cut;
    }
}

TEST(Block, SerializationRoundTrip) {
    util::Rng rng(10);
    Block block;
    block.header.prev_hash = crypto::Hash256{};
    block.txs.push_back(make_coinbase(0, 50 * kCoin, script::Script{0x51}));
    block.txs.push_back(random_tx(rng, 2, 3));
    block.header.merkle_root = block.compute_merkle_root();

    util::Writer w;
    block.serialize(w);
    util::Reader r(w.data());
    auto decoded = Block::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->header, block.header);
    EXPECT_EQ(decoded->txs.size(), 2u);
    EXPECT_EQ(decoded->compute_merkle_root(), block.compute_merkle_root());
}

TEST(Block, CountsInputsAndOutputs) {
    util::Rng rng(11);
    Block block;
    block.txs.push_back(make_coinbase(0, 50 * kCoin, script::Script{0x51}));
    block.txs.push_back(random_tx(rng, 3, 2));
    block.txs.push_back(random_tx(rng, 1, 4));
    EXPECT_EQ(block.input_count(), 4u);   // coinbase input not counted
    EXPECT_EQ(block.output_count(), 7u);  // coinbase output counted
}

TEST(Params, SubsidyHalves) {
    ChainParams params;
    params.initial_subsidy = 50 * kCoin;
    params.halving_interval = 10;
    EXPECT_EQ(params.subsidy_at(0), 50 * kCoin);
    EXPECT_EQ(params.subsidy_at(9), 50 * kCoin);
    EXPECT_EQ(params.subsidy_at(10), 25 * kCoin);
    EXPECT_EQ(params.subsidy_at(20), 25 * kCoin / 2);
    EXPECT_EQ(params.subsidy_at(10 * 64), 0);
}

TEST(Coin, SerializationRoundTrip) {
    Coin coin{12345, 77, true, script::Script{1, 2, 3}};
    const util::Bytes encoded = coin.encode();
    util::Reader r(encoded);
    auto decoded = Coin::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, coin);
}

TEST(UtxoSet, FetchSpendAdd) {
    storage::MemKvStore store;
    storage::StatusDb db(store);
    UtxoSet utxo(db);

    OutPoint op;
    op.txid.bytes()[0] = 1;
    op.index = 2;

    EXPECT_FALSE(utxo.fetch(op).has_value());
    utxo.add(op, Coin{100, 5, false, script::Script{0x51}});
    const auto coin = utxo.fetch(op);
    ASSERT_TRUE(coin.has_value());
    EXPECT_EQ(coin->value, 100);
    EXPECT_TRUE(utxo.spend(op));
    EXPECT_FALSE(utxo.fetch(op).has_value());
    EXPECT_FALSE(utxo.spend(op));
}

TEST(Sighash, SignatureVerifiesThroughScriptVm) {
    util::Rng rng(12);
    const auto key = crypto::PrivateKey::generate(rng);
    const script::Script lock = script::make_p2pkh(key.public_key().id());

    Transaction tx;
    OutPoint prevout;
    prevout.txid.bytes()[3] = 9;
    tx.vin.push_back(TxIn{prevout, {}, 0xffffffff});
    tx.vout.push_back(TxOut{50, script::Script{0x51}});

    const util::Bytes sig = sign_input(tx, 0, lock, key);
    tx.vin[0].unlock_script = script::make_p2pkh_unlock(sig, key.public_key());

    const SighashCache cache(SighashTemplate::build(tx));
    SigChecker checker(cache, 0);
    EXPECT_EQ(script::verify_script(tx.vin[0].unlock_script, lock, checker),
              script::ScriptError::kOk);

    // Changing an output invalidates the signature.
    tx.vout[0].value = 51;
    const SighashCache changed(SighashTemplate::build(tx));
    SigChecker changed_checker(changed, 0);
    EXPECT_EQ(script::verify_script(tx.vin[0].unlock_script, lock, changed_checker),
              script::ScriptError::kEvalFalse);
}

// ---------------------------------------------------------------------------
// Validator tests on a hand-built mini chain.
// ---------------------------------------------------------------------------

class ValidatorTest : public ::testing::Test {
protected:
    ValidatorTest()
        : db_(store_), utxo_(db_), key_(crypto::PrivateKey::generate(rng_)) {
        params_.coinbase_maturity = 2;
        params_.initial_subsidy = 50 * kCoin;
    }

    script::Script lock() const { return script::make_p2pkh(key_.public_key().id()); }

    Block make_block(std::vector<Transaction> txs, Amount coinbase_value) {
        Block block = assemble_block(
            tip_, make_coinbase(height_, coinbase_value, lock()), std::move(txs),
            height_ * 600);
        return block;
    }

    util::Result<BlockTimings, ValidationFailure> connect(const Block& block) {
        BitcoinValidator validator(params_, utxo_);
        auto result = validator.connect_block(block, height_);
        if (result) {
            tip_ = block.header.hash();
            ++height_;
        }
        return result;
    }

    /// Build and connect `count` empty blocks (coinbase only).
    void mine_empty(int count) {
        for (int i = 0; i < count; ++i) {
            auto result = connect(make_block({}, params_.subsidy_at(height_)));
            ASSERT_TRUE(result.has_value()) << result.error().describe();
        }
    }

    /// A transaction spending the coinbase of block `h`.
    Transaction spend_coinbase_of(std::uint32_t h, Amount out_value) {
        Transaction tx;
        tx.vin.push_back(TxIn{OutPoint{coinbase_txids_.at(h), 0}, {}, 0xffffffff});
        tx.vout.push_back(TxOut{out_value, lock()});
        const util::Bytes sig = sign_input(tx, 0, lock(), key_);
        tx.vin[0].unlock_script = script::make_p2pkh_unlock(sig, key_.public_key());
        tx.invalidate_cache();
        return tx;
    }

    util::Rng rng_{42};
    ChainParams params_;
    storage::MemKvStore store_;
    storage::StatusDb db_;
    UtxoSet utxo_;
    crypto::PrivateKey key_;
    crypto::Hash256 tip_;
    std::uint32_t height_ = 0;
    std::map<std::uint32_t, crypto::Hash256> coinbase_txids_;

    util::Result<BlockTimings, ValidationFailure> connect_tracking(Block block) {
        coinbase_txids_[height_] = block.txs[0].txid();
        return connect(block);
    }
};

TEST_F(ValidatorTest, AcceptsValidChainWithSpends) {
    for (int i = 0; i < 3; ++i) {
        auto r = connect_tracking(make_block({}, params_.subsidy_at(height_)));
        ASSERT_TRUE(r.has_value()) << r.error().describe();
    }
    // Height 3: spend block 0's coinbase (mature: 0 + 2 <= 3).
    auto r = connect_tracking(
        make_block({spend_coinbase_of(0, 50 * kCoin)}, params_.subsidy_at(height_)));
    ASSERT_TRUE(r.has_value()) << r.error().describe();
    EXPECT_EQ(r->inputs, 1u);
    EXPECT_EQ(utxo_.size(), 4u);  // 4 coinbases + 1 spend output - 1 spent
}

TEST_F(ValidatorTest, RejectsDoubleSpendAcrossBlocks) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    ASSERT_TRUE(connect_tracking(
        make_block({spend_coinbase_of(0, 50 * kCoin)}, params_.subsidy_at(height_))));

    // A byte-identical replay of the first spend is caught earlier, by the
    // BIP30-style duplicate-txid rule: its outputs still sit in the UTXO
    // set, so connecting it would silently overwrite them.
    auto replay = connect(make_block({spend_coinbase_of(0, 50 * kCoin)},
                                     params_.subsidy_at(height_)));
    ASSERT_FALSE(replay.has_value());
    EXPECT_EQ(replay.error().error, BlockError::kDuplicateTxid);

    // A distinct transaction (different txid) re-spending the same outpoint
    // is the actual double spend.
    auto r = connect(make_block({spend_coinbase_of(0, 49 * kCoin)},
                                params_.subsidy_at(height_)));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kMissingOrSpentOutput);
}

TEST_F(ValidatorTest, RejectsDoubleSpendWithinBlock) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    // Distinct transactions (different outputs) spending the same outpoint.
    auto r = connect(make_block(
        {spend_coinbase_of(0, 25 * kCoin), spend_coinbase_of(0, 20 * kCoin)},
        params_.subsidy_at(height_)));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kMissingOrSpentOutput);

    // Byte-identical duplicates are caught even earlier.
    auto dup = connect(make_block(
        {spend_coinbase_of(0, 25 * kCoin), spend_coinbase_of(0, 25 * kCoin)},
        params_.subsidy_at(height_)));
    ASSERT_FALSE(dup.has_value());
    EXPECT_EQ(dup.error().error, BlockError::kDuplicateTxid);
}

TEST_F(ValidatorTest, RejectsImmatureCoinbaseSpend) {
    ASSERT_TRUE(connect_tracking(make_block({}, 50 * kCoin)));
    ASSERT_TRUE(connect_tracking(make_block({}, 50 * kCoin)));
    // Height 2 tries to spend block 1's coinbase (needs height >= 3).
    auto r = connect(make_block({spend_coinbase_of(1, 50 * kCoin)}, 50 * kCoin));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kImmatureCoinbaseSpend);
}

TEST_F(ValidatorTest, RejectsBadSignature) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    Transaction tx = spend_coinbase_of(0, 50 * kCoin);
    // Corrupt the signature.
    tx.vin[0].unlock_script[3] ^= 0x40;
    tx.invalidate_cache();
    auto r = connect(make_block({tx}, params_.subsidy_at(height_)));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kScriptFailure);
}

TEST_F(ValidatorTest, ScriptFailureTupleIsTheSerialOneAtAnyThreadCount) {
    // Two bad inputs: a corrupted signature (a full ECDSA verify, then
    // false) in tx 3 and a wrong pubkey (an early EQUALVERIFY failure) in
    // tx 9. Whichever worker finishes first, the reported tuple must be the
    // one a serial loop finds: tx 3.
    for (int i = 0; i < 14; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    std::vector<Transaction> txs;
    for (std::uint32_t h = 0; h < 12; ++h) txs.push_back(spend_coinbase_of(h, 50 * kCoin));
    txs[2].vin[0].unlock_script[3] ^= 0x40;
    const auto other = crypto::PrivateKey::generate(rng_).public_key();
    txs[8].vin[0].unlock_script = script::make_p2pkh_unlock(
        sign_input(txs[8], 0, lock(), key_), other);
    for (auto& tx : txs) tx.invalidate_cache();
    const Block block = make_block(txs, params_.subsidy_at(height_));

    const auto serial = connect(block);
    ASSERT_FALSE(serial.has_value());
    EXPECT_EQ(serial.error().error, BlockError::kScriptFailure);
    EXPECT_EQ(serial.error().tx_index, 3u);
    EXPECT_EQ(serial.error().script_error, script::ScriptError::kEvalFalse);

    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(threads);
        ValidatorOptions options;
        options.script_pool = &pool;
        BitcoinValidator validator(params_, utxo_, options);
        for (int rep = 0; rep < 20; ++rep) {
            const auto r = validator.connect_block(block, height_);
            ASSERT_FALSE(r.has_value());
            EXPECT_EQ(r.error().error, serial.error().error);
            EXPECT_EQ(r.error().tx_index, serial.error().tx_index)
                << threads << " threads, rep " << rep;
            EXPECT_EQ(r.error().input_index, serial.error().input_index);
            EXPECT_EQ(r.error().script_error, serial.error().script_error);
        }
    }
}

TEST_F(ValidatorTest, RejectsMerkleMismatch) {
    Block block = make_block({}, 50 * kCoin);
    block.header.merkle_root.bytes()[0] ^= 1;
    auto r = connect(block);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kMerkleRootMismatch);
}

TEST_F(ValidatorTest, RejectsExcessCoinbaseValue) {
    auto r = connect(make_block({}, 51 * kCoin));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kCoinbaseValueTooHigh);
}

TEST_F(ValidatorTest, RejectsNegativeFee) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    auto r = connect(make_block({spend_coinbase_of(0, 60 * kCoin)},  // > input value
                                params_.subsidy_at(height_)));
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kNegativeFee);
}

TEST_F(ValidatorTest, RejectsNonCoinbaseFirst) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    Block block;
    block.header.prev_hash = tip_;
    block.txs.push_back(spend_coinbase_of(0, kCoin));
    block.header.merkle_root = block.compute_merkle_root();
    auto r = connect(block);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kFirstTxNotCoinbase);
}

TEST_F(ValidatorTest, FailureLeavesUtxoSetUntouched) {
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(connect_tracking(make_block({}, params_.subsidy_at(height_))));
    }
    const auto size_before = utxo_.size();
    Transaction tx = spend_coinbase_of(0, 50 * kCoin);
    tx.vin[0].unlock_script[3] ^= 0x40;  // bad signature
    tx.invalidate_cache();
    ASSERT_FALSE(connect(make_block({tx}, params_.subsidy_at(height_))));
    EXPECT_EQ(utxo_.size(), size_before);
    // The coinbase of block 0 must still be spendable.
    auto r = connect_tracking(
        make_block({spend_coinbase_of(0, 50 * kCoin)}, params_.subsidy_at(height_)));
    EXPECT_TRUE(r.has_value()) << r.error().describe();
}

TEST(BitcoinNode, EndToEndInMemory) {
    BitcoinNodeOptions options;
    options.params.coinbase_maturity = 1;
    BitcoinNode node(options);

    util::Rng rng(5);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto lock = script::make_p2pkh(key.public_key().id());

    Block b0 = assemble_block(crypto::Hash256{}, make_coinbase(0, 50 * kCoin, lock), {}, 0);
    auto r0 = node.submit_block(b0);
    ASSERT_TRUE(r0.has_value()) << r0.error().describe();
    EXPECT_EQ(node.next_height(), 1u);
    EXPECT_EQ(node.utxo().size(), 1u);
    EXPECT_GT(node.status_payload_bytes(), 0u);
}

TEST(BitcoinNode, RejectsBlockNotExtendingTip) {
    BitcoinNodeOptions options;
    options.params.coinbase_maturity = 1;
    BitcoinNode node(options);

    util::Rng rng(6);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto lock = script::make_p2pkh(key.public_key().id());
    const Block b0 =
        assemble_block(crypto::Hash256{}, make_coinbase(0, 50 * kCoin, lock), {}, 0);

    // Genesis must link to the zero hash.
    const Block orphan =
        assemble_block(b0.header.hash(), make_coinbase(0, 50 * kCoin, lock), {}, 0);
    auto r = node.submit_block(orphan);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kBadPrevHash);
    EXPECT_EQ(node.headers().size(), 0u);
    EXPECT_EQ(node.utxo().size(), 0u);

    ASSERT_TRUE(node.submit_block(b0).has_value());
    // A valid coinbase-only block on the wrong parent: every other check
    // passes, so only the link check stands between it and the tip.
    const Block sibling =
        assemble_block(crypto::Hash256{}, make_coinbase(1, 50 * kCoin, lock), {}, 1);
    r = node.submit_block(sibling);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().error, BlockError::kBadPrevHash);
    EXPECT_EQ(node.next_height(), 1u);
    EXPECT_EQ(node.headers().tip_hash(), b0.header.hash());
    EXPECT_EQ(node.utxo().size(), 1u);
}

}  // namespace
}  // namespace ebv::chain
