// End-to-end tests of the EBV mechanism on a hand-built chain: transaction
// structures, proof construction, the EV/UV/SV pipeline, the fake-position
// defence, and the transaction-inflation bound.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/miner.hpp"
#include "chain/sighash.hpp"
#include "core/chain_archive.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "core/node.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "obs/metrics.hpp"
#include "script/opcodes.hpp"
#include "script/standard.hpp"
#include "standard_shapes.hpp"
#include "util/rng.hpp"

namespace ebv::core {
namespace {

using chain::Amount;
using chain::kCoin;
using chain::kMaxSigCandidates;
using chain::LaneBatcher;
using chain::SigCache;
using chain::SigCandidate;
using chain::SigMemo;
using chain::SigVerdict;
using chain::standard_candidates;

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

// leaf_hash() builds the leaf without a TidyTransaction; it must be the
// projection's leaf for every transaction shape.
TEST(EbvTransaction, LeafHashMatchesTidyProjection) {
    util::Rng rng(41);
    const auto input = [&](std::size_t els_outputs) {
        EbvInput in;
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.height = 7;
        in.out_index = static_cast<std::uint16_t>(els_outputs - 1);
        in.unlock_script = script::Script{0x01, 0x02};
        in.els.outputs.assign(els_outputs, chain::TxOut{5, script::Script{0x51}});
        in.els.stake_position = 3;
        in.mbr.siblings.resize(2);
        in.mbr.siblings[1].bytes()[0] = 9;
        return in;
    };
    EbvTransaction coinbase;
    coinbase.coinbase_data = {0x03, 0x01};
    coinbase.outputs.push_back(chain::TxOut{50, script::Script{0x51}});
    EbvTransaction one = coinbase;
    one.coinbase_data.clear();
    one.stake_position = 4;
    one.inputs.push_back(input(1));
    EbvTransaction multi = one;
    multi.inputs.push_back(input(2));
    multi.inputs.push_back(input(3));
    multi.outputs.push_back(chain::TxOut{7, script::Script{0x52, 0x53}});
    EbvTransaction wide = one;
    wide.inputs[0] = input(128);

    for (const EbvTransaction* tx : {&coinbase, &one, &multi, &wide})
        EXPECT_EQ(tx->leaf_hash(), tx->tidy().leaf_hash());
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

TEST_F(EbvValidatorTest, MemoAnswersTheScriptAndMissesRunScalar) {
    h_.mine_empty(3);
    const EbvTransaction spend = h_.make_spend(0, 0, 0, 25 * kCoin);
    const TxSighashCache spend_cache(spend);
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    ASSERT_EQ(standard_candidates(input_scripts(spend.inputs[0]), pairs), 1u);

    // The one pair waits in the batcher until it flushes; the script then
    // reads its verdict.
    obs::Counter& unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    LaneBatcher batcher;
    {
        SigMemo memo;
        memo.prefetch(input_scripts(spend.inputs[0]), 0, spend_cache, nullptr, batcher);
        EXPECT_EQ(batcher.size(), 1u);
        EXPECT_FALSE(memo.advance(batcher));
        batcher.flush();
        ASSERT_TRUE(memo.advance(batcher));
        EXPECT_EQ(sv_check_input(spend, 0, spend_cache, nullptr, &memo), script::ScriptError::kOk);
        const std::uint64_t before = unused.value();
        memo.retire();
        EXPECT_EQ(unused.value(), before);
    }

    // A signature with a flipped bit in r still parses, so the lanes check
    // it and the script reads false, exactly as inline; a wrong pubkey
    // fails before OP_CHECKSIG, so its verdict goes unread.
    EbvTransaction bad_sig = spend;
    bad_sig.inputs[0].unlock_script[10] ^= 0x01;
    EbvTransaction wrong_key = spend;
    const auto other = crypto::PrivateKey::generate(h_.rng_).public_key();
    const util::Bytes sig(spend.inputs[0].unlock_script.begin() + 1,
                          spend.inputs[0].unlock_script.begin() + 1 +
                              spend.inputs[0].unlock_script[0]);
    wrong_key.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, other);
    for (const EbvTransaction* tx : {&bad_sig, &wrong_key}) {
        const TxSighashCache cache(*tx);
        SigMemo memo;
        memo.prefetch(input_scripts(tx->inputs[0]), 0, cache, nullptr, batcher);
        batcher.flush();
        ASSERT_TRUE(memo.advance(batcher));
        EXPECT_EQ(sv_check_input(*tx, 0, cache, nullptr, &memo), sv_check_input(*tx, 0, cache));
        const std::uint64_t before = unused.value();
        memo.retire();
        EXPECT_EQ(unused.value() - before, tx == &wrong_key ? 1u : 0u);
    }

    // A lane-true triple enters the SigCache when the script reads it, a
    // false one never; a SigCache hit needs no lanes at all.
    SigCache cache;
    {
        SigMemo memo;
        memo.prefetch(input_scripts(spend.inputs[0]), 0, spend_cache, &cache, batcher);
        batcher.flush();
        ASSERT_TRUE(memo.advance(batcher));
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(sv_check_input(spend, 0, spend_cache, &cache, &memo), script::ScriptError::kOk);
        EXPECT_EQ(cache.size(), 1u);
    }
    {
        const TxSighashCache bad_cache(bad_sig);
        SigMemo memo;
        memo.prefetch(input_scripts(bad_sig.inputs[0]), 0, bad_cache, &cache, batcher);
        batcher.flush();
        ASSERT_TRUE(memo.advance(batcher));
        EXPECT_NE(sv_check_input(bad_sig, 0, bad_cache, &cache, &memo), script::ScriptError::kOk);
        EXPECT_EQ(cache.size(), 1u);
    }
    {
        SigMemo memo;
        memo.prefetch(input_scripts(spend.inputs[0]), 0, spend_cache, &cache, batcher);
        EXPECT_EQ(batcher.size(), 0u);
        EXPECT_TRUE(memo.advance(batcher));
        EXPECT_EQ(sv_check_input(spend, 0, spend_cache, &cache, &memo), script::ScriptError::kOk);
    }

    // The memo answers only the script code it was built for.
    SigMemo memo;
    memo.prefetch(input_scripts(spend.inputs[0]), 0, spend_cache, nullptr, batcher);
    batcher.flush();
    ASSERT_TRUE(memo.advance(batcher));
    const util::Bytes& lock = spend.inputs[0].els.outputs[0].lock_script;
    const util::Bytes other_code(lock.begin(), lock.end() - 1);
    EXPECT_FALSE(memo.take(pairs[0].sig, pairs[0].pubkey, other_code).has_value());
    EXPECT_EQ(memo.take(pairs[0].sig, pairs[0].pubkey, lock), std::optional<bool>(true));

    // Three pushes is not the standard template.
    EbvTransaction extra_push = spend;
    extra_push.inputs[0].unlock_script.insert(extra_push.inputs[0].unlock_script.begin(),
                                              {0x01, 0x01});
    EXPECT_EQ(standard_candidates(input_scripts(extra_push.inputs[0]), pairs), 0u);
}

TEST(ClaimOrder, AscendingRanksStableAndBlockMajor) {
    using chain::claim_order;
    using Order = std::vector<std::uint32_t>;
    // Ranks that already ascend, equal ones included, keep the identity.
    EXPECT_EQ(claim_order(std::vector<std::uint32_t>(5, 17)), (Order{0, 1, 2, 3, 4}));
    EXPECT_EQ(claim_order(std::vector<std::uint32_t>{3, 3, 40, 49, 49}), (Order{0, 1, 2, 3, 4}));
    EXPECT_TRUE(claim_order({}).empty());
    // One block: lowest rank first, ties in item order.
    EXPECT_EQ(claim_order(std::vector<std::uint32_t>{17, 2, 17, 0, 14, 2, 17}),
              (Order{3, 1, 5, 4, 0, 2, 6}));
    // Items of block 0 (ranks 0–31) before those of block 1 (32–63).
    EXPECT_EQ(claim_order(std::vector<std::uint32_t>{17, 2, 17, 32, 46, 34, 49}),
              (Order{1, 0, 2, 3, 5, 4, 6}));
}

TEST(ClaimOrder, RanksUnmatchedThenMultisigByNThenSingleKey) {
    util::Rng rng(32);
    std::vector<crypto::PrivateKey> keys;
    for (int k = 0; k < 15; ++k) keys.push_back(crypto::PrivateKey::generate(rng));
    std::vector<util::Bytes> pub;
    for (const auto& k : keys) pub.push_back(k.public_key().serialize());
    const util::Bytes sig(71, 0x30);
    const script::Script p2pkh = script::make_p2pkh(keys[0].public_key().id());
    const script::Script p2pk = script::make_p2pk(keys[0].public_key());
    const script::Script one_of_15 = shapes::multisig_lock(1, pub);
    const script::Script two_of_3 = shapes::multisig_lock(2, {pub[0], pub[1], pub[2]});
    const script::Script p2pkh_unlock = script::make_p2pkh_unlock(sig, keys[0].public_key());
    const script::Script p2pk_unlock = script::make_p2pk_unlock(sig);
    const script::Script one_sig = script::make_multisig_unlock({sig});
    const script::Script two_sigs = script::make_multisig_unlock({sig, sig});
    const script::Script op_true{script::OP_1};
    using chain::claim_rank;

    // Shapes standard_candidates cannot match come first: no lock, a lock
    // with no signature check, an unlock that does not fit its lock.
    const std::uint32_t unmatched = claim_rank({p2pkh_unlock, {}});
    EXPECT_EQ(claim_rank({op_true, op_true}), unmatched);
    EXPECT_EQ(claim_rank({two_sigs, one_of_15}), unmatched);
    EXPECT_EQ(claim_rank({p2pk_unlock, p2pkh}), unmatched);
    // Then bare m-of-n by n, then P2PKH and P2PK.
    EXPECT_LT(unmatched, claim_rank({one_sig, one_of_15}));
    EXPECT_LT(claim_rank({one_sig, one_of_15}), claim_rank({two_sigs, two_of_3}));
    EXPECT_LT(claim_rank({two_sigs, two_of_3}), claim_rank({p2pkh_unlock, p2pkh}));
    EXPECT_EQ(claim_rank({p2pkh_unlock, p2pkh}), claim_rank({p2pk_unlock, p2pk}));
    // Block-major: every input of block 1 after every input of block 0.
    EXPECT_LT(claim_rank({p2pkh_unlock, p2pkh}), claim_rank({p2pkh_unlock, {}}, 1));
    EXPECT_LT(claim_rank({p2pkh_unlock, {}}, 1), claim_rank({one_sig, one_of_15}, 1));
}

TEST(ClaimAll, ClaimsEveryItemOnceInOrderOnEveryPoolWidth) {
    // Nothing is held, so `run` is never called.
    const auto run = [](std::size_t, std::span<chain::SigMemo>) {
        ADD_FAILURE() << "nothing was held";
    };
    for (const std::size_t count : {0u, 1u, 3u, 1000u}) {
        // A permutation unlike the identity: odd items first, then even ones.
        std::vector<std::uint32_t> order;
        for (std::uint32_t first : {1u, 0u})
            for (auto k = first; k < count; k += 2) order.push_back(k);
        std::vector<std::size_t> position(count);
        for (std::size_t k = 0; k < count; ++k) position[order[k]] = k;

        for (const std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
            std::optional<util::ThreadPool> pool;
            if (threads > 0) pool.emplace(threads);
            util::ThreadPool* const p = pool ? &*pool : nullptr;
            const std::size_t slots = p != nullptr ? p->thread_count() : 1;
            const std::string where = "count=" + std::to_string(count) +
                                      " threads=" + std::to_string(threads);

            std::vector<std::atomic<int>> claimed(count);
            std::vector<std::vector<std::uint32_t>> seen(slots);  // per slot: no race
            const auto claim = [&](std::size_t slot, std::size_t item, chain::PrefetchQueue&) {
                claimed[item].fetch_add(1);
                seen[slot].push_back(static_cast<std::uint32_t>(item));
            };
            const auto busy = chain::claim_all(p, order, claim, run);
            EXPECT_EQ(busy.size(), slots) << where;
            for (std::size_t item = 0; item < count; ++item)
                EXPECT_EQ(claimed[item].load(), 1) << where << " item=" << item;
            // Every claimer takes its items in `order` sequence.
            for (const auto& items : seen)
                for (std::size_t k = 1; k < items.size(); ++k)
                    EXPECT_LT(position[items[k - 1]], position[items[k]]) << where;
            if (slots == 1 || count <= 1) {
                std::vector<std::uint32_t> all;
                for (const auto& items : seen) all.insert(all.end(), items.begin(), items.end());
                EXPECT_EQ(all, order) << where;
            }

            util::CancelToken cancel;
            cancel.cancel();
            std::atomic<int> after_cancel{0};
            const auto count_claims = [&](std::size_t, std::size_t, chain::PrefetchQueue&) {
                after_cancel.fetch_add(1);
            };
            const auto cancelled = chain::claim_all(p, order, count_claims, run, &cancel);
            EXPECT_EQ(cancelled.size(), slots) << where;
            EXPECT_EQ(after_cancel.load(), 0) << where;
        }
    }
}

TEST(LaneBatcher, WritesEveryVerdictOfFullAndPartialGroups) {
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
        LaneBatcher batcher;
        using V = SigVerdict;

        // A full group verifies on its eighth add: lanes 2 and 5 are false.
        std::array<V, crypto::kVerifyLanes> full;
        full.fill(V::kQueued);
        for (std::size_t k = 0; k < crypto::kVerifyLanes; ++k) {
            batcher.add(job(k != 2 && k != 5), &full[k]);
            EXPECT_EQ(batcher.size(), (k + 1) % crypto::kVerifyLanes);
            if (k + 1 < crypto::kVerifyLanes) {
                EXPECT_EQ(full[0], V::kQueued);
            }
        }
        for (std::size_t k = 0; k < full.size(); ++k)
            EXPECT_EQ(full[k], k != 2 && k != 5 ? V::kTrue : V::kFalse) << "lane " << k;

        // A partial group waits for flush().
        std::array<V, 3> partial = {V::kQueued, V::kQueued, V::kQueued};
        batcher.add(job(true), &partial[0]);
        batcher.add(job(false), &partial[1]);
        batcher.add(job(true), &partial[2]);
        EXPECT_EQ(batcher.size(), partial.size());
        EXPECT_EQ(partial[0], V::kQueued);
        batcher.flush();
        EXPECT_EQ(batcher.size(), 0u);
        EXPECT_EQ(partial, (std::array<V, 3>{V::kTrue, V::kFalse, V::kTrue}));

        // An all-false group writes every slot.
        std::array<V, crypto::kVerifyLanes> all_false;
        all_false.fill(V::kQueued);
        for (V& slot : all_false) batcher.add(job(false), &slot);
        for (const V slot : all_false) EXPECT_EQ(slot, V::kFalse);
    }
}

/// Records every (signature, pubkey) pair the script hands its checker and
/// answers from a seeded table, so repeated runs explore the verdicts.
class RecordingChecker final : public script::SignatureChecker {
public:
    explicit RecordingChecker(std::uint64_t seed) : rng_(seed) {}

    bool check_signature(util::ByteSpan sig, util::ByteSpan pubkey,
                         util::ByteSpan) const override {
        tried.emplace(sig[0], pubkey[0]);
        return rng_.chance(0.5);
    }

    mutable std::set<std::pair<std::uint8_t, std::uint8_t>> tried;

private:
    mutable util::Rng rng_;
};

TEST(StandardCandidates, ReturnsExactlyThePairsCheckMultisigCanTry) {
    // Key j is 33 bytes of j, signature i is 72 bytes of 0x80 + i.
    std::vector<util::Bytes> keys;
    for (std::uint8_t j = 0; j < 16; ++j) keys.emplace_back(33, j);
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    for (int n = 1; n <= 16; ++n) {
        for (int m = 1; m <= n; ++m) {
            SCOPED_TRACE(std::to_string(m) + "-of-" + std::to_string(n));
            EbvInput in;
            in.els.outputs.push_back(
                {1, shapes::multisig_lock(m, {keys.begin(), keys.begin() + n})});
            std::vector<util::Bytes> sigs;
            for (int i = 0; i < m; ++i) sigs.emplace_back(72, static_cast<std::uint8_t>(0x80 + i));
            in.unlock_script = script::make_multisig_unlock(sigs);

            std::set<std::pair<std::uint8_t, std::uint8_t>> expected;
            for (int i = 0; i < m; ++i)
                for (int j = i; j <= n - m + i; ++j)
                    expected.emplace(static_cast<std::uint8_t>(0x80 + i), static_cast<std::uint8_t>(j));
            const std::size_t count = standard_candidates(input_scripts(in), pairs);
            if (expected.size() > static_cast<std::size_t>(2 * n)) {
                EXPECT_EQ(count, 0u) << "left to the scalar path";
                continue;
            }
            std::set<std::pair<std::uint8_t, std::uint8_t>> got;
            for (std::size_t k = 0; k < count; ++k) {
                got.emplace(pairs[k].sig[0], pairs[k].pubkey[0]);
                EXPECT_EQ(pairs[k].sig.size(), 72u);
                EXPECT_EQ(pairs[k].pubkey.size(), 33u);
            }
            EXPECT_EQ(count, expected.size());
            EXPECT_EQ(got, expected);

            // The interpreter, under many verdict tables, tries exactly
            // these pairs.
            if (n > 6) continue;
            std::set<std::pair<std::uint8_t, std::uint8_t>> tried;
            for (std::uint64_t seed = 0; seed < 400; ++seed) {
                RecordingChecker checker(seed);
                (void)script::verify_script(in.unlock_script, in.els.outputs[0].lock_script,
                                            checker);
                tried.insert(checker.tried.begin(), checker.tried.end());
            }
            EXPECT_EQ(tried, expected);
        }
    }
}

TEST(StandardCandidates, RejectsEveryOtherShape) {
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    const util::Bytes key(33, 0x02);
    const util::Bytes sig(72, 0x30);
    const auto count = [&](script::Script lock, script::Script unlock) {
        EbvInput in;
        in.els.outputs.push_back({1, std::move(lock)});
        in.unlock_script = std::move(unlock);
        return standard_candidates(input_scripts(in), pairs);
    };
    const script::Script one_of_two = shapes::multisig_lock(1, {key, key});
    const script::Script multisig_unlock = script::make_multisig_unlock({sig});
    ASSERT_EQ(count(one_of_two, multisig_unlock), 2u);

    // OP_PUSHDATA1 is not a direct push, in the lock or in the unlock.
    script::Script pushdata_key = one_of_two;
    pushdata_key.insert(pushdata_key.begin() + 1, script::OP_PUSHDATA1);
    EXPECT_EQ(count(pushdata_key, multisig_unlock), 0u);
    script::Script pushdata_sig = multisig_unlock;
    pushdata_sig.insert(pushdata_sig.begin() + 1, script::OP_PUSHDATA1);
    EXPECT_EQ(count(one_of_two, pushdata_sig), 0u);
    // m > n.
    script::Script three_of_two = one_of_two;
    three_of_two[0] = script::OP_3;
    EXPECT_EQ(count(three_of_two, script::make_multisig_unlock({sig, sig, sig})), 0u);
    // n > 20: 21 keys with n pushed as a number.
    script::Script wide{script::OP_1};
    for (int j = 0; j < 21; ++j) {
        wide.push_back(33);
        wide.insert(wide.end(), key.begin(), key.end());
    }
    wide.insert(wide.end(), {0x01, 21, script::OP_CHECKMULTISIG});
    EXPECT_EQ(count(wide, multisig_unlock), 0u);
    // 3-of-15 has 39 candidates, more than 2n.
    EXPECT_EQ(count(shapes::multisig_lock(3, std::vector<util::Bytes>(15, key)),
                    script::make_multisig_unlock({sig, sig, sig})),
              0u);
    // Key count disagreeing with n, a dummy other than OP_0, a missing or
    // an extra signature.
    script::Script short_keys = one_of_two;
    short_keys[short_keys.size() - 2] = script::OP_3;
    EXPECT_EQ(count(short_keys, multisig_unlock), 0u);
    script::Script dummy_one = multisig_unlock;
    dummy_one[0] = script::OP_1;
    EXPECT_EQ(count(one_of_two, dummy_one), 0u);
    EXPECT_EQ(count(shapes::multisig_lock(2, {key, key}), multisig_unlock), 0u);
    EXPECT_EQ(count(one_of_two, script::make_multisig_unlock({sig, sig})), 0u);

    // P2PK and P2PKH take exactly their pushes.
    script::Script p2pk{33};
    p2pk.insert(p2pk.end(), key.begin(), key.end());
    p2pk.push_back(script::OP_CHECKSIG);
    const script::Script p2pk_unlock = script::make_p2pk_unlock(sig);
    EXPECT_EQ(count(p2pk, p2pk_unlock), 1u);
    script::Script p2pk_tail = p2pk;
    p2pk_tail.insert(p2pk_tail.end() - 1, script::OP_NOP);
    EXPECT_EQ(count(p2pk_tail, p2pk_unlock), 0u);
    EXPECT_EQ(count(p2pk, multisig_unlock), 0u);
    const script::Script p2pkh = script::make_p2pkh(crypto::Hash160{});
    util::Bytes p2pkh_unlock = p2pk_unlock;
    p2pkh_unlock.push_back(33);
    p2pkh_unlock.insert(p2pkh_unlock.end(), key.begin(), key.end());
    EXPECT_EQ(count(p2pkh, p2pkh_unlock), 1u);
    EXPECT_EQ(count(p2pkh, p2pk_unlock), 0u);

    // An out_index beyond the ELs matches nothing.
    EbvInput in;
    in.els.outputs.push_back({1, p2pk});
    in.unlock_script = p2pk_unlock;
    in.out_index = 1;
    EXPECT_EQ(standard_candidates(input_scripts(in), pairs), 0u);
}

TEST(SigMemo, ScriptReadsExactVerdictsAndLeavesTheExpectedOnesUnused) {
    chain::ChainParams params;
    params.coinbase_maturity = 1;
    const std::vector<crypto::PrivateKey> keys = shapes::shape_keys(5);
    const std::vector<shapes::ShapeCase> cases = shapes::shape_cases(keys);
    std::vector<script::Script> locks;
    for (const auto& c : cases) locks.push_back(c.lock);
    const shapes::ShapeChain chain(params, locks);
    obs::Counter& unused = obs::Registry::global().counter("ebv.crypto.lane_unused");

    struct RestoreAuto {
        ~RestoreAuto() { crypto::lanes_force_impl("auto"); }
    } restore;
    for (const char* backend : {"none", "portable", "auto"}) {
        ASSERT_TRUE(crypto::lanes_force_impl(backend));
        for (std::size_t c = 0; c < cases.size(); ++c) {
            SCOPED_TRACE(std::string(backend) + ": " + cases[c].name);
            const EbvTransaction tx = chain.spend(static_cast<std::uint16_t>(c), cases[c].unlock);
            const TxSighashCache cache(tx);
            const script::ScriptError scalar = sv_check_input(tx, 0, cache);
            EXPECT_EQ(scalar == script::ScriptError::kOk, cases[c].valid) << script::to_string(scalar);

            LaneBatcher batcher;
            SigMemo memo;
            memo.prefetch(input_scripts(tx.inputs[0]), 0, cache, nullptr, batcher);
            for (int round = 0; round < 2 && !memo.advance(batcher); ++round) batcher.flush();
            ASSERT_TRUE(memo.advance(batcher));
            EXPECT_EQ(sv_check_input(tx, 0, cache, nullptr, &memo), scalar);
            const std::uint64_t before = unused.value();
            memo.retire();
            EXPECT_EQ(unused.value() - before, cases[c].unused);
        }
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
