// Transaction-level validation and mempool behaviour (paper §IV-D).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "core/chain_archive.hpp"
#include "core/node.hpp"
#include "core/tx_pool.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "obs/metrics.hpp"
#include "script/standard.hpp"
#include "standard_shapes.hpp"
#include "util/rng.hpp"

namespace ebv::core {
namespace {

using chain::Amount;
using chain::kCoin;
using chain::SigCache;

/// Shared fixture: a small EBV chain whose coinbases pay one key, plus a
/// pool attached to the node's state.
class TxPoolTest : public ::testing::Test {
protected:
    TxPoolTest() : key_(crypto::PrivateKey::generate(rng_)) {
        options_.params.coinbase_maturity = 2;
        node_ = std::make_unique<EbvNode>(options_);
        pool_ = std::make_unique<TxPool>(options_.params, node_->headers(),
                                         node_->status());
        mine_blocks(4);
    }

    script::Script lock() const { return script::make_p2pkh(key_.public_key().id()); }

    void mine_blocks(int count, std::vector<EbvTransaction> txs = {}) {
        for (int i = 0; i < count; ++i) {
            EbvBlock block;
            EbvTransaction coinbase;
            const std::uint32_t height = node_->next_height();
            coinbase.coinbase_data = {static_cast<std::uint8_t>(height), 1};
            Amount fees = 0;
            for (const auto& tx : txs) {
                Amount in = 0;
                for (const auto& input : tx.inputs)
                    in += input.els.outputs[input.out_index].value;
                fees += in - tx.total_output_value();
            }
            coinbase.outputs.push_back(
                chain::TxOut{options_.params.subsidy_at(height) + fees, lock()});
            block.txs.push_back(std::move(coinbase));
            for (auto& tx : txs) block.txs.push_back(std::move(tx));
            txs.clear();
            block.header.prev_hash = node_->headers().empty()
                                         ? crypto::Hash256{}
                                         : node_->headers().tip_hash();
            block.assign_stake_positions();
            auto result = node_->submit_block(block);
            ASSERT_TRUE(result.has_value()) << result.error().describe();
            archive_.add_block(block);
        }
    }

    EbvTransaction make_spend(std::uint32_t height, std::uint32_t tx_index,
                              Amount out_value) {
        EbvTransaction tx;
        tx.inputs.push_back(archive_.make_input(height, tx_index, 0));
        tx.outputs.push_back(chain::TxOut{out_value, lock()});
        const crypto::Hash256 digest = ebv_signature_hash(tx, 0, lock(), 0x01);
        util::Bytes sig = key_.sign(digest).to_der();
        sig.push_back(0x01);
        tx.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, key_.public_key());
        return tx;
    }

    /// Mines a block whose coinbase pays one equal output per lock, then
    /// enough empty blocks for it to mature. Returns its height.
    std::uint32_t mine_funding(const std::vector<script::Script>& locks) {
        const std::uint32_t height = node_->next_height();
        EbvBlock block;
        EbvTransaction coinbase;
        coinbase.coinbase_data = {static_cast<std::uint8_t>(height), 2};
        const Amount each =
            options_.params.subsidy_at(height) / static_cast<Amount>(locks.size());
        for (const auto& lock_script : locks)
            coinbase.outputs.push_back(chain::TxOut{each, lock_script});
        block.txs.push_back(std::move(coinbase));
        block.header.prev_hash = node_->headers().tip_hash();
        block.assign_stake_positions();
        auto result = node_->submit_block(block);
        EXPECT_TRUE(result.has_value()) << result.error().describe();
        archive_.add_block(block);
        mine_blocks(static_cast<int>(options_.params.coinbase_maturity));
        return height;
    }

    /// Spends outputs `outs` of the coinbase at `height` into one output,
    /// `fee` below their sum, signing each input for its lock (P2PKH or
    /// P2PK). Input i signs a digest one bit off when `tamper` holds i: the
    /// signature still parses, so it reaches the signature check. Each
    /// input's (pubkey, signature, digest) triple is appended to `triples`.
    EbvTransaction spend_coinbase(std::uint32_t height, const std::vector<std::uint16_t>& outs,
                                  Amount fee, std::vector<crypto::VerifyJob>& triples,
                                  std::optional<std::size_t> tamper = std::nullopt) {
        EbvTransaction tx;
        Amount in = 0;
        for (const std::uint16_t out : outs) {
            tx.inputs.push_back(archive_.make_input(height, 0, out));
            in += tx.inputs.back().els.outputs[out].value;
        }
        tx.outputs.push_back(chain::TxOut{in - fee, lock()});
        for (std::size_t i = 0; i < outs.size(); ++i) {
            const script::Script& code = tx.inputs[i].els.outputs[outs[i]].lock_script;
            const crypto::Hash256 digest = ebv_signature_hash(tx, i, code, 0x01);
            crypto::Hash256 signed_digest = digest;
            if (tamper == i) signed_digest.bytes()[0] ^= 0x01;
            const crypto::Signature sig = key_.sign(signed_digest);
            triples.push_back(crypto::VerifyJob{key_.public_key(), sig, digest});
            util::Bytes der = sig.to_der();
            der.push_back(0x01);
            tx.inputs[i].unlock_script =
                script::classify(code) == script::ScriptType::kP2Pk
                    ? script::make_p2pk_unlock(der)
                    : script::make_p2pkh_unlock(der, key_.public_key());
        }
        return tx;
    }

    util::Rng rng_{21};
    crypto::PrivateKey key_;
    EbvNodeOptions options_;
    std::unique_ptr<EbvNode> node_;
    std::unique_ptr<TxPool> pool_;
    ChainArchive archive_;
};

TEST_F(TxPoolTest, AcceptsValidTransaction) {
    const auto tx = make_spend(0, 0, 40 * kCoin);
    EXPECT_EQ(pool_->submit(tx), TxAdmission::kAccepted);
    EXPECT_EQ(pool_->size(), 1u);
    EXPECT_TRUE(pool_->contains(tx.leaf_hash()));
}

TEST_F(TxPoolTest, RejectsDuplicate) {
    const auto tx = make_spend(0, 0, 40 * kCoin);
    ASSERT_EQ(pool_->submit(tx), TxAdmission::kAccepted);
    EXPECT_EQ(pool_->submit(tx), TxAdmission::kDuplicate);
}

TEST_F(TxPoolTest, RejectsConflictingSpend) {
    ASSERT_EQ(pool_->submit(make_spend(0, 0, 40 * kCoin)), TxAdmission::kAccepted);
    // A different tx spending the same output at a LOWER feerate (higher
    // output value = smaller fee) cannot displace the pooled spender.
    EXPECT_EQ(pool_->submit(make_spend(0, 0, 41 * kCoin)), TxAdmission::kConflict);
}

TEST_F(TxPoolTest, ReplacesConflictAtStrictlyHigherFeerate) {
    const auto original = make_spend(0, 0, 40 * kCoin);     // fee 10
    const auto replacement = make_spend(0, 0, 39 * kCoin);  // fee 11
    ASSERT_EQ(pool_->submit(original), TxAdmission::kAccepted);
    EXPECT_EQ(pool_->submit(replacement), TxAdmission::kAccepted);
    EXPECT_EQ(pool_->size(), 1u);
    EXPECT_FALSE(pool_->contains(original.leaf_hash()));
    EXPECT_TRUE(pool_->contains(replacement.leaf_hash()));

    // The replacement owns the spend slot: the template packs it, and
    // confirming the template frees the slot, so the original now fails
    // against the chain rather than the pool.
    const EbvBlock block = pool_->build_template(lock(), 1);
    ASSERT_EQ(block.txs.size(), 2u);
    EXPECT_EQ(block.txs[1].outputs, replacement.outputs);
    ASSERT_TRUE(node_->submit_block(block).has_value());
    EXPECT_EQ(pool_->evict_confirmed_spends(block), 1u);
    EXPECT_EQ(pool_->submit(original), TxAdmission::kUnspentFailed);
}

TEST_F(TxPoolTest, InvalidConflictNeverReplaces) {
    const auto original = make_spend(0, 0, 40 * kCoin);
    ASSERT_EQ(pool_->submit(original), TxAdmission::kAccepted);
    // Higher feerate but an unsignable script: the conflict verdict comes
    // first, exactly as a serial one-at-a-time pipeline reports it.
    auto bad = make_spend(0, 0, 39 * kCoin);
    bad.inputs[0].unlock_script[4] ^= 0x01;
    EXPECT_EQ(pool_->submit(bad), TxAdmission::kConflict);
    EXPECT_TRUE(pool_->contains(original.leaf_hash()));
}

TEST_F(TxPoolTest, RejectsCoinbase) {
    EbvTransaction coinbase;
    coinbase.coinbase_data = {1};
    coinbase.outputs.push_back(chain::TxOut{1, lock()});
    EXPECT_EQ(pool_->submit(coinbase), TxAdmission::kNotStandalone);
}

TEST_F(TxPoolTest, RejectsImmatureCoinbaseSpend) {
    // Block 3's coinbase needs height >= 5; next height is 4.
    EXPECT_EQ(pool_->submit(make_spend(3, 0, 40 * kCoin)),
              TxAdmission::kImmatureCoinbase);
}

TEST_F(TxPoolTest, RejectsBadProofAndBadScript) {
    auto bad_proof = make_spend(0, 0, 40 * kCoin);
    bad_proof.inputs[0].els.stake_position += 1;
    EXPECT_EQ(pool_->submit(bad_proof), TxAdmission::kExistenceFailed);

    auto bad_sig = make_spend(0, 0, 40 * kCoin);
    bad_sig.inputs[0].unlock_script[4] ^= 0x01;
    EXPECT_EQ(pool_->submit(bad_sig), TxAdmission::kScriptFailed);

    auto inflated = make_spend(0, 0, 60 * kCoin);  // outputs > inputs
    EXPECT_EQ(pool_->submit(inflated), TxAdmission::kBadValue);
}

TEST_F(TxPoolTest, BuildTemplatePrefersHigherFeeRate) {
    const auto cheap = make_spend(0, 0, 50 * kCoin - 1'000);   // fee 1000
    const auto rich = make_spend(1, 0, 40 * kCoin);            // fee 10 coin
    ASSERT_EQ(pool_->submit(cheap), TxAdmission::kAccepted);
    ASSERT_EQ(pool_->submit(rich), TxAdmission::kAccepted);

    const EbvBlock block = pool_->build_template(lock(), 1);
    ASSERT_EQ(block.txs.size(), 2u);
    EXPECT_EQ(block.txs[1].inputs[0].height, rich.inputs[0].height);
    ASSERT_TRUE(node_->submit_block(block).has_value());

    // Only the packed spend leaves the pool.
    EXPECT_EQ(pool_->evict_confirmed_spends(block), 1u);
    EXPECT_EQ(pool_->size(), 1u);
    EXPECT_TRUE(pool_->contains(cheap.leaf_hash()));
}

TEST_F(TxPoolTest, EvictsLowestFeerateUnderByteBudget) {
    // Measure one entry's accounted cost, then budget for two entries.
    std::size_t entry_bytes = 0;
    {
        TxPool probe(options_.params, node_->headers(), node_->status());
        ASSERT_EQ(probe.submit(make_spend(0, 0, 40 * kCoin)), TxAdmission::kAccepted);
        entry_bytes = probe.bytes();
        ASSERT_GT(entry_bytes, 0u);
    }

    TxPoolOptions options;
    options.max_bytes = 2 * entry_bytes + entry_bytes / 2;
    TxPool pool(options_.params, node_->headers(), node_->status(), options);

    const auto cheap = make_spend(0, 0, 50 * kCoin - 1'000);  // fee 1000
    const auto mid = make_spend(1, 0, 45 * kCoin);            // fee 5 coin
    const auto rich = make_spend(2, 0, 40 * kCoin);           // fee 10 coin
    ASSERT_EQ(pool.submit(cheap), TxAdmission::kAccepted);
    ASSERT_EQ(pool.submit(mid), TxAdmission::kAccepted);
    // The third entry busts the budget; the cheapest pooled tx is evicted.
    ASSERT_EQ(pool.submit(rich), TxAdmission::kAccepted);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_LE(pool.bytes(), options.max_bytes);
    EXPECT_FALSE(pool.contains(cheap.leaf_hash()));
    EXPECT_TRUE(pool.contains(mid.leaf_hash()));
    EXPECT_TRUE(pool.contains(rich.leaf_hash()));

    // The evicted output is free again, but a below-floor newcomer is
    // admitted and immediately budget-evicted itself: kPoolFull.
    EXPECT_EQ(pool.submit(make_spend(0, 0, 50 * kCoin - 500)),  // fee 500
              TxAdmission::kPoolFull);
    EXPECT_EQ(pool.size(), 2u);
}

TEST_F(TxPoolTest, BatchVerdictsMatchSerialSubmission) {
    mine_blocks(4);  // more mature coinbases to spend (heights 0..7 exist)

    std::vector<EbvTransaction> batch;
    batch.push_back(make_spend(0, 0, 40 * kCoin));        // accepted
    batch.push_back(batch[0]);                            // duplicate (in batch)
    batch.push_back(make_spend(0, 0, 41 * kCoin));        // conflict, lower feerate
    batch.push_back(make_spend(1, 0, 45 * kCoin));        // accepted
    auto bad_sig = make_spend(2, 0, 40 * kCoin);
    bad_sig.inputs[0].unlock_script[4] ^= 0x01;
    batch.push_back(bad_sig);                             // script failure
    batch.push_back(make_spend(1, 0, 44 * kCoin));        // replaces #3 (higher fee)
    batch.push_back(make_spend(3, 0, 60 * kCoin));        // bad value

    // Ground truth: one-at-a-time serial submission.
    std::vector<TxAdmission> serial;
    for (const auto& tx : batch) serial.push_back(pool_->submit(tx));

    // Batch admission without a thread pool...
    TxPool batch_pool(options_.params, node_->headers(), node_->status());
    EXPECT_EQ(batch_pool.submit_batch(batch), serial);

    // ...and fanned over a thread pool, with a sigcache in the loop.
    util::ThreadPool workers(4);
    SigCache cache;
    TxPoolOptions options;
    options.pool = &workers;
    options.sigcache = &cache;
    TxPool parallel_pool(options_.params, node_->headers(), node_->status(), options);
    EXPECT_EQ(parallel_pool.submit_batch(batch), serial);
    EXPECT_EQ(parallel_pool.size(), pool_->size());

    // A warm sigcache changes nothing about verdicts on a re-run either.
    TxPool rerun_pool(options_.params, node_->headers(), node_->status(), options);
    EXPECT_EQ(rerun_pool.submit_batch(batch), serial);
}

/// Restores the lane backend a test forced.
struct LanesAuto {
    ~LanesAuto() { crypto::lanes_force_impl("auto"); }
};

TEST_F(TxPoolTest, LaneBatchesMatchSerialScalarSubmission) {
    // Forty coinbase outputs, 39 P2PKH and one P2PK (output 39), then one
    // per standard shape of the verdict prefetch, honest and hostile.
    std::vector<script::Script> locks(39, lock());
    locks.push_back(script::make_p2pk(key_.public_key()));
    const std::vector<crypto::PrivateKey> shape_keys = shapes::shape_keys(3);
    const std::vector<shapes::ShapeCase> shapes = shapes::shape_cases(shape_keys);
    for (const shapes::ShapeCase& shape : shapes) locks.push_back(shape.lock);
    const std::uint32_t funding = mine_funding(locks);

    // triples[k] holds burst[k]'s (pubkey, signature, digest) per input.
    std::vector<EbvTransaction> burst;
    std::vector<std::vector<crypto::VerifyJob>> triples;
    const auto add = [&](std::vector<std::uint16_t> outs, Amount fee,
                         std::optional<std::size_t> tamper = std::nullopt) {
        triples.emplace_back();
        burst.push_back(spend_coinbase(funding, outs, fee, triples.back(), tamper));
    };

    // In one claimer's order, each single-input P2PKH spend prefetches one
    // signature, so spend k lands in lane k % 8 of group k / 8. Four full
    // groups carry bad signatures in every lane position.
    const std::vector<std::size_t> bad_spends = {0, 3, 9, 13, 18, 23, 28, 30};
    {
        std::set<std::size_t> lanes_hit;
        for (const std::size_t k : bad_spends) lanes_hit.insert(k % crypto::kVerifyLanes);
        ASSERT_EQ(lanes_hit.size(), crypto::kVerifyLanes);
    }
    std::vector<crypto::VerifyJob> bad;
    for (std::uint16_t k = 0; k < 32; ++k) {
        const bool tampered =
            std::find(bad_spends.begin(), bad_spends.end(), k) != bad_spends.end();
        add({k}, 10'000 + 100 * k, tampered ? std::optional<std::size_t>(0) : std::nullopt);
        if (tampered) bad.push_back(triples.back()[0]);
    }
    // The shapes: 1-of-M, m-of-n and P2PK spends whose candidate pairs
    // fill groups of their own, and the hostile ones.
    std::size_t bad_shapes = 0;
    for (std::size_t c = 0; c < shapes.size(); ++c) {
        const auto out = static_cast<std::uint16_t>(40 + c);
        EbvTransaction tx;
        tx.inputs.push_back(archive_.make_input(funding, 0, out));
        tx.outputs.push_back(
            chain::TxOut{tx.inputs[0].els.outputs[out].value - 10'000, lock()});
        tx.inputs[0].unlock_script = shapes[c].unlock(tx, 0);
        burst.push_back(std::move(tx));
        triples.emplace_back();
        if (!shapes[c].valid) ++bad_shapes;
    }
    // The partial group: a two-input spend whose second signature is bad,
    // a P2PK spend, an in-batch duplicate, a lower-feerate conflict, a
    // higher-feerate replacement and one more plain spend.
    add({32, 33}, 10'000, 1);
    bad.push_back(triples.back()[1]);
    const crypto::VerifyJob good_of_two = triples.back()[0];
    add({39}, 10'000);
    burst.push_back(burst[1]);
    triples.push_back(triples[1]);
    add({2}, 5'000);
    add({4}, 90'000);
    add({34}, 10'000);

    // Ground truth: serial one-at-a-time submit() on the scalar path.
    LanesAuto restore;
    ASSERT_TRUE(crypto::lanes_force_impl("none"));
    SigCache reference_cache;
    TxPoolOptions reference_options;
    reference_options.sigcache = &reference_cache;
    TxPool reference(options_.params, node_->headers(), node_->status(), reference_options);
    std::vector<TxAdmission> serial;
    for (const auto& tx : burst) serial.push_back(reference.submit(tx));
    ASSERT_EQ(std::count(serial.begin(), serial.end(), TxAdmission::kScriptFailed),
              static_cast<std::ptrdiff_t>(bad_spends.size() + 1 + bad_shapes));
    for (std::size_t c = 0; c < shapes.size(); ++c)
        EXPECT_EQ(serial[32 + c] == TxAdmission::kAccepted, shapes[c].valid) << shapes[c].name;
    ASSERT_EQ(serial[burst.size() - 4], TxAdmission::kDuplicate);
    ASSERT_EQ(serial[burst.size() - 3], TxAdmission::kConflict);
    ASSERT_EQ(serial[burst.size() - 2], TxAdmission::kAccepted);  // replaces burst[4]

    obs::Counter& lane_groups = obs::Registry::global().counter("ebv.crypto.lane_groups");
    util::ThreadPool one(1);
    util::ThreadPool four(4);
    for (const char* backend : {"none", "portable", "auto"}) {
        for (util::ThreadPool* workers : {static_cast<util::ThreadPool*>(nullptr), &one, &four}) {
            SCOPED_TRACE(std::string(backend) + ", " +
                         (workers == nullptr ? "no pool"
                                             : std::to_string(workers->thread_count()) +
                                                   " threads"));
            ASSERT_TRUE(crypto::lanes_force_impl(backend));
            SigCache cache;
            TxPoolOptions options;
            options.pool = workers;
            options.sigcache = &cache;
            TxPool pool(options_.params, node_->headers(), node_->status(), options);
            const std::uint64_t groups_before = lane_groups.value();
            EXPECT_EQ(pool.submit_batch(burst), serial);
            if (std::string(backend) == "portable") {
                EXPECT_GT(lane_groups.value(), groups_before);
            }

            EXPECT_EQ(pool.size(), reference.size());
            EXPECT_EQ(pool.bytes(), reference.bytes());
            EXPECT_EQ(pool.build_template(lock(), burst.size()).txs,
                      reference.build_template(lock(), burst.size()).txs);
            for (const auto& tx : burst)
                EXPECT_EQ(pool.contains(tx.leaf_hash()), reference.contains(tx.leaf_hash()));
            for (std::size_t k = 0; k < burst.size(); ++k) {
                if (serial[k] != TxAdmission::kAccepted) continue;
                for (const crypto::VerifyJob& job : triples[k])
                    EXPECT_TRUE(cache.contains(job)) << "spend " << k;
            }
            EXPECT_TRUE(cache.contains(good_of_two));
            for (const crypto::VerifyJob& job : bad) EXPECT_FALSE(cache.contains(job));
            // A lane-true triple enters the cache only when a script reads
            // it, as in the scalar check.
            EXPECT_EQ(cache.size(), reference_cache.size());
        }
    }
}

TEST_F(TxPoolTest, ClaimOrderCannotChangeVerdicts) {
    // Costliest-first claiming takes the 1-of-15 failure before the P2PKH
    // one wherever the two sit in the burst; every lane backend and thread
    // count returns the serial scalar verdicts.
    const std::vector<crypto::PrivateKey> shape_keys = shapes::shape_keys(13);
    const shapes::OrderCases cases(shape_keys);
    const std::vector<const shapes::ShapeCase*> layouts[] = {cases.block(true),
                                                             cases.block(false)};
    std::vector<script::Script> locks;
    for (const auto& layout : layouts)
        for (const shapes::ShapeCase* c : layout) locks.push_back(c->lock);
    const std::uint32_t funding = mine_funding(locks);

    LanesAuto restore;
    for (std::size_t l = 0; l < 2; ++l) {
        SCOPED_TRACE(l == 0 ? "cheap failure first" : "costly failure first");
        std::vector<EbvTransaction> burst;
        for (std::size_t j = 0; j < layouts[l].size(); ++j) {
            const auto out = static_cast<std::uint16_t>(layouts[l].size() * l + j);
            EbvTransaction tx;
            tx.inputs.push_back(archive_.make_input(funding, 0, out));
            tx.outputs.push_back(
                chain::TxOut{tx.inputs[0].els.outputs[out].value - 10'000, lock()});
            tx.inputs[0].unlock_script = layouts[l][j]->unlock(tx, 0);
            burst.push_back(std::move(tx));
        }
        ASSERT_TRUE(crypto::lanes_force_impl("none"));
        TxPool reference(options_.params, node_->headers(), node_->status());
        std::vector<TxAdmission> serial;
        for (const auto& tx : burst) serial.push_back(reference.submit(tx));
        for (std::size_t j = 0; j < burst.size(); ++j)
            EXPECT_EQ(serial[j], j == 2 || j == 6 ? TxAdmission::kScriptFailed
                                                  : TxAdmission::kAccepted);
        for (const char* backend : {"none", "portable", "auto"}) {
            ASSERT_TRUE(crypto::lanes_force_impl(backend));
            for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
                util::ThreadPool workers(threads);
                TxPoolOptions options;
                options.pool = &workers;
                TxPool pool(options_.params, node_->headers(), node_->status(), options);
                EXPECT_EQ(pool.submit_batch(burst), serial) << backend << " threads=" << threads;
            }
        }
    }
}

TEST_F(TxPoolTest, BuildTemplateMinesCleanlyAndEvictsIncrementally) {
    const auto a = make_spend(0, 0, 40 * kCoin);  // fee 10
    const auto b = make_spend(1, 0, 45 * kCoin);  // fee 5
    ASSERT_EQ(pool_->submit(a), TxAdmission::kAccepted);
    ASSERT_EQ(pool_->submit(b), TxAdmission::kAccepted);

    // A pooled tx NOT included in the template (worst feerate of the
    // three) survives eviction.
    const auto survivor = make_spend(2, 0, 48 * kCoin);  // fee 2
    ASSERT_EQ(pool_->submit(survivor), TxAdmission::kAccepted);

    const EbvBlock block = pool_->build_template(lock(), 2);
    ASSERT_EQ(block.txs.size(), 3u);
    EXPECT_TRUE(block.txs[0].is_coinbase());
    // Best feerate first: a (fee 10) before b (fee 5). Stake positions
    // were assigned, so compare spend identity rather than leaf hashes.
    EXPECT_EQ(block.txs[1].inputs[0].height, a.inputs[0].height);
    EXPECT_EQ(block.txs[2].inputs[0].height, b.inputs[0].height);
    // Coinbase claims subsidy + the included fees.
    EXPECT_EQ(block.txs[0].total_output_value(),
              options_.params.subsidy_at(node_->next_height()) + 15 * kCoin);

    // The template connects as-is; building it did not drain the pool.
    EXPECT_EQ(pool_->size(), 3u);
    auto result = node_->submit_block(block);
    ASSERT_TRUE(result.has_value()) << result.error().describe();

    // Incremental eviction drops exactly the confirmed spenders.
    EXPECT_EQ(pool_->evict_confirmed_spends(block), 2u);
    EXPECT_EQ(pool_->size(), 1u);
    EXPECT_TRUE(pool_->contains(survivor.leaf_hash()));
}

TEST_F(TxPoolTest, IncrementalEvictionMatchesFullRescan) {
    const auto victim = make_spend(0, 0, 40 * kCoin);
    ASSERT_EQ(pool_->submit(victim), TxAdmission::kAccepted);
    ASSERT_EQ(pool_->submit(make_spend(1, 0, 40 * kCoin)), TxAdmission::kAccepted);

    // A block confirms a *different* transaction spending victim's output,
    // assembled through a second pool's template path.
    TxPool other(options_.params, node_->headers(), node_->status());
    ASSERT_EQ(other.submit(make_spend(0, 0, 39 * kCoin)), TxAdmission::kAccepted);
    const EbvBlock block = other.build_template(lock(), 1);
    ASSERT_TRUE(node_->submit_block(block).has_value());

    EXPECT_EQ(pool_->evict_confirmed_spends(block), 1u);
    EXPECT_EQ(pool_->size(), 1u);
    EXPECT_FALSE(pool_->contains(victim.leaf_hash()));
    // Nothing left for the full rescan to find: the incremental pass
    // matched it exactly.
    EXPECT_EQ(pool_->evict_confirmed_spends(), 0u);
}

TEST_F(TxPoolTest, EvictsTransactionsSpentByConfirmedBlocks) {
    const auto pooled = make_spend(0, 0, 40 * kCoin);
    ASSERT_EQ(pool_->submit(pooled), TxAdmission::kAccepted);

    // A block confirms a *different* transaction spending the same output.
    auto confirmed = make_spend(0, 0, 41 * kCoin);
    mine_blocks(1, {confirmed});

    EXPECT_EQ(pool_->evict_confirmed_spends(), 1u);
    EXPECT_EQ(pool_->size(), 0u);
}

TEST_F(TxPoolTest, PooledTransactionMinesCleanly) {
    ASSERT_EQ(pool_->submit(make_spend(0, 0, 40 * kCoin)), TxAdmission::kAccepted);
    const EbvBlock block = pool_->build_template(lock(), 10);
    ASSERT_EQ(block.txs.size(), 2u);
    ASSERT_TRUE(node_->submit_block(block).has_value());
    // The full rescan finds the confirmed spender.
    EXPECT_EQ(pool_->evict_confirmed_spends(), 1u);
    EXPECT_EQ(pool_->size(), 0u);
    // The spent output's bit is cleared.
    EXPECT_FALSE(node_->status().check_unspent(0, 0).has_value());
}

TEST(TxPoolEmptyChain, SpendWithNoChainFailsExistence) {
    // A spend with no chain behind it must fail EV, before UV or SV.
    chain::ChainParams params;
    chain::HeaderIndex headers;
    BitVectorSet status;
    TxPool pool(params, headers, status);
    EbvTransaction tx;
    EbvInput in;
    in.els.outputs.push_back(chain::TxOut{1, script::Script{0x51}});
    tx.inputs.push_back(in);
    tx.outputs.push_back(chain::TxOut{1, script::Script{0x51}});
    EXPECT_EQ(pool.submit(tx), TxAdmission::kExistenceFailed);
    EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace ebv::core
