// chain::SigCache: sharded admission-time signature-verification reuse
// (docs/MEMPOOL.md). Covers the cache contract (only-successes stored,
// FIFO byte budget, salted keying), the soundness demonstration the
// scenario matrix relies on — a deliberately poisoned entry CAN flip a
// block verdict, and evicting it restores bit-identical failure tuples —
// and concurrent access (TSAN scope).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "chain/sig_cache.hpp"
#include "core/chain_archive.hpp"
#include "core/node.hpp"
#include "core/tx_pool.hpp"
#include "obs/metrics.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"

namespace ebv::core {
namespace {

using chain::Amount;
using chain::kCoin;
using chain::SigCache;

crypto::VerifyJob make_job(util::Rng& rng, std::uint8_t tag) {
    const crypto::PrivateKey key = crypto::PrivateKey::generate(rng);
    std::array<std::uint8_t, 32> raw{};
    raw[0] = tag;
    raw[1] = static_cast<std::uint8_t>(rng.next());
    const crypto::Hash256 digest = crypto::Hash256::from_span({raw.data(), raw.size()});
    return crypto::VerifyJob{key.public_key(), key.sign(digest), digest};
}

TEST(SigCache, InsertContainsEraseClear) {
    util::Rng rng(1);
    SigCache cache(/*max_bytes=*/0);
    const crypto::VerifyJob a = make_job(rng, 1);
    const crypto::VerifyJob b = make_job(rng, 2);

    EXPECT_FALSE(cache.contains(a));
    cache.insert(a);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_EQ(cache.size(), 1u);

    cache.insert(a);  // idempotent
    EXPECT_EQ(cache.size(), 1u);

    EXPECT_TRUE(cache.erase(a));
    EXPECT_FALSE(cache.erase(a));
    EXPECT_FALSE(cache.contains(a));

    cache.insert(a);
    cache.insert(b);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.contains(a));
}

TEST(SigCache, KeyDependsOnEveryTripleComponent) {
    util::Rng rng(2);
    SigCache cache(0);
    const crypto::VerifyJob job = make_job(rng, 3);
    cache.insert(job);

    crypto::VerifyJob other_digest = job;
    other_digest.digest = crypto::hash256(job.digest.span());
    EXPECT_FALSE(cache.contains(other_digest));

    crypto::VerifyJob other_sig = job;
    other_sig.sig.s.limbs[0] ^= 1;
    EXPECT_FALSE(cache.contains(other_sig));

    const crypto::VerifyJob other_key = make_job(rng, 4);
    crypto::VerifyJob swapped_key = job;
    swapped_key.key = other_key.key;
    EXPECT_FALSE(cache.contains(swapped_key));
}

TEST(SigCache, ByteBudgetEvictsFifoPerShard) {
    util::Rng rng(3);
    // Budget for exactly one entry per shard.
    SigCache cache(SigCache::kEntryCostBytes * SigCache::kShardCount);
    ASSERT_EQ(cache.max_bytes(), SigCache::kEntryCostBytes * SigCache::kShardCount);

    std::vector<crypto::VerifyJob> jobs;
    for (int i = 0; i < 200; ++i) jobs.push_back(make_job(rng, 5));
    for (const auto& job : jobs) cache.insert(job);

    EXPECT_LE(cache.size(), SigCache::kShardCount);
    EXPECT_LE(cache.bytes(), cache.max_bytes());
    // With ~12 keys landing in the first job's shard, FIFO evicted it.
    EXPECT_FALSE(cache.contains(jobs.front()));
    EXPECT_GT(cache.size(), 0u);
}

TEST(SigCache, EnvOverridesByteBudget) {
    ::setenv("EBV_SIGCACHE_BYTES", "4096", 1);
    SigCache cache(SigCache::kDefaultMaxBytes);
    EXPECT_EQ(cache.max_bytes(), 4096u);
    ::unsetenv("EBV_SIGCACHE_BYTES");
}

TEST(SigCache, ConcurrentInsertContainsEraseIsSafe) {
    util::Rng rng(4);
    SigCache cache(SigCache::kEntryCostBytes * 64);
    std::vector<crypto::VerifyJob> jobs;
    for (int i = 0; i < 128; ++i) jobs.push_back(make_job(rng, 6));

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 200; ++round) {
                const auto& job = jobs[(t * 31 + round) % jobs.size()];
                switch ((t + round) % 3) {
                    case 0: cache.insert(job); break;
                    case 1: (void)cache.contains(job); break;
                    case 2: (void)cache.erase(job); break;
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_LE(cache.size(), jobs.size());
}

/// Chain-backed fixture (mirrors TxPoolTest): a small EBV chain whose
/// coinbases pay one key, with every mined block kept for replay so each
/// scenario can run on a fresh node with its own validator options.
class SigCacheChainTest : public ::testing::Test {
protected:
    SigCacheChainTest() : key_(crypto::PrivateKey::generate(rng_)) {
        options_.params.coinbase_maturity = 2;
        node_ = std::make_unique<EbvNode>(options_);
        mine_blocks(4);
    }

    script::Script lock() const { return script::make_p2pkh(key_.public_key().id()); }

    void mine_blocks(int count) {
        for (int i = 0; i < count; ++i) {
            EbvBlock block;
            EbvTransaction coinbase;
            const std::uint32_t height = node_->next_height();
            coinbase.coinbase_data = {static_cast<std::uint8_t>(height), 1};
            coinbase.outputs.push_back(
                chain::TxOut{options_.params.subsidy_at(height), lock()});
            block.txs.push_back(std::move(coinbase));
            block.header.prev_hash = node_->headers().empty()
                                         ? crypto::Hash256{}
                                         : node_->headers().tip_hash();
            block.assign_stake_positions();
            auto result = node_->submit_block(block);
            ASSERT_TRUE(result.has_value()) << result.error().describe();
            archive_.add_block(block);
            mined_.push_back(block);
        }
    }

    /// Fresh node replaying the mined chain, optionally with a sigcache.
    std::unique_ptr<EbvNode> replay_node(SigCache* sigcache) {
        EbvNodeOptions options = options_;
        options.validator.sigcache = sigcache;
        auto node = std::make_unique<EbvNode>(options);
        for (const EbvBlock& block : mined_) {
            auto result = node->submit_block(block);
            EXPECT_TRUE(result.has_value());
        }
        return node;
    }

    /// A block spending (0,0) whose signature is DER-valid but computed
    /// over the WRONG digest — invalid, unless a poisoned cache vouches.
    EbvBlock hostile_block(crypto::VerifyJob* job_out) {
        EbvTransaction tx;
        tx.inputs.push_back(archive_.make_input(0, 0, 0));
        tx.outputs.push_back(chain::TxOut{40 * kCoin, lock()});
        const crypto::Signature bogus = key_.sign(crypto::Hash256{});
        util::Bytes sig = bogus.to_der();
        sig.push_back(0x01);
        tx.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, key_.public_key());

        // The exact triple chain::SigChecker forms for this input: the
        // REAL sighash, the real key, the bogus signature.
        *job_out = crypto::VerifyJob{key_.public_key(), bogus,
                                     ebv_signature_hash(tx, 0, lock(), 0x01)};

        EbvBlock block;
        EbvTransaction coinbase;
        const std::uint32_t height = node_->next_height();
        coinbase.coinbase_data = {static_cast<std::uint8_t>(height), 7};
        coinbase.outputs.push_back(
            chain::TxOut{options_.params.subsidy_at(height) + 10 * kCoin, lock()});
        block.txs.push_back(std::move(coinbase));
        block.txs.push_back(std::move(tx));
        block.header.prev_hash = node_->headers().tip_hash();
        block.assign_stake_positions();
        return block;
    }

    util::Rng rng_{21};
    crypto::PrivateKey key_;
    EbvNodeOptions options_;
    std::unique_ptr<EbvNode> node_;
    ChainArchive archive_;
    std::vector<EbvBlock> mined_;
};

// The poisoned-then-evicted leg of the scenario-matrix guarantee: a forged
// cache entry is demonstrably load-bearing (the invalid block connects),
// and evicting it restores the cold failure tuple bit for bit. This is
// exactly why insert() must only ever see verified-TRUE triples.
TEST_F(SigCacheChainTest, PoisonedEntryFlipsVerdictAndEvictionRestoresParity) {
    crypto::VerifyJob forged{};
    const EbvBlock hostile = hostile_block(&forged);

    // Cold: rejected with a script failure at (tx 1, input 0).
    auto cold_node = replay_node(nullptr);
    const auto cold = cold_node->submit_block(hostile);
    ASSERT_FALSE(cold.has_value());
    const EbvValidationFailure cold_failure = cold.error();
    EXPECT_EQ(cold_failure.error, EbvError::kScriptFailure);
    EXPECT_EQ(cold_failure.tx_index, 1u);
    EXPECT_EQ(cold_failure.input_index, 0u);

    // An honestly warmed cache (clean-chain replay) changes nothing.
    SigCache cache;
    {
        auto warm_node = replay_node(&cache);
        const auto warm = warm_node->submit_block(hostile);
        ASSERT_FALSE(warm.has_value());
        EXPECT_TRUE(warm.error() == cold_failure);
    }

    // Poison: force the forged triple in. The hit short-circuits SV and
    // the invalid block CONNECTS — the cache is load-bearing.
    cache.insert(forged);
    {
        auto poisoned_node = replay_node(&cache);
        EXPECT_TRUE(poisoned_node->submit_block(hostile).has_value());
    }

    // Evict the forged entry: parity with the cold tuple returns.
    ASSERT_TRUE(cache.erase(forged));
    {
        auto evicted_node = replay_node(&cache);
        const auto evicted = evicted_node->submit_block(hostile);
        ASSERT_FALSE(evicted.has_value());
        EXPECT_TRUE(evicted.error() == cold_failure);
    }
}

// The tentpole's payoff path: signatures verified at mempool admission are
// NOT re-verified when the assembled block connects — the block validator
// hits the cache once per admission-verified signature.
TEST_F(SigCacheChainTest, AdmissionWarmedCacheServesBlockValidation) {
    SigCache cache;
    TxPoolOptions pool_options;
    pool_options.sigcache = &cache;
    TxPool pool(options_.params, node_->headers(), node_->status(), pool_options);

    auto make_spend = [&](std::uint32_t height, Amount out_value) {
        EbvTransaction tx;
        tx.inputs.push_back(archive_.make_input(height, 0, 0));
        tx.outputs.push_back(chain::TxOut{out_value, lock()});
        const crypto::Hash256 digest = ebv_signature_hash(tx, 0, lock(), 0x01);
        util::Bytes sig = key_.sign(digest).to_der();
        sig.push_back(0x01);
        tx.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, key_.public_key());
        return tx;
    };
    ASSERT_EQ(pool.submit(make_spend(0, 40 * kCoin)), TxAdmission::kAccepted);
    ASSERT_EQ(pool.submit(make_spend(1, 45 * kCoin)), TxAdmission::kAccepted);
    const std::size_t warmed = cache.size();
    ASSERT_GE(warmed, 2u);

    const EbvBlock block = pool.build_template(lock(), 10);
    ASSERT_EQ(block.txs.size(), 3u);

    // Connect on a node wired to the same cache: both pooled signatures hit.
    obs::Counter& hits = obs::Registry::global().counter("ebv.sigcache.hits");
    auto miner = replay_node(&cache);
    const std::uint64_t hits_before = hits.value();
    ASSERT_TRUE(miner->submit_block(block).has_value());
    EXPECT_GE(hits.value() - hits_before, 2u);
    // Nothing new was verified at connect time for the pooled txs.
    EXPECT_EQ(cache.size(), warmed);
}

}  // namespace
}  // namespace ebv::core
