// The parallel-SV extension (the paper lists SV optimization as future
// work): both validators accept a thread pool for script checks; results
// must be identical to serial validation, including failure reporting.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chain/node.hpp"
#include "core/node.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "intermediary/converter.hpp"
#include "obs/metrics.hpp"
#include "standard_shapes.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

workload::GeneratorOptions options_for(std::uint64_t seed) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

TEST(ParallelSv, BaselineAcceptsSameChainAsSerial) {
    const auto gen_options = options_for(3);
    util::ThreadPool pool(4);

    workload::ChainGenerator gen_a(gen_options);
    chain::BitcoinNodeOptions serial_options;
    serial_options.params = gen_options.params;
    chain::BitcoinNode serial_node(serial_options);

    workload::ChainGenerator gen_b(gen_options);
    chain::BitcoinNodeOptions pooled_options;
    pooled_options.params = gen_options.params;
    pooled_options.validator.script_pool = &pool;
    chain::BitcoinNode pooled_node(pooled_options);

    for (int i = 0; i < 20; ++i) {
        const auto block_a = gen_a.next_block();
        const auto block_b = gen_b.next_block();
        ASSERT_EQ(block_a.header.hash(), block_b.header.hash());
        const auto ra = serial_node.submit_block(block_a);
        const auto rb = pooled_node.submit_block(block_b);
        ASSERT_TRUE(ra.has_value());
        ASSERT_TRUE(rb.has_value());
        EXPECT_EQ(ra->inputs, rb->inputs);
    }
    EXPECT_EQ(serial_node.utxo().size(), pooled_node.utxo().size());
}

TEST(ParallelSv, EbvPooledRejectsBadSignatureLikeSerial) {
    const auto gen_options = options_for(4);
    util::ThreadPool pool(4);

    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    core::EbvNodeOptions serial_options;
    serial_options.params = gen_options.params;
    core::EbvNode serial_node(serial_options);

    core::EbvNodeOptions pooled_options;
    pooled_options.params = gen_options.params;
    pooled_options.validator.script_pool = &pool;
    core::EbvNode pooled_node(pooled_options);

    bool tampered_one = false;
    for (int i = 0; i < 25; ++i) {
        const auto block = gen.next_block();
        auto converted = converter.convert_block(block);
        ASSERT_TRUE(converted.has_value());

        if (!tampered_one && converted->input_count() >= 3) {
            tampered_one = true;
            core::EbvBlock bad = *converted;
            // Corrupt one signature buried in the middle of the block.
            for (auto& tx : bad.txs) {
                if (tx.inputs.empty()) continue;
                tx.inputs.back().unlock_script[5] ^= 0x11;
                break;
            }
            bad.assign_stake_positions();

            const auto serial_result = serial_node.submit_block(bad);
            const auto pooled_result = pooled_node.submit_block(bad);
            ASSERT_FALSE(serial_result.has_value());
            ASSERT_FALSE(pooled_result.has_value());
            EXPECT_EQ(serial_result.error().error, core::EbvError::kScriptFailure);
            EXPECT_EQ(pooled_result.error().error, core::EbvError::kScriptFailure);
            EXPECT_EQ(pooled_result.error(), serial_result.error());
        }

        ASSERT_TRUE(serial_node.submit_block(*converted).has_value());
        ASSERT_TRUE(pooled_node.submit_block(*converted).has_value());
    }
    EXPECT_TRUE(tampered_one);
    EXPECT_EQ(serial_node.status().memory_bytes(), pooled_node.status().memory_bytes());
}

// Regression for the parallel failure-reporting race: whatever mix of
// corrupted proofs and signatures a block carries, every thread count must
// report exactly the failure the serial pipeline reports — same error, same
// (tx_index, input_index), same script error.
class ParallelSvDeterminism : public ::testing::Test {
protected:
    /// Zipf skew for the generated chain; subclasses override before SetUp.
    double skew_ = 0.0;

    void SetUp() override {
        gen_options_ = options_for(5);
        gen_options_.skew = skew_;
        workload::ChainGenerator gen(gen_options_);
        intermediary::Converter converter;
        for (int i = 0; i < 40 && !victim_; ++i) {
            const auto block = gen.next_block();
            auto converted = converter.convert_block(block);
            ASSERT_TRUE(converted.has_value());
            if (converted->input_count() >= 4) {
                victim_ = *converted;
            } else {
                prefix_.push_back(*converted);
            }
        }
        ASSERT_TRUE(victim_.has_value()) << "workload never produced a 4-input block";
    }

    /// Replay the good prefix on a fresh node, then submit `bad` and return
    /// the reported failure.
    core::EbvValidationFailure failure_with(util::ThreadPool* pool,
                                            const core::EbvBlock& bad) {
        core::EbvNodeOptions options;
        options.params = gen_options_.params;
        options.validator.script_pool = pool;
        core::EbvNode node(options);
        for (const auto& b : prefix_) EXPECT_TRUE(node.submit_block(b).has_value());
        auto result = node.submit_block(bad);
        if (result.has_value()) {
            ADD_FAILURE() << "tampered block was accepted";
            return core::EbvValidationFailure{};
        }
        return result.error();
    }

    /// The serial run is the reference; every thread count must report its
    /// exact tuple.
    void expect_identical_across_thread_counts(const core::EbvBlock& bad) {
        const core::EbvValidationFailure want = failure_with(nullptr, bad);
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            util::ThreadPool pool(threads);
            for (int rep = 0; rep < 3; ++rep) {
                const core::EbvValidationFailure got = failure_with(&pool, bad);
                EXPECT_EQ(want.error, got.error) << "threads=" << threads;
                EXPECT_EQ(want.tx_index, got.tx_index) << "threads=" << threads;
                EXPECT_EQ(want.input_index, got.input_index) << "threads=" << threads;
                EXPECT_EQ(want.script_error, got.script_error) << "threads=" << threads;
            }
        }
    }

    /// The scheduler × threads matrix: the work-stealing scheduler executes
    /// ranges in a different (racy) order than the shared counter, and the
    /// reported failure tuple must not notice. Serial is the reference.
    void expect_identical_across_schedulers(const core::EbvBlock& bad) {
        const core::EbvValidationFailure want = failure_with(nullptr, bad);
        for (const util::SchedulerMode mode :
             {util::SchedulerMode::kCounter, util::SchedulerMode::kSteal}) {
            for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
                util::ThreadPool pool(util::ThreadPool::Options{threads, mode, {}});
                for (int rep = 0; rep < 2; ++rep) {
                    const core::EbvValidationFailure got = failure_with(&pool, bad);
                    EXPECT_EQ(want.error, got.error)
                        << util::to_string(mode) << " threads=" << threads;
                    EXPECT_EQ(want.tx_index, got.tx_index)
                        << util::to_string(mode) << " threads=" << threads;
                    EXPECT_EQ(want.input_index, got.input_index)
                        << util::to_string(mode) << " threads=" << threads;
                    EXPECT_EQ(want.script_error, got.script_error)
                        << util::to_string(mode) << " threads=" << threads;
                }
            }
        }
    }

    workload::GeneratorOptions gen_options_;
    std::vector<core::EbvBlock> prefix_;
    std::optional<core::EbvBlock> victim_;
};

/// Same fixture over a Zipf-skewed chain (EBV_SKEW mechanism): heavy 1-of-M
/// multisig spends make per-input SV cost wildly uneven, which is exactly
/// the load shape where range splitting and stealing reorder execution the
/// most aggressively.
class ParallelSvSkewDeterminism : public ParallelSvDeterminism {
protected:
    void SetUp() override {
        skew_ = 1.0;
        ParallelSvDeterminism::SetUp();
    }
};

TEST_F(ParallelSvDeterminism, MultipleBadSignatures) {
    core::EbvBlock bad = *victim_;
    // Corrupt every other input's signature: several inputs fail SV and the
    // lowest (tx, input) must win under every thread count.
    std::size_t global = 0;
    for (auto& tx : bad.txs) {
        for (auto& in : tx.inputs) {
            if (global++ % 2 == 1 && in.unlock_script.size() > 6)
                in.unlock_script[5] ^= 0x11;
        }
    }
    bad.assign_stake_positions();
    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kScriptFailure);
    expect_identical_across_thread_counts(bad);
}

TEST_F(ParallelSvDeterminism, ProofTamperOutranksEarlierBadSignature) {
    core::EbvBlock bad = *victim_;
    // Corrupt the first input's signature and the last input's Merkle
    // branch. EV verdicts resolve before SV verdicts, so every run must
    // report the existence failure at the *later* input.
    core::EbvInput* first = nullptr;
    core::EbvInput* last = nullptr;
    for (auto& tx : bad.txs) {
        for (auto& in : tx.inputs) {
            if (first == nullptr) first = &in;
            last = &in;
        }
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(first, last);
    ASSERT_GT(first->unlock_script.size(), 6u);
    first->unlock_script[5] ^= 0x11;
    if (!last->mbr.siblings.empty()) {
        last->mbr.siblings[0].bytes()[0] ^= 0x01;
    } else {
        // Single-leaf source tree: no siblings to corrupt, so break the
        // leaf commitment itself.
        last->els.locktime ^= 1;
    }
    bad.assign_stake_positions();
    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kExistenceFailed);
    expect_identical_across_thread_counts(bad);
}

TEST_F(ParallelSvDeterminism, DoubleSpendOutranksBadSignature) {
    core::EbvBlock bad = *victim_;
    // One transaction carries both a corrupted signature (its first input)
    // and an in-block double spend (its first input duplicated at the end).
    // UV verdicts resolve before SV verdicts, so every thread count must
    // report kDoubleSpendInBlock at the duplicate, never the script failure.
    core::EbvTransaction* spender = nullptr;
    for (auto& tx : bad.txs) {
        if (!tx.inputs.empty()) {
            spender = &tx;
            break;
        }
    }
    ASSERT_NE(spender, nullptr);
    ASSERT_GT(spender->inputs[0].unlock_script.size(), 6u);
    spender->inputs[0].unlock_script[5] ^= 0x11;
    spender->inputs.push_back(spender->inputs[0]);
    bad.assign_stake_positions();

    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kDoubleSpendInBlock);
    EXPECT_EQ(failure.input_index, spender->inputs.size() - 1);
    expect_identical_across_thread_counts(bad);
}

TEST_F(ParallelSvDeterminism, SchedulerMatrixMultipleBadSignatures) {
    core::EbvBlock bad = *victim_;
    std::size_t global = 0;
    for (auto& tx : bad.txs) {
        for (auto& in : tx.inputs) {
            if (global++ % 2 == 1 && in.unlock_script.size() > 6)
                in.unlock_script[5] ^= 0x11;
        }
    }
    bad.assign_stake_positions();
    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kScriptFailure);
    expect_identical_across_schedulers(bad);
}

TEST_F(ParallelSvSkewDeterminism, SchedulerMatrixOnSkewedWorkload) {
    core::EbvBlock bad = *victim_;
    std::size_t global = 0;
    for (auto& tx : bad.txs) {
        for (auto& in : tx.inputs) {
            if (global++ % 2 == 1 && in.unlock_script.size() > 6)
                in.unlock_script[5] ^= 0x11;
        }
    }
    bad.assign_stake_positions();
    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kScriptFailure);
    expect_identical_across_schedulers(bad);
}

TEST_F(ParallelSvSkewDeterminism, ProofTamperOutranksEarlierBadSignature) {
    core::EbvBlock bad = *victim_;
    core::EbvInput* first = nullptr;
    core::EbvInput* last = nullptr;
    for (auto& tx : bad.txs) {
        for (auto& in : tx.inputs) {
            if (first == nullptr) first = &in;
            last = &in;
        }
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(first, last);
    ASSERT_GT(first->unlock_script.size(), 6u);
    first->unlock_script[5] ^= 0x11;
    if (!last->mbr.siblings.empty()) {
        last->mbr.siblings[0].bytes()[0] ^= 0x01;
    } else {
        last->els.locktime ^= 1;
    }
    bad.assign_stake_positions();
    const auto failure = failure_with(nullptr, bad);
    ASSERT_EQ(failure.error, core::EbvError::kExistenceFailed);
    expect_identical_across_schedulers(bad);
}

/// Pins the signature-lane backend for a scope, then restores "auto".
class LanesScope {
public:
    explicit LanesScope(const char* impl) { EXPECT_TRUE(crypto::lanes_force_impl(impl)); }
    ~LanesScope() { crypto::lanes_force_impl("auto"); }
    LanesScope(const LanesScope&) = delete;
    LanesScope& operator=(const LanesScope&) = delete;
};

/// The baseline's verdict on one block: accepted, or its failure tuple.
struct BaselineVerdict {
    bool accepted = true;
    chain::BlockError error = chain::BlockError::kEmptyBlock;
    std::size_t tx_index = 0;
    std::size_t input_index = 0;
    script::ScriptError script_error = script::ScriptError::kOk;

    friend bool operator==(const BaselineVerdict&, const BaselineVerdict&) = default;
    friend std::ostream& operator<<(std::ostream& os, const BaselineVerdict& v) {
        if (v.accepted) return os << "accepted";
        return os << chain::ValidationFailure{v.error, v.tx_index, v.input_index, v.script_error}
                         .describe();
    }
};

/// `block` on a fresh baseline node after `prefix`.
BaselineVerdict baseline_verdict(const chain::ChainParams& params, util::ThreadPool* pool,
                                 const std::vector<chain::Block>& prefix,
                                 const chain::Block& block) {
    chain::BitcoinNodeOptions options;
    options.params = params;
    options.validator.script_pool = pool;
    chain::BitcoinNode node(options);
    for (const chain::Block& b : prefix) EXPECT_TRUE(node.submit_block(b).has_value());
    const auto result = node.submit_block(block);
    if (result) return {};
    const chain::ValidationFailure& f = result.error();
    return {false, f.error, f.tx_index, f.input_index, f.script_error};
}

// The baseline runs SV through the claim loop and verdict prefetch EBV
// uses. Over every standard signature shape, in Bitcoin format, each lane
// backend and thread count reports the serial scalar verdicts: one block
// per shape, and one block with every shape, whose lowest failing input
// wins. With lanes, each shape leaves exactly its expected lane verdicts
// unread.
TEST(ParallelSv, BaselineShapesMatchScalarSerialAcrossLanesAndThreads) {
    chain::ChainParams params = chain::ChainParams::simnet();
    params.coinbase_maturity = 1;
    const std::vector<crypto::PrivateKey> keys = shapes::shape_keys(5);
    const std::vector<shapes::ShapeCase> cases = shapes::shape_cases(keys);
    std::vector<script::Script> locks;
    for (const auto& c : cases) locks.push_back(c.lock);
    const shapes::BitcoinShapeChain chain(params, locks, 2);

    std::vector<chain::Block> blocks;
    std::vector<chain::Transaction> every_shape;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const auto out = static_cast<std::uint32_t>(2 * c);
        blocks.push_back(chain.next_block({chain.spend(out, cases[c].unlock)}));
        every_shape.push_back(chain.spend(out + 1, cases[c].unlock));
    }
    blocks.push_back(chain.next_block(std::move(every_shape)));

    obs::Counter& lane_groups = obs::Registry::global().counter("ebv.crypto.lane_groups");
    obs::Counter& lane_unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    // Each block's verdict, and into `unused` the lane verdicts it left
    // unread.
    const auto verdicts = [&](util::ThreadPool* pool, std::vector<std::uint64_t>& unused) {
        std::vector<BaselineVerdict> out;
        for (const chain::Block& block : blocks) {
            const std::uint64_t before = lane_unused.value();
            out.push_back(baseline_verdict(params, pool, chain.blocks, block));
            unused.push_back(lane_unused.value() - before);
        }
        return out;
    };

    std::vector<std::uint64_t> unused;
    const std::vector<BaselineVerdict> reference = [&] {
        const LanesScope scalar("none");
        return verdicts(nullptr, unused);
    }();
    std::size_t first_invalid = cases.size();
    for (std::size_t c = 0; c < cases.size(); ++c) {
        EXPECT_EQ(reference[c].accepted, cases[c].valid) << cases[c].name;
        if (!cases[c].valid) {
            EXPECT_EQ(reference[c].error, chain::BlockError::kScriptFailure) << cases[c].name;
            first_invalid = std::min(first_invalid, c);
        }
    }
    ASSERT_LT(first_invalid, cases.size());
    EXPECT_EQ(reference.back().tx_index, first_invalid + 1);

    for (const char* backend : {"none", "portable", "auto"}) {
        const LanesScope scope(backend);
        const bool lanes = crypto::lanes_enabled();
        for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(backend) + " threads=" + std::to_string(threads));
            std::optional<util::ThreadPool> pool;
            if (threads > 0) pool.emplace(threads);
            const std::uint64_t groups = lane_groups.value();
            unused.clear();
            EXPECT_EQ(verdicts(pool ? &*pool : nullptr, unused), reference);
            EXPECT_EQ(lane_groups.value() > groups, lanes);
            for (std::size_t c = 0; c < cases.size(); ++c)
                EXPECT_EQ(unused[c], lanes ? cases[c].unused : 0u) << cases[c].name;
        }
    }
}

// Costliest-first claiming takes the baseline's 1-of-15 failure before
// its P2PKH one wherever the two sit in the block; every lane backend and
// thread count still reports the lower one, as the serial scalar run does.
TEST(ParallelSv, BaselineClaimOrderCannotChangeTheFailureTuple) {
    chain::ChainParams params = chain::ChainParams::simnet();
    params.coinbase_maturity = 1;
    const std::vector<crypto::PrivateKey> keys = shapes::shape_keys(12);
    const shapes::OrderCases cases(keys);
    const std::vector<const shapes::ShapeCase*> layouts[] = {cases.block(true),
                                                             cases.block(false)};
    std::vector<script::Script> locks;
    for (const auto& layout : layouts)
        for (const shapes::ShapeCase* c : layout) locks.push_back(c->lock);
    const shapes::BitcoinShapeChain chain(params, locks, 1);
    for (std::size_t l = 0; l < 2; ++l) {
        SCOPED_TRACE(l == 0 ? "cheap failure first" : "costly failure first");
        std::vector<chain::Transaction> txs;
        for (std::size_t j = 0; j < layouts[l].size(); ++j)
            txs.push_back(chain.spend(static_cast<std::uint32_t>(layouts[l].size() * l + j),
                                      layouts[l][j]->unlock));
        const chain::Block block = chain.next_block(std::move(txs));
        const BaselineVerdict reference = [&] {
            const LanesScope scalar("none");
            return baseline_verdict(params, nullptr, chain.blocks, block);
        }();
        EXPECT_FALSE(reference.accepted);
        EXPECT_EQ(reference.error, chain::BlockError::kScriptFailure);
        EXPECT_EQ(reference.tx_index, 3u);
        for (const char* backend : {"none", "portable", "auto"}) {
            const LanesScope scope(backend);
            for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
                util::ThreadPool pool(threads);
                EXPECT_EQ(baseline_verdict(params, &pool, chain.blocks, block), reference)
                    << backend << " threads=" << threads;
            }
        }
    }
}

// On a valid generated chain the baseline takes the lanes under every
// thread count, reads every lane verdict it asked for, and ends in the
// scalar serial node's UTXO set.
TEST(ParallelSv, BaselineTakesTheLanesOnValidChain) {
    const auto gen_options = options_for(3);
    std::vector<chain::Block> blocks;
    workload::ChainGenerator gen(gen_options);
    for (int i = 0; i < 20; ++i) blocks.push_back(gen.next_block());

    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    const auto utxo_size = [&](util::ThreadPool* pool) {
        options.validator.script_pool = pool;
        chain::BitcoinNode node(options);
        for (const chain::Block& block : blocks) EXPECT_TRUE(node.submit_block(block).has_value());
        return node.utxo().size();
    };
    const std::size_t reference = [&] {
        const LanesScope scalar("none");
        return utxo_size(nullptr);
    }();

    obs::Counter& lane_groups = obs::Registry::global().counter("ebv.crypto.lane_groups");
    obs::Counter& lane_unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    const LanesScope portable("portable");
    for (const std::size_t threads : {0u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::optional<util::ThreadPool> pool;
        if (threads > 0) pool.emplace(threads);
        const std::uint64_t groups = lane_groups.value();
        const std::uint64_t unused = lane_unused.value();
        EXPECT_EQ(utxo_size(pool ? &*pool : nullptr), reference);
        EXPECT_GT(lane_groups.value(), groups);
        EXPECT_EQ(lane_unused.value(), unused);
    }
}

}  // namespace
}  // namespace ebv
