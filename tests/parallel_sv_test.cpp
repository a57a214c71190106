// The parallel-SV extension (the paper lists SV optimization as future
// work): both validators accept a thread pool for script checks; results
// must be identical to serial validation, including failure reporting.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chain/node.hpp"
#include "core/node.hpp"
#include "intermediary/converter.hpp"
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

}  // namespace
}  // namespace ebv
