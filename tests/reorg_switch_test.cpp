// Branch-switching (reorg_to) on both node types: longer branches win,
// invalid branches roll back atomically, and both systems end in states
// identical to having connected the winning branch directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/reorg.hpp"
#include "core/node.hpp"
#include "intermediary/converter.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

namespace fs = std::filesystem;

class SwitchTempDir {
public:
    SwitchTempDir() {
        path_ = fs::temp_directory_path() /
                ("ebv_switch_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~SwitchTempDir() { fs::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    fs::path path_;
    static inline int counter_ = 0;
};

workload::GeneratorOptions switch_gen_options(std::uint64_t seed) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(3.0, 1.5, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

/// An empty competing block on the given parent.
chain::Block empty_block(const crypto::Hash256& parent, std::uint32_t height,
                         const chain::ChainParams& params, std::uint32_t salt) {
    return chain::assemble_block(
        parent, chain::make_coinbase(height, params.subsidy_at(height),
                                     script::Script{0x51}, salt),
        {}, /*time=*/1000 + height);
}

TEST(ReorgSwitch, BaselineLongerBranchWins) {
    const auto gen_options = switch_gen_options(41);
    workload::ChainGenerator gen(gen_options);

    SwitchTempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);

    for (int i = 0; i < 15; ++i) ASSERT_TRUE(node.submit_block(gen.next_block()));
    const auto tip_before = node.headers().tip_hash();

    // A 3-block branch forking 1 below the tip (replaces 1, adds 3).
    const auto* fork_parent = node.headers().at(13);
    ASSERT_NE(fork_parent, nullptr);
    std::vector<chain::Block> branch;
    crypto::Hash256 parent = fork_parent->hash();
    for (std::uint32_t i = 0; i < 3; ++i) {
        branch.push_back(empty_block(parent, 14 + i, options.params, 500 + i));
        parent = branch.back().header.hash();
    }

    auto outcome = chain::reorg_to(node, branch);
    ASSERT_TRUE(outcome.has_value()) << to_string(outcome.error());
    EXPECT_TRUE(outcome->switched);
    EXPECT_EQ(outcome->fork_height, 13u);
    EXPECT_EQ(outcome->blocks_disconnected, 1u);
    EXPECT_EQ(outcome->blocks_connected, 3u);
    EXPECT_EQ(node.next_height(), 17u);
    EXPECT_EQ(node.headers().tip_hash(), branch.back().header.hash());
    EXPECT_NE(node.headers().tip_hash(), tip_before);
}

TEST(ReorgSwitch, BaselineShorterOrEqualBranchRefused) {
    const auto gen_options = switch_gen_options(43);
    workload::ChainGenerator gen(gen_options);

    SwitchTempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(node.submit_block(gen.next_block()));

    const auto* fork_parent = node.headers().at(8);
    std::vector<chain::Block> equal_branch{
        empty_block(fork_parent->hash(), 9, options.params, 7)};
    auto outcome = chain::reorg_to(node, equal_branch);
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error(), chain::ReorgError::kBranchNotLonger);
    EXPECT_EQ(node.next_height(), 10u);  // untouched
}

TEST(ReorgSwitch, BaselineInvalidBranchRollsBack) {
    const auto gen_options = switch_gen_options(47);
    workload::ChainGenerator gen(gen_options);

    SwitchTempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);
    for (int i = 0; i < 12; ++i) ASSERT_TRUE(node.submit_block(gen.next_block()));

    const auto tip_before = node.headers().tip_hash();
    const auto utxos_before = node.utxo().size();

    // Branch of 3: valid, then a coinbase overpayment.
    const auto* fork_parent = node.headers().at(10);
    std::vector<chain::Block> branch;
    branch.push_back(empty_block(fork_parent->hash(), 11, options.params, 1));
    chain::Block bad = empty_block(branch[0].header.hash(), 12, options.params, 2);
    bad.txs[0].vout[0].value += 1;  // invalid
    bad.txs[0].invalidate_cache();
    bad.header.merkle_root = bad.compute_merkle_root();
    branch.push_back(bad);
    branch.push_back(empty_block(branch[1].header.hash(), 13, options.params, 3));

    auto outcome = chain::reorg_to(node, branch);
    ASSERT_TRUE(outcome.has_value()) << to_string(outcome.error());
    EXPECT_FALSE(outcome->switched);
    EXPECT_EQ(outcome->branch_failure.error, chain::BlockError::kCoinbaseValueTooHigh);

    // Fully restored.
    EXPECT_EQ(node.next_height(), 12u);
    EXPECT_EQ(node.headers().tip_hash(), tip_before);
    EXPECT_EQ(node.utxo().size(), utxos_before);

    // And functionally restored: the next main-chain block (which spends
    // outputs the rollback had to re-create) still connects.
    auto next = node.submit_block(gen.next_block());
    ASSERT_TRUE(next.has_value()) << next.error().describe();
    EXPECT_EQ(node.next_height(), 13u);
}

TEST(ReorgSwitch, EbvLongerBranchWins) {
    const auto gen_options = switch_gen_options(53);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    SwitchTempDir dir;
    core::EbvNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    core::EbvNode node(options);

    for (int i = 0; i < 15; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        ASSERT_TRUE(node.submit_block(*converted).has_value());
    }

    // Competing EBV branch: two empty blocks forking one below the tip.
    const auto* fork_parent = node.headers().at(13);
    ASSERT_NE(fork_parent, nullptr);
    std::vector<core::EbvBlock> branch;
    crypto::Hash256 parent = fork_parent->hash();
    for (std::uint32_t i = 0; i < 2; ++i) {
        core::EbvBlock block;
        core::EbvTransaction coinbase;
        coinbase.coinbase_data = {static_cast<std::uint8_t>(14 + i), 0x09};
        coinbase.outputs.push_back(
            chain::TxOut{options.params.subsidy_at(14 + i), script::Script{0x51}});
        block.txs.push_back(std::move(coinbase));
        block.header.prev_hash = parent;
        block.assign_stake_positions();
        branch.push_back(block);
        parent = block.header.hash();
    }

    auto outcome = chain::reorg_to(node, branch);
    ASSERT_TRUE(outcome.has_value()) << to_string(outcome.error());
    EXPECT_TRUE(outcome->switched);
    EXPECT_EQ(node.next_height(), 16u);
    EXPECT_EQ(node.headers().tip_hash(), branch.back().header.hash());
    // The replaced block's vector is gone; the branch blocks' exist.
    EXPECT_TRUE(node.status().has_vector(15));
}

TEST(ReorgSwitch, EbvInvalidBranchRollsBack) {
    const auto gen_options = switch_gen_options(59);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    SwitchTempDir dir;
    core::EbvNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    core::EbvNode node(options);

    std::vector<core::EbvBlock> chain_blocks;
    for (int i = 0; i < 12; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        chain_blocks.push_back(*converted);
        ASSERT_TRUE(node.submit_block(chain_blocks.back()).has_value());
    }
    const auto tip_before = node.headers().tip_hash();
    const auto memory_before = node.status_memory_bytes();

    // Branch with an over-paying coinbase in its second block.
    const auto* fork_parent = node.headers().at(10);
    std::vector<core::EbvBlock> branch;
    crypto::Hash256 parent = fork_parent->hash();
    for (std::uint32_t i = 0; i < 2; ++i) {
        core::EbvBlock block;
        core::EbvTransaction coinbase;
        coinbase.coinbase_data = {static_cast<std::uint8_t>(11 + i), 0x0a};
        chain::Amount value = options.params.subsidy_at(11 + i);
        if (i == 1) value += 1;  // invalid
        coinbase.outputs.push_back(chain::TxOut{value, script::Script{0x51}});
        block.txs.push_back(std::move(coinbase));
        block.header.prev_hash = parent;
        block.assign_stake_positions();
        branch.push_back(block);
        parent = block.header.hash();
    }
    // Make it longer than the current chain (needs 2 replacements + 1).
    {
        core::EbvBlock block;
        core::EbvTransaction coinbase;
        coinbase.coinbase_data = {13, 0x0a};
        coinbase.outputs.push_back(
            chain::TxOut{options.params.subsidy_at(13), script::Script{0x51}});
        block.txs.push_back(std::move(coinbase));
        block.header.prev_hash = parent;
        block.assign_stake_positions();
        branch.push_back(block);
    }

    auto outcome = chain::reorg_to(node, branch);
    ASSERT_TRUE(outcome.has_value()) << to_string(outcome.error());
    EXPECT_FALSE(outcome->switched);
    EXPECT_EQ(outcome->branch_failure.error, core::EbvError::kCoinbaseValueTooHigh);
    EXPECT_EQ(node.next_height(), 12u);
    EXPECT_EQ(node.headers().tip_hash(), tip_before);
    EXPECT_EQ(node.status_memory_bytes(), memory_before);

    // Bit-identical restore: a control node that never saw the branch has
    // the same validation status (every era's stake vector).
    SwitchTempDir control_dir;
    core::EbvNodeOptions control_options;
    control_options.params = options.params;
    control_options.data_dir = control_dir.str();
    core::EbvNode control(control_options);
    for (const auto& block : chain_blocks) {
        ASSERT_TRUE(control.submit_block(block).has_value());
    }
    EXPECT_TRUE(node.status() == control.status());

    // And functionally restored: the next honest block still connects.
    auto converted = converter.convert_block(gen.next_block());
    ASSERT_TRUE(converted.has_value());
    ASSERT_TRUE(node.submit_block(*converted).has_value());
    ASSERT_TRUE(control.submit_block(*converted).has_value());
    EXPECT_TRUE(node.status() == control.status());
}

}  // namespace
}  // namespace ebv
