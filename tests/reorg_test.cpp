// Reorg support: disconnecting blocks restores both status representations
// exactly, and an alternative branch connects cleanly afterwards.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "core/node.hpp"
#include "intermediary/converter.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

namespace fs = std::filesystem;

class ReorgTempDir {
public:
    ReorgTempDir() {
        path_ = fs::temp_directory_path() /
                ("ebv_reorg_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~ReorgTempDir() { fs::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    fs::path path_;
    static inline int counter_ = 0;
};

workload::GeneratorOptions reorg_gen_options(std::uint64_t seed) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

TEST(Reorg, UndoDataRoundTrips) {
    chain::BlockUndo undo;
    undo.txs.resize(2);
    undo.txs[0].spent_coins.push_back(chain::Coin{100, 5, false, script::Script{0x51}});
    undo.txs[1].spent_coins.push_back(chain::Coin{7, 2, true, script::Script{0x52, 0x53}});
    undo.txs[1].spent_coins.push_back(chain::Coin{9, 3, false, {}});

    util::Writer w;
    undo.serialize(w);
    util::Reader r(w.data());
    auto decoded = chain::BlockUndo::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, undo);
}

TEST(Reorg, BaselineDisconnectRestoresUtxoSet) {
    const auto gen_options = reorg_gen_options(11);
    workload::ChainGenerator gen(gen_options);

    ReorgTempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);

    std::vector<chain::Block> blocks;
    for (int i = 0; i < 25; ++i) {
        blocks.push_back(gen.next_block());
        ASSERT_TRUE(node.submit_block(blocks.back()).has_value()) << i;
    }

    const auto size_at_23 = [&] {
        // Snapshot the set size after 23 blocks by replaying on a fresh
        // node (cheap at this scale, exact by construction).
        chain::BitcoinNodeOptions fresh_options;
        fresh_options.params = gen_options.params;
        chain::BitcoinNode fresh(fresh_options);
        for (int i = 0; i < 23; ++i) EXPECT_TRUE(fresh.submit_block(blocks[i]).has_value());
        return std::pair{fresh.utxo().size(), fresh.status_payload_bytes()};
    }();

    ASSERT_TRUE(node.disconnect_tip(blocks[24]));
    ASSERT_TRUE(node.disconnect_tip(blocks[23]));
    EXPECT_EQ(node.next_height(), 23u);
    EXPECT_EQ(node.utxo().size(), size_at_23.first);
    EXPECT_EQ(node.status_payload_bytes(), size_at_23.second);

    // The disconnected blocks reconnect cleanly (same branch re-applied).
    ASSERT_TRUE(node.submit_block(blocks[23]).has_value());
    ASSERT_TRUE(node.submit_block(blocks[24]).has_value());
    EXPECT_EQ(node.next_height(), 25u);
}

TEST(Reorg, BaselineAlternativeBranchConnects) {
    // Two generators diverge after a common prefix (same seed, different
    // continuation seeds are emulated by differing blocks after the fork).
    const auto gen_options = reorg_gen_options(13);
    workload::ChainGenerator gen(gen_options);

    ReorgTempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);

    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(node.submit_block(gen.next_block()).has_value());
    }
    const chain::Block original_tip = gen.next_block();
    ASSERT_TRUE(node.submit_block(original_tip).has_value());

    // Competing tip: empty block on the same parent.
    ASSERT_TRUE(node.disconnect_tip(original_tip));
    chain::Block alternative = chain::assemble_block(
        node.headers().tip_hash(),
        chain::make_coinbase(node.next_height(),
                             options.params.subsidy_at(node.next_height()),
                             script::Script{0x51}, /*extra_nonce=*/999),
        {}, /*time=*/123456);
    auto result = node.submit_block(alternative);
    ASSERT_TRUE(result.has_value()) << result.error().describe();
    EXPECT_EQ(node.headers().tip_hash(), alternative.header.hash());
}

TEST(Reorg, EbvDisconnectRestoresBitVectors) {
    const auto gen_options = reorg_gen_options(17);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    core::EbvNodeOptions options;
    options.params = gen_options.params;
    core::EbvNode node(options);

    std::vector<core::EbvBlock> blocks;
    for (int i = 0; i < 25; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        blocks.push_back(*converted);
        ASSERT_TRUE(node.submit_block(blocks.back()).has_value()) << i;
    }

    // Reference state after 23 blocks.
    core::EbvNode reference(options);
    for (int i = 0; i < 23; ++i) ASSERT_TRUE(reference.submit_block(blocks[i]).has_value());

    ASSERT_TRUE(node.disconnect_tip(blocks[24]));
    ASSERT_TRUE(node.disconnect_tip(blocks[23]));
    EXPECT_EQ(node.next_height(), 23u);
    EXPECT_EQ(node.status(), reference.status());
    EXPECT_EQ(node.status_memory_bytes(), reference.status_memory_bytes());
    EXPECT_EQ(node.headers().tip_hash(), reference.headers().tip_hash());

    // Wrong block for the tip is refused.
    EXPECT_FALSE(node.disconnect_tip(blocks[24]));

    // Reconnect the same branch.
    ASSERT_TRUE(node.submit_block(blocks[23]).has_value());
    ASSERT_TRUE(node.submit_block(blocks[24]).has_value());
    EXPECT_EQ(node.next_height(), 25u);
}

TEST(Reorg, EbvUnspendRecreatesDeletedVector) {
    core::BitVectorSet set;
    set.insert_block(0, 3);
    ASSERT_TRUE(set.spend(0, 0).has_value());
    ASSERT_TRUE(set.spend(0, 1).has_value());
    ASSERT_TRUE(set.spend(0, 2).has_value());
    ASSERT_FALSE(set.has_vector(0));  // deleted as fully spent

    // Reorg un-spends position 1: the vector reappears with only that bit.
    EXPECT_TRUE(set.unspend(0, 1, 3));
    ASSERT_TRUE(set.has_vector(0));
    EXPECT_TRUE(set.check_unspent(0, 1).has_value());
    EXPECT_FALSE(set.check_unspent(0, 0).has_value());
    EXPECT_FALSE(set.check_unspent(0, 2).has_value());

    // Un-spending an already-unspent bit reports false.
    EXPECT_FALSE(set.unspend(0, 1, 3));
}

TEST(Reorg, BitVectorSetRoundTripsThroughSparseForms) {
    core::BitVectorSet set;
    set.insert_block(7, 2000);
    // Spend most of it (goes sparse), then un-spend everything back.
    for (std::uint32_t i = 0; i < 1990; ++i) ASSERT_TRUE(set.spend(7, i).has_value());
    const auto sparse_bytes = set.memory_bytes();
    EXPECT_LT(sparse_bytes, set.dense_memory_bytes());

    for (std::uint32_t i = 0; i < 1990; ++i) EXPECT_TRUE(set.unspend(7, i, 2000));
    for (std::uint32_t i = 0; i < 2000; ++i) {
        EXPECT_TRUE(set.check_unspent(7, i).has_value()) << i;
    }
    // Fully restored: dense again and the same footprint as a fresh vector.
    core::BitVectorSet fresh;
    fresh.insert_block(7, 2000);
    EXPECT_EQ(set.memory_bytes(), fresh.memory_bytes());
}

}  // namespace
}  // namespace ebv
