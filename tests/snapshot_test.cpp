// EBV node snapshot persistence: a restarted node resumes from the saved
// headers + bit-vector set and behaves identically to the original.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "core/node.hpp"
#include "intermediary/converter.hpp"
#include "util/serialize.hpp"
#include "workload/generator.hpp"

namespace ebv::core {
namespace {

std::string snapshot_path() {
    return (std::filesystem::temp_directory_path() /
            ("ebv_snapshot_" + std::to_string(::getpid()) + ".bin"))
        .string();
}

TEST(Snapshot, SaveLoadResumesChain) {
    workload::GeneratorOptions gen_options;
    gen_options.seed = 23;
    gen_options.params.coinbase_maturity = 5;
    gen_options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    gen_options.height_scale = 1.0;
    gen_options.intensity = 1.0;
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    EbvNodeOptions options;
    options.params = gen_options.params;
    EbvNode node(options);

    std::vector<EbvBlock> blocks;
    for (int i = 0; i < 30; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        blocks.push_back(*converted);
    }
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(node.submit_block(blocks[i]).has_value());

    const std::string path = snapshot_path();
    ASSERT_TRUE(node.save_snapshot(path));

    auto restored = EbvNode::load_snapshot(path, options);
    std::filesystem::remove(path);
    ASSERT_TRUE(restored.has_value());

    EXPECT_EQ((*restored)->next_height(), 20u);
    EXPECT_EQ((*restored)->headers().tip_hash(), node.headers().tip_hash());
    EXPECT_EQ((*restored)->status(), node.status());
    EXPECT_EQ((*restored)->status_memory_bytes(), node.status_memory_bytes());

    // Both continue accepting the remaining chain identically.
    for (int i = 20; i < 30; ++i) {
        ASSERT_TRUE(node.submit_block(blocks[i]).has_value()) << i;
        ASSERT_TRUE((*restored)->submit_block(blocks[i]).has_value()) << i;
    }
    EXPECT_EQ((*restored)->status(), node.status());

    // And the restored node can disconnect (output counts were restored).
    EXPECT_TRUE((*restored)->disconnect_tip(blocks[29]));
}

TEST(Snapshot, CorruptSnapshotRejected) {
    workload::GeneratorOptions gen_options;
    gen_options.seed = 29;
    gen_options.params.coinbase_maturity = 5;
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    EbvNodeOptions options;
    options.params = gen_options.params;
    EbvNode node(options);
    for (int i = 0; i < 5; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        ASSERT_TRUE(node.submit_block(*converted).has_value());
    }

    const std::string path = snapshot_path();
    ASSERT_TRUE(node.save_snapshot(path));

    // Truncate the file: load must fail cleanly.
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(EbvNode::load_snapshot(path, options).has_value());
    std::filesystem::remove(path);

    EXPECT_FALSE(EbvNode::load_snapshot("/nonexistent/snapshot", options).has_value());
}

TEST(Snapshot, FailedSaveLeavesPreviousSnapshotIntact) {
    workload::GeneratorOptions gen_options;
    gen_options.seed = 29;
    gen_options.params.coinbase_maturity = 5;
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    EbvNodeOptions options;
    options.params = gen_options.params;
    EbvNode node(options);
    for (int i = 0; i < 8; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        ASSERT_TRUE(node.submit_block(*converted).has_value());
        if (i == 4) ASSERT_TRUE(node.save_snapshot(snapshot_path()));
    }
    const std::string path = snapshot_path();
    const util::Result<util::Bytes, util::DecodeError> before = util::read_file(path);
    ASSERT_TRUE(before.has_value());

    // The temp file cannot be created: its name is an existing directory.
    std::filesystem::create_directory(path + ".tmp");
    EXPECT_FALSE(node.save_snapshot(path));
    EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp"));
    std::filesystem::remove(path + ".tmp");

    const util::Result<util::Bytes, util::DecodeError> after = util::read_file(path);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, *before);
    auto restored = EbvNode::load_snapshot(path, options);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ((*restored)->next_height(), 5u);

    // With the obstruction gone the save goes through, and leaves no temp.
    ASSERT_TRUE(node.save_snapshot(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    auto latest = EbvNode::load_snapshot(path, options);
    std::filesystem::remove(path);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ((*latest)->next_height(), 8u);
}

/// A five-block node plus its snapshot split into the header section and
/// the bit-vector set, so each hostile case can swap in its own set bytes.
class HostileSnapshot : public ::testing::Test {
protected:
    void SetUp() override {
        workload::GeneratorOptions gen_options;
        gen_options.seed = 29;
        gen_options.params.coinbase_maturity = 5;
        workload::ChainGenerator gen(gen_options);
        intermediary::Converter converter;
        options_.params = gen_options.params;
        node_ = std::make_unique<EbvNode>(options_);
        for (int i = 0; i < 5; ++i) {
            auto converted = converter.convert_block(gen.next_block());
            ASSERT_TRUE(converted.has_value());
            ASSERT_TRUE(node_->submit_block(*converted).has_value());
            output_counts_.push_back(static_cast<std::uint32_t>(converted->output_count()));
        }
        ASSERT_TRUE(node_->save_snapshot(path_));
        std::ifstream in(path_, std::ios::binary);
        util::Bytes file{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
        util::Writer status;
        node_->status().serialize(status);
        ASSERT_GT(file.size(), status.size());
        headers_.assign(file.begin(), file.end() - static_cast<std::ptrdiff_t>(status.size()));
    }
    void TearDown() override { std::filesystem::remove(path_); }

    /// Load a snapshot made of the real header section followed by `tail`.
    util::Result<std::unique_ptr<EbvNode>, util::DecodeError> load_with(
        const util::Bytes& tail) {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(headers_.data()),
                  static_cast<std::streamsize>(headers_.size()));
        out.write(reinterpret_cast<const char*>(tail.data()),
                  static_cast<std::streamsize>(tail.size()));
        out.close();
        return EbvNode::load_snapshot(path_, options_);
    }
    static util::Bytes bytes_of(const BitVectorSet& set) {
        util::Writer w;
        set.serialize(w);
        return w.data();
    }
    void expect_malformed(const util::Bytes& tail) {
        auto loaded = load_with(tail);
        ASSERT_FALSE(loaded.has_value());
        EXPECT_EQ(loaded.error(), util::DecodeError::kMalformed);
    }

    const std::string path_ = snapshot_path();
    EbvNodeOptions options_;
    std::unique_ptr<EbvNode> node_;
    std::vector<std::uint32_t> output_counts_;
    util::Bytes headers_;
};

TEST_F(HostileSnapshot, UntouchedSetLoads) {
    auto loaded = load_with(bytes_of(node_->status()));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ((*loaded)->status(), node_->status());
}

TEST_F(HostileSnapshot, TrailingBytesRejected) {
    util::Bytes tail = bytes_of(node_->status());
    tail.push_back(0);
    expect_malformed(tail);
}

TEST_F(HostileSnapshot, VectorBeyondHeaderCountRejected) {
    BitVectorSet set = node_->status();
    set.insert_block(static_cast<std::uint32_t>(output_counts_.size()), 1);
    expect_malformed(bytes_of(set));
}

TEST_F(HostileSnapshot, VectorSizeMismatchRejected) {
    // The tip's outputs are all unspent, so its vector is present.
    const auto tip = static_cast<std::uint32_t>(output_counts_.size() - 1);
    BitVectorSet set = node_->status();
    ASSERT_TRUE(set.has_vector(tip));
    set.remove_block(tip);
    set.insert_block(tip, output_counts_[tip] + 1);
    expect_malformed(bytes_of(set));
}

TEST_F(HostileSnapshot, DuplicateHeightRejected) {
    util::Writer w;
    w.u64(2);
    for (int i = 0; i < 2; ++i) {
        w.u32(0);
        BitVector::all_ones(output_counts_[0]).serialize(w);
    }
    expect_malformed(w.data());
}

}  // namespace
}  // namespace ebv::core
