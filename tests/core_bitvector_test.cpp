#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <unistd.h>
#include <vector>

#include "core/bitvector.hpp"
#include "core/bitvector_set.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace ebv::core {
namespace {

TEST(BitVector, AllOnesInitialState) {
    const BitVector v = BitVector::all_ones(13);
    EXPECT_EQ(v.size(), 13u);
    EXPECT_EQ(v.ones(), 13u);
    EXPECT_FALSE(v.none());
    EXPECT_FALSE(v.is_sparse());
    for (std::uint32_t i = 0; i < 13; ++i) EXPECT_TRUE(v.test(i));
    EXPECT_FALSE(v.test(13));
    EXPECT_FALSE(v.test(1000));
}

TEST(BitVector, ResetClearsExactlyOneBit) {
    BitVector v = BitVector::all_ones(10);
    EXPECT_TRUE(v.reset(4));
    EXPECT_FALSE(v.test(4));
    EXPECT_EQ(v.ones(), 9u);
    EXPECT_FALSE(v.reset(4));  // double spend detected
    EXPECT_EQ(v.ones(), 9u);
    EXPECT_FALSE(v.reset(10));  // out of range
}

TEST(BitVector, ZeroSizeVector) {
    const BitVector v = BitVector::all_ones(0);
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.memory_bytes(), v.dense_memory_bytes());
}

TEST(BitVector, BecomesSparseAsOnesDecline) {
    // 1024 bits dense = 128 bytes; sparse pays 2 bytes per surviving one.
    BitVector v = BitVector::all_ones(1024);
    EXPECT_FALSE(v.is_sparse());
    util::Rng rng(1);
    std::set<std::uint32_t> cleared;
    while (v.ones() > 40) {
        const auto i = static_cast<std::uint32_t>(rng.below(1024));
        if (cleared.insert(i).second) EXPECT_TRUE(v.reset(i));
    }
    EXPECT_TRUE(v.is_sparse());
    // Semantics preserved across the conversion.
    for (std::uint32_t i = 0; i < 1024; ++i) {
        EXPECT_EQ(v.test(i), cleared.count(i) == 0) << i;
    }
    EXPECT_LT(v.memory_bytes(), v.dense_memory_bytes());
}

TEST(BitVector, SparseResetStillDetectsDoubleSpend) {
    BitVector v = BitVector::all_ones(512);
    for (std::uint32_t i = 0; i < 500; ++i) EXPECT_TRUE(v.reset(i));
    EXPECT_TRUE(v.is_sparse());
    EXPECT_FALSE(v.reset(100));  // already cleared
    EXPECT_TRUE(v.reset(505));
    EXPECT_FALSE(v.reset(505));
}

class BitVectorSerialization : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitVectorSerialization, RoundTripsAtAnySparsity) {
    const std::uint32_t size = 300;
    BitVector v = BitVector::all_ones(size);
    util::Rng rng(GetParam());
    // Clear a parameterized number of bits to hit dense and sparse forms.
    for (std::uint32_t cleared = 0; cleared < GetParam();) {
        if (v.reset(static_cast<std::uint32_t>(rng.below(size)))) ++cleared;
    }

    util::Writer w;
    v.serialize(w);
    util::Reader r(w.data());
    auto decoded = BitVector::deserialize(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(decoded->ones(), v.ones());
    EXPECT_EQ(decoded->is_sparse(), v.is_sparse());
    EXPECT_TRUE(r.empty());
}

INSTANTIATE_TEST_SUITE_P(Sparsities, BitVectorSerialization,
                         ::testing::Values(0, 1, 10, 100, 250, 290, 299));

TEST(BitVector, DeserializeRejectsBadPadding) {
    // size=9 bits in dense form = 2 bytes; the top 7 bits of byte 1 must be 0.
    util::Writer w;
    w.u8(0);      // dense flag
    w.u16(9);     // size
    w.u8(0xff);
    w.u8(0xff);   // illegal padding bits
    util::Reader r(w.data());
    EXPECT_FALSE(BitVector::deserialize(r).has_value());
}

TEST(BitVector, DeserializeRejectsUnsortedSparse) {
    util::Writer w;
    w.u8(1);    // sparse flag
    w.u16(50);  // size
    w.u16(2);   // two indexes
    w.u16(9);
    w.u16(4);   // descending: malformed
    util::Reader r(w.data());
    EXPECT_FALSE(BitVector::deserialize(r).has_value());
}

TEST(BitVectorSet, InsertSpendDeleteLifecycle) {
    BitVectorSet set;
    set.insert_block(0, 3);
    EXPECT_TRUE(set.has_vector(0));
    EXPECT_TRUE(set.check_unspent(0, 2).has_value());

    EXPECT_TRUE(set.spend(0, 0).has_value());
    EXPECT_TRUE(set.spend(0, 1).has_value());
    EXPECT_TRUE(set.has_vector(0));
    EXPECT_TRUE(set.spend(0, 2).has_value());
    // Fully spent: vector deleted (§IV-E1).
    EXPECT_FALSE(set.has_vector(0));
    EXPECT_EQ(set.memory_bytes(), 0u);

    auto r = set.spend(0, 0);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error(), UvError::kUnknownHeight);
}

TEST(BitVectorSet, UvErrorTaxonomy) {
    BitVectorSet set;
    set.insert_block(5, 4);

    auto unknown = set.check_unspent(6, 0);
    ASSERT_FALSE(unknown.has_value());
    EXPECT_EQ(unknown.error(), UvError::kUnknownHeight);

    auto range = set.check_unspent(5, 4);
    ASSERT_FALSE(range.has_value());
    EXPECT_EQ(range.error(), UvError::kIndexOutOfRange);

    ASSERT_TRUE(set.spend(5, 1).has_value());
    auto spent = set.check_unspent(5, 1);
    ASSERT_FALSE(spent.has_value());
    EXPECT_EQ(spent.error(), UvError::kAlreadySpent);
}

TEST(BitVectorSet, MemoryAccountingTracksOptimization) {
    BitVectorSet set;
    set.insert_block(0, 4096);
    const auto dense_before = set.memory_bytes();
    EXPECT_EQ(set.memory_bytes(), set.dense_memory_bytes());

    // Spend most outputs: the optimized total must drop below dense.
    for (std::uint32_t i = 0; i < 4000; ++i) ASSERT_TRUE(set.spend(0, i).has_value());
    EXPECT_LT(set.memory_bytes(), dense_before);
    EXPECT_LT(set.memory_bytes(), set.dense_memory_bytes());
}

TEST(BitVectorSet, SaveLoadRoundTrip) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("ebv_bvs_" + std::to_string(::getpid()) + ".bin"))
            .string();

    BitVectorSet set;
    util::Rng rng(3);
    for (std::uint32_t h = 0; h < 20; ++h) {
        set.insert_block(h, static_cast<std::uint32_t>(rng.between(1, 600)));
    }
    for (int i = 0; i < 2000; ++i) {
        const auto h = static_cast<std::uint32_t>(rng.below(20));
        if (!set.has_vector(h)) continue;
        (void)set.spend(h, static_cast<std::uint32_t>(rng.below(600)));
    }

    ASSERT_TRUE(set.save(path));
    auto loaded = BitVectorSet::load(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, set);
    EXPECT_EQ(loaded->memory_bytes(), set.memory_bytes());
    EXPECT_EQ(loaded->dense_memory_bytes(), set.dense_memory_bytes());
}

TEST(BitVectorSet, FailedSaveLeavesPreviousFileIntact) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("ebv_bvs_atomic_" + std::to_string(::getpid()) + ".bin"))
            .string();
    BitVectorSet set;
    set.insert_block(0, 10);
    ASSERT_TRUE(set.save(path));
    const auto before = util::read_file(path);
    ASSERT_TRUE(before.has_value());

    // The temp file cannot be created: its name is an existing directory.
    set.insert_block(1, 3);
    std::filesystem::create_directory(path + ".tmp");
    EXPECT_FALSE(set.save(path));
    std::filesystem::remove(path + ".tmp");

    const auto after = util::read_file(path);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, *before);
    const auto loaded = BitVectorSet::load(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->has_vector(0));
    EXPECT_FALSE(loaded->has_vector(1));
}

TEST(BitVectorSet, LoadRejectsTrailingByte) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("ebv_bvs_trailing_" + std::to_string(::getpid()) + ".bin"))
            .string();
    BitVectorSet set;
    set.insert_block(0, 10);
    set.insert_block(1, 3);
    ASSERT_TRUE(set.spend(0, 4).has_value());
    ASSERT_TRUE(set.save(path));
    ASSERT_TRUE(BitVectorSet::load(path).has_value());

    {
        std::FILE* f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputc(0, f);
        std::fclose(f);
    }
    const auto loaded = BitVectorSet::load(path);
    std::filesystem::remove(path);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.error(), util::DecodeError::kMalformed);
}

TEST(BitVectorSet, LoadRejectsUnreadablePaths) {
    // A directory opens, but its size via ftell is LONG_MAX on common file
    // systems: load must fail cleanly instead of allocating it.
    const auto dir = BitVectorSet::load(std::filesystem::temp_directory_path().string());
    ASSERT_FALSE(dir.has_value());
    EXPECT_EQ(dir.error(), util::DecodeError::kTruncated);

    const auto missing = BitVectorSet::load(
        (std::filesystem::temp_directory_path() / "ebv_bvs_no_such_file.bin").string());
    ASSERT_FALSE(missing.has_value());
    EXPECT_EQ(missing.error(), util::DecodeError::kTruncated);
}

// ---- Spends at scale ---------------------------------------------------------

/// Random fixture: 32 blocks, ~2000 distinct spends, including one block
/// spent down to deletion.
struct SpendFixture {
    std::vector<std::uint32_t> sizes;
    std::vector<BitVectorSet::SpentRecord> spends;

    SpendFixture() {
        util::Rng rng(11);
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (std::uint32_t h = 0; h < 32; ++h)
            sizes.push_back(static_cast<std::uint32_t>(rng.between(1, 300)));
        for (int i = 0; i < 4000; ++i) {
            const auto h = static_cast<std::uint32_t>(rng.below(32));
            const auto p = static_cast<std::uint32_t>(rng.below(sizes[h]));
            if (seen.emplace(h, p).second) spends.push_back({h, p});
        }
        // Fully spend block 7 so the spends exercise vector deletion.
        for (std::uint32_t p = 0; p < sizes[7]; ++p) {
            if (seen.emplace(7u, p).second) spends.push_back({7u, p});
        }
    }
};

TEST(BitVectorSet, RandomSpendsRoundTripAndDeleteEmptiedVectors) {
    const SpendFixture fx;
    BitVectorSet set;
    for (std::uint32_t h = 0; h < fx.sizes.size(); ++h) set.insert_block(h, fx.sizes[h]);
    for (const auto& s : fx.spends) ASSERT_TRUE(set.spend(s.height, s.position).has_value());
    for (const auto& s : fx.spends)
        EXPECT_FALSE(set.check_unspent(s.height, s.position).has_value());
    std::vector<std::uint32_t> spent(fx.sizes.size(), 0);
    for (const auto& s : fx.spends) ++spent[s.height];
    for (std::uint32_t h = 0; h < fx.sizes.size(); ++h)
        EXPECT_EQ(set.has_vector(h), spent[h] < fx.sizes[h]) << "height " << h;
    EXPECT_FALSE(set.has_vector(7));  // fully spent -> deleted

    util::Writer w;
    set.serialize(w);
    util::Reader r(w.data());
    const auto copy = BitVectorSet::deserialize(r);
    ASSERT_TRUE(copy.has_value());
    EXPECT_TRUE(r.empty());
    EXPECT_TRUE(*copy == set);
    EXPECT_EQ(copy->memory_bytes(), set.memory_bytes());
    EXPECT_EQ(copy->dense_memory_bytes(), set.dense_memory_bytes());
    EXPECT_FALSE(copy->has_vector(7));
}

}  // namespace
}  // namespace ebv::core
