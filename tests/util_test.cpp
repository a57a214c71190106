#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "util/env.hpp"
#include "util/hex.hpp"
#include "util/lru.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace ebv::util {
namespace {

TEST(Hex, EncodeDecodeRoundTrip) {
    const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
    const std::string hex = hex_encode(data);
    EXPECT_EQ(hex, "0001abff7f");
    const auto decoded = hex_decode(hex);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
}

TEST(Hex, DecodeAcceptsUppercase) {
    const auto decoded = hex_decode("ABCDEF");
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, (Bytes{0xab, 0xcd, 0xef}));
}

TEST(Hex, DecodeRejectsMalformed) {
    EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
    EXPECT_FALSE(hex_decode("zz").has_value());    // non-hex
    EXPECT_TRUE(hex_decode("").has_value());       // empty is valid
}

TEST(Serialize, FixedWidthRoundTrip) {
    Writer w;
    w.u8(0x12);
    w.u16(0x3456);
    w.u32(0x789abcde);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);

    Reader r(w.data());
    EXPECT_EQ(r.u8().value(), 0x12);
    EXPECT_EQ(r.u16().value(), 0x3456);
    EXPECT_EQ(r.u32().value(), 0x789abcdeu);
    EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64().value(), -42);
    EXPECT_TRUE(r.empty());
}

TEST(Serialize, ReadPastEndIsTruncated) {
    Writer w;
    w.u16(7);
    Reader r(w.data());
    EXPECT_TRUE(r.u8().has_value());
    auto v = r.u32();
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error(), DecodeError::kTruncated);
}

class CompactSizeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompactSizeRoundTrip, RoundTrips) {
    Writer w;
    w.compact_size(GetParam());
    Reader r(w.data());
    auto v = r.compact_size();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, GetParam());
    EXPECT_TRUE(r.empty());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, CompactSizeRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 0xfcULL, 0xfdULL, 0xffffULL,
                                           0x10000ULL, 0xffffffffULL, 0x100000000ULL,
                                           0xffffffffffffffffULL));

TEST(Serialize, NonCanonicalCompactSizeRejected) {
    // 0xfd prefix encoding a value that fits in one byte.
    const Bytes evil = {0xfd, 0x10, 0x00};
    Reader r(evil);
    auto v = r.compact_size();
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error(), DecodeError::kNonCanonical);
}

TEST(Serialize, VarBytesHonorsLimit) {
    Writer w;
    w.var_bytes(Bytes(100, 0xaa));
    Reader r(w.data());
    auto v = r.var_bytes(/*limit=*/10);
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error(), DecodeError::kOversizedField);
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const auto v = rng.between(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, Uniform01InUnitInterval) {
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyRight) {
    Rng rng(11);
    double sum = 0;
    const int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) sum += static_cast<double>(rng.geometric_at_least_one(3.0));
    EXPECT_NEAR(sum / kSamples, 3.0, 0.15);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
    LruMap<int, std::string> lru(3);
    lru.put(1, "a", 1);
    lru.put(2, "b", 1);
    lru.put(3, "c", 1);
    ASSERT_NE(lru.get(1), nullptr);  // refresh 1
    lru.put(4, "d", 1);              // evicts 2
    EXPECT_EQ(lru.get(2), nullptr);
    EXPECT_NE(lru.get(1), nullptr);
    EXPECT_NE(lru.get(3), nullptr);
    EXPECT_NE(lru.get(4), nullptr);
}

TEST(Lru, CostAccountingDrivesEviction) {
    LruMap<int, int> lru(100);
    lru.put(1, 10, 60);
    lru.put(2, 20, 60);  // total 120 > 100, evicts 1
    EXPECT_EQ(lru.get(1), nullptr);
    EXPECT_NE(lru.get(2), nullptr);
    EXPECT_EQ(lru.total_cost(), 60u);
}

TEST(Lru, EvictionHandlerObservesWriteBack) {
    std::vector<int> evicted;
    LruMap<int, int> lru(2);
    lru.set_eviction_handler([&](const int& k, int&) { evicted.push_back(k); });
    lru.put(1, 1, 1);
    lru.put(2, 2, 1);
    lru.put(3, 3, 1);
    EXPECT_EQ(evicted, (std::vector<int>{1}));
    lru.clear();
    EXPECT_EQ(evicted.size(), 3u);
}

TEST(Lru, OversizedSingleEntryStaysResident) {
    LruMap<int, int> lru(10);
    lru.put(1, 1, 100);  // over budget but must stay usable
    EXPECT_NE(lru.get(1), nullptr);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                       if (i == 57) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(Env, ThreadSweepCountsAreSortedAndDeduplicated) {
    using Counts = std::vector<std::size_t>;
    // Bench sweeps must never emit two rows for one thread count, even when
    // hardware_concurrency or EBV_THREADS collides with the {1,2,4} base.
    EXPECT_EQ(thread_sweep_counts(0, 0), (Counts{1, 2, 4}));
    EXPECT_EQ(thread_sweep_counts(4, 0), (Counts{1, 2, 4}));
    EXPECT_EQ(thread_sweep_counts(1, 2), (Counts{1, 2, 4}));
    EXPECT_EQ(thread_sweep_counts(8, 0), (Counts{1, 2, 4, 8}));
    EXPECT_EQ(thread_sweep_counts(8, 8), (Counts{1, 2, 4, 8}));
    EXPECT_EQ(thread_sweep_counts(8, 16), (Counts{1, 2, 4, 8, 16}));
    EXPECT_EQ(thread_sweep_counts(16, 8), (Counts{1, 2, 4, 8, 16}));
    EXPECT_EQ(thread_sweep_counts(3, 6), (Counts{1, 2, 3, 4, 6}));
}

TEST(Env, ByteBudgetMustBeWholeDecimal) {
    constexpr std::size_t kFallback = 777;
    EXPECT_EQ(parse_bytes("123", kFallback), 123u);
    EXPECT_EQ(parse_bytes("0", kFallback), 0u);
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    EXPECT_EQ(parse_bytes(std::to_string(kMax).c_str(), kFallback), kMax);
    // Unset, empty, trailing garbage, signs, spaces and overflow all keep
    // the default.
    EXPECT_EQ(parse_bytes(nullptr, kFallback), kFallback);
    EXPECT_EQ(parse_bytes("", kFallback), kFallback);
    EXPECT_EQ(parse_bytes("123abc", kFallback), kFallback);
    EXPECT_EQ(parse_bytes("64M", kFallback), kFallback);
    EXPECT_EQ(parse_bytes("-1", kFallback), kFallback);
    EXPECT_EQ(parse_bytes("+5", kFallback), kFallback);
    EXPECT_EQ(parse_bytes(" 5", kFallback), kFallback);
    EXPECT_EQ(parse_bytes("5 ", kFallback), kFallback);
    EXPECT_EQ(parse_bytes((std::to_string(kMax) + "0").c_str(), kFallback), kFallback);

    ::setenv("PARSE_BYTES_TEST_VALUE", "4096", 1);
    EXPECT_EQ(env_bytes("PARSE_BYTES_TEST_VALUE", kFallback), 4096u);
    ::setenv("PARSE_BYTES_TEST_VALUE", "4096k", 1);
    EXPECT_EQ(env_bytes("PARSE_BYTES_TEST_VALUE", kFallback), kFallback);
    ::unsetenv("PARSE_BYTES_TEST_VALUE");
    EXPECT_EQ(env_bytes("PARSE_BYTES_TEST_VALUE", kFallback), kFallback);
}

}  // namespace
}  // namespace ebv::util
