#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unistd.h>

#include "storage/disk_hash_table.hpp"
#include "storage/flat_store.hpp"
#include "storage/mem_kvstore.hpp"
#include "storage/status_db.hpp"
#include "util/rng.hpp"

namespace ebv::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
    TempDir() {
        path_ = fs::temp_directory_path() /
                ("ebv_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    [[nodiscard]] std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    fs::path path_;
    static inline int counter_ = 0;
};

util::Bytes key_of(int i) {
    util::Bytes k(8);
    const auto v = static_cast<std::uint64_t>(i);
    for (int b = 0; b < 8; ++b) k[b] = static_cast<std::uint8_t>(v >> (8 * b));
    return k;
}

TEST(MemKvStore, BasicOperations) {
    MemKvStore store;
    EXPECT_FALSE(store.get(key_of(1)).has_value());
    store.put(key_of(1), util::Bytes{10});
    const auto v = store.get(key_of(1));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, util::Bytes{10});
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.erase(key_of(1)));
    EXPECT_FALSE(store.erase(key_of(1)));
    EXPECT_EQ(store.size(), 0u);
}

TEST(MemKvStore, PayloadAccounting) {
    MemKvStore store;
    store.put(key_of(1), util::Bytes(100, 0));
    EXPECT_EQ(store.payload_bytes(), 108u);
    store.put(key_of(1), util::Bytes(50, 0));  // overwrite shrinks
    EXPECT_EQ(store.payload_bytes(), 58u);
    store.erase(key_of(1));
    EXPECT_EQ(store.payload_bytes(), 0u);
}

TEST(MemKvStore, StatsCounting) {
    MemKvStore store;
    store.put(key_of(1), util::Bytes{1});
    store.get(key_of(1));
    store.get(key_of(2));
    store.erase(key_of(1));
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_EQ(store.stats().fetches, 2u);
    EXPECT_EQ(store.stats().fetch_misses, 1u);
    EXPECT_EQ(store.stats().deletes, 1u);
}

TEST(PagedFile, ReadBeyondEofIsZeros) {
    TempDir dir;
    PagedFile file(dir.file("pages.bin"));
    std::array<std::uint8_t, PagedFile::kPageSize> buf{};
    buf.fill(0xaa);
    file.read_page(7, buf);
    for (auto b : buf) EXPECT_EQ(b, 0);
}

TEST(PagedFile, WriteReadRoundTrip) {
    TempDir dir;
    PagedFile file(dir.file("pages.bin"));
    std::array<std::uint8_t, PagedFile::kPageSize> out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(i);
    file.write_page(3, out);
    EXPECT_EQ(file.page_count(), 4u);

    std::array<std::uint8_t, PagedFile::kPageSize> in{};
    file.read_page(3, in);
    EXPECT_EQ(in, out);
}

TEST(PageCache, HitsAndMissesCounted) {
    TempDir dir;
    PagedFile file(dir.file("pages.bin"));
    util::SimTimeLedger ledger;
    PageCache cache(file, 1 << 20, LatencyModel(DeviceProfile::none(), 1), ledger);

    cache.page(0);
    cache.page(0);
    cache.page(1);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PageCache, EvictionWritesBackDirtyPages) {
    TempDir dir;
    util::SimTimeLedger ledger;
    {
        PagedFile file(dir.file("pages.bin"));
        // Budget for ~2 pages.
        PageCache cache(file, 2 * (PagedFile::kPageSize + 96), LatencyModel({}, 1), ledger);
        auto& p0 = cache.page(0);
        p0.data[0] = 0x42;
        p0.dirty = true;
        cache.mark_dirty(0);
        cache.page(1);
        cache.page(2);  // evicts page 0, which must be written back
        EXPECT_GE(cache.stats().write_backs, 0u);  // may already have happened
        auto& p0_again = cache.page(0);
        EXPECT_EQ(p0_again.data[0], 0x42);
    }
}

TEST(PageCache, LatencyChargedOnMiss) {
    TempDir dir;
    PagedFile file(dir.file("pages.bin"));
    util::SimTimeLedger ledger;
    PageCache cache(file, 1 << 20, LatencyModel(DeviceProfile::hdd(), 1), ledger);

    cache.page(0);  // miss: charges an HDD read
    const auto after_miss = ledger.total_ns();
    EXPECT_GE(after_miss, 4'000'000);  // at least the base seek
    cache.page(0);  // hit: free
    EXPECT_EQ(ledger.total_ns(), after_miss);
}

TEST(DiskHashTable, PutGetEraseBasic) {
    TempDir dir;
    DiskHashTable::Options options;
    options.initial_buckets = 4;
    DiskHashTable table(dir.file("db"), options);

    table.put(key_of(1), util::Bytes{1, 2, 3});
    const auto v = table.get(key_of(1));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, (util::Bytes{1, 2, 3}));
    EXPECT_EQ(table.size(), 1u);

    table.put(key_of(1), util::Bytes{9});  // overwrite
    EXPECT_EQ(*table.get(key_of(1)), util::Bytes{9});
    EXPECT_EQ(table.size(), 1u);

    EXPECT_TRUE(table.erase(key_of(1)));
    EXPECT_FALSE(table.get(key_of(1)).has_value());
    EXPECT_EQ(table.size(), 0u);
}

TEST(DiskHashTable, OverflowChainsWork) {
    TempDir dir;
    DiskHashTable::Options options;
    options.initial_buckets = 1;
    options.target_entries_per_bucket = 1000000;  // never split: forces overflow chains
    DiskHashTable table(dir.file("db"), options);

    const int n = 500;  // needs multiple overflow pages
    for (int i = 0; i < n; ++i) table.put(key_of(i), util::Bytes(20, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(table.size(), static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
        const auto v = table.get(key_of(i));
        ASSERT_TRUE(v.has_value()) << i;
        EXPECT_EQ((*v)[0], static_cast<std::uint8_t>(i));
    }
    // Delete all; empty overflow pages are recycled via the free list.
    for (int i = 0; i < n; ++i) EXPECT_TRUE(table.erase(key_of(i)));
    EXPECT_EQ(table.size(), 0u);
    // Re-insert reuses freed pages rather than growing the file.
    const auto pages_before = table.file_pages();
    for (int i = 0; i < n; ++i) table.put(key_of(i), util::Bytes(20, 1));
    EXPECT_LE(table.file_pages(), pages_before + 1);
}

TEST(DiskHashTable, PersistsAcrossReopen) {
    TempDir dir;
    DiskHashTable::Options options;
    options.initial_buckets = 4;
    {
        DiskHashTable table(dir.file("db"), options);
        for (int i = 0; i < 100; ++i) table.put(key_of(i), util::Bytes{static_cast<std::uint8_t>(i)});
        table.flush();
    }
    {
        DiskHashTable table(dir.file("db"), options);
        EXPECT_EQ(table.size(), 100u);
        EXPECT_EQ(table.payload_bytes(), 100u * 9);
        for (int i = 0; i < 100; ++i) {
            const auto v = table.get(key_of(i));
            ASSERT_TRUE(v.has_value()) << i;
            EXPECT_EQ((*v)[0], static_cast<std::uint8_t>(i));
        }
    }
}

TEST(DiskHashTable, RandomizedAgainstModel) {
    TempDir dir;
    DiskHashTable::Options options;
    options.initial_buckets = 4;
    options.target_entries_per_bucket = 8;  // force frequent splits
    options.cache_budget_bytes = 8 * PagedFile::kPageSize;  // force eviction traffic
    DiskHashTable table(dir.file("db"), options);

    std::map<util::Bytes, util::Bytes> model;
    util::Rng rng(99);
    for (int step = 0; step < 3000; ++step) {
        const int key_id = static_cast<int>(rng.below(200));
        const auto key = key_of(key_id);
        switch (rng.below(3)) {
            case 0: {  // put
                util::Bytes value(rng.between(1, 60));
                rng.fill(value);
                table.put(key, value);
                model[key] = value;
                break;
            }
            case 1: {  // erase
                EXPECT_EQ(table.erase(key), model.erase(key) > 0);
                break;
            }
            default: {  // get
                const auto got = table.get(key);
                const auto it = model.find(key);
                if (it == model.end()) {
                    EXPECT_FALSE(got.has_value());
                } else {
                    ASSERT_TRUE(got.has_value());
                    EXPECT_EQ(*got, it->second);
                }
            }
        }
    }
    EXPECT_EQ(table.size(), model.size());
}

TEST(DiskHashTable, SimulatedLatencyGrowsWithMisses) {
    TempDir dir;
    DiskHashTable::Options options;
    options.initial_buckets = 8;
    options.cache_budget_bytes = 4 * PagedFile::kPageSize;  // tiny cache
    options.device = DeviceProfile::hdd();
    DiskHashTable table(dir.file("db"), options);

    for (int i = 0; i < 500; ++i) table.put(key_of(i), util::Bytes(40, 1));
    const auto after_fill = table.simulated_ns();
    EXPECT_GT(after_fill, 0);

    for (int i = 0; i < 500; ++i) table.get(key_of(i));
    EXPECT_GT(table.simulated_ns(), after_fill);
}

TEST(StatusDb, TimesAndCountsOperations) {
    MemKvStore store;
    StatusDb db(store);

    db.insert(key_of(1), util::Bytes{1});
    db.fetch(key_of(1));
    db.fetch(key_of(2));
    db.erase(key_of(1));

    EXPECT_EQ(db.dbo().insert_count, 1u);
    EXPECT_EQ(db.dbo().fetch_count, 2u);
    EXPECT_EQ(db.dbo().delete_count, 1u);
    EXPECT_GT(db.dbo().total_time().wall_ns, 0);
    db.reset_dbo();
    EXPECT_EQ(db.dbo().fetch_count, 0u);
}

struct TestRecord {
    std::uint32_t value = 0;

    void serialize(util::Writer& w) const { w.u32(value); }
    static util::Result<TestRecord, util::DecodeError> deserialize(util::Reader& r) {
        auto v = r.u32();
        if (!v) return util::Unexpected{v.error()};
        return TestRecord{*v};
    }
};

TEST(FlatStore, AppendLoadRoundTrip) {
    TempDir dir;
    {
        FlatStore<TestRecord> store(dir.file("records.dat"));
        for (std::uint32_t i = 0; i < 50; ++i) {
            EXPECT_EQ(store.append(TestRecord{i * 3}), i);
        }
        EXPECT_EQ(store.count(), 50u);
    }
    {
        FlatStore<TestRecord> store(dir.file("records.dat"));
        EXPECT_EQ(store.count(), 50u);  // index replayed
        for (std::uint32_t i = 0; i < 50; ++i) {
            const auto rec = store.load(i);
            ASSERT_TRUE(rec.has_value());
            EXPECT_EQ(rec->value, i * 3);
        }
        EXPECT_FALSE(store.load(50).has_value());
    }
}

}  // namespace
}  // namespace ebv::storage
