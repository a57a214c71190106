// On-disk hash table with *linear hashing* (Litwin '80): buckets split one
// at a time as the table grows, so a young table occupies few pages (and
// fits any cache) while an old one sprawls — exactly the growth behaviour
// that turns the baseline's status database into the paper's DBO
// bottleneck. All page access goes through a budgeted PageCache; misses
// charge modelled device time.
//
// File layout (4 KiB pages):
//   page 0:      header (magic, linear-hash state, stats, free list,
//                directory location)
//   other pages: bucket pages, overflow pages, and directory snapshot
//                pages, allocated dynamically; an in-memory directory maps
//                bucket index → page and is persisted on flush.
//
// Page layout: [u64 next_page][u16 used][records...]; a record is
// [u16 klen][u16 vlen][key][value]. next_page == 0 ends a chain.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/kvstore.hpp"
#include "storage/page_cache.hpp"

namespace ebv::storage {

class DiskHashTable final : public KvStore {
public:
    struct Options {
        /// Buckets at creation; the table grows from here by splitting.
        std::uint64_t initial_buckets = 4;
        /// Average entries per bucket that triggers the next split.
        std::uint64_t target_entries_per_bucket = 16;
        std::size_t cache_budget_bytes = 16 << 20;
        /// Kernel page cache modelled behind the application cache, as a
        /// multiple of cache_budget_bytes (the paper's node has 8 GB RAM
        /// behind its ~500 MB application limit). 0 disables it.
        std::size_t os_cache_multiplier = 2;
        DeviceProfile device = DeviceProfile::none();
        std::uint64_t latency_seed = 0x5eed;
    };

    /// Opens (or creates) the table at path. An existing table's hash
    /// state overrides the initial_buckets option.
    DiskHashTable(const std::string& path, const Options& options);
    ~DiskHashTable() override;

    std::optional<util::Bytes> get(util::ByteSpan key) override;
    void put(util::ByteSpan key, util::ByteSpan value) override;
    bool erase(util::ByteSpan key) override;
    std::uint64_t size() const override { return entry_count_; }
    std::uint64_t payload_bytes() const override { return payload_bytes_; }
    void flush() override;

    [[nodiscard]] const CacheStats& cache_stats() const { return cache_->stats(); }
    /// Modelled device time accumulated so far.
    [[nodiscard]] util::Nanoseconds simulated_ns() const override {
        return ledger_.total_ns();
    }
    [[nodiscard]] std::uint64_t file_pages() const { return file_->page_count(); }
    [[nodiscard]] std::uint64_t bucket_count() const { return directory_.size(); }

    /// Largest key+value a record can hold in one page.
    static constexpr std::size_t kMaxRecordPayload =
        PagedFile::kPageSize - 10 /*page header*/ - 4 /*record header*/;

private:
    static constexpr std::uint64_t kMagic = 0x4542563144420002ULL;  // "EBV1DB" v2
    static constexpr std::size_t kPageHeaderSize = 10;

    void load_or_init(const Options& options);
    void persist_header();
    void persist_directory();
    void load_directory(std::uint64_t first_page, std::uint64_t bucket_count);

    /// Linear-hash bucket index for a key under the current state.
    [[nodiscard]] std::uint64_t bucket_of(util::ByteSpan key) const;
    /// Split the bucket at the split pointer (amortized growth step).
    void split_one_bucket();
    void maybe_grow();

    std::uint64_t allocate_page();
    void free_page(std::uint64_t index);

    bool erase_internal(util::ByteSpan key);
    /// Append a record into a chain starting at the directory slot.
    void append_record(std::uint64_t bucket, util::ByteSpan key, util::ByteSpan value);

    static std::size_t find_record(const PageCache::Page& page, util::ByteSpan key);
    static std::size_t page_used(const PageCache::Page& page);
    static std::uint64_t page_next(const PageCache::Page& page);

    std::unique_ptr<PagedFile> file_;
    util::SimTimeLedger ledger_;
    std::unique_ptr<PageCache> cache_;

    // Linear-hash state: bucket count is base_buckets_ * 2^level_ + split_.
    std::uint64_t base_buckets_ = 4;
    std::uint64_t level_ = 0;
    std::uint64_t split_ = 0;
    std::uint64_t target_per_bucket_ = 16;

    std::vector<std::uint64_t> directory_;  // bucket index -> head page
    std::uint64_t entry_count_ = 0;
    std::uint64_t payload_bytes_ = 0;
    std::uint64_t free_list_head_ = 0;
    std::uint64_t next_fresh_page_ = 1;
    // Directory snapshot pages currently on disk (freed on rewrite).
    std::vector<std::uint64_t> directory_pages_;
};

}  // namespace ebv::storage
