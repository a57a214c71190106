// The EBV status database: block height → bit-vector. Small enough to live
// entirely in memory (the paper's headline memory reduction), with optional
// snapshot persistence. Fully-spent vectors are deleted (§IV-E1); the
// optimized/unoptimized memory totals are maintained incrementally so the
// Fig 14 bench is O(1) per sample.
//
// The set is internally sharded by height (height mod kShardCount): each
// shard owns its own map and memory accounting, so spent-bit application
// can run from inside a parallel region — the IBD pipeline (`ebv::ibd`)
// partitions a window's validated spends by shard and applies distinct
// shards concurrently (`spend_shard`), which is what lets block storage
// ("stage 3") join the fused EV+SV parallel pass instead of running
// serially after it. All single-call methods remain single-threaded
// mutators; only spend_shard on *distinct* shards may overlap.
#pragma once

#include <array>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bitvector.hpp"

namespace ebv::core {

enum class UvError {
    kUnknownHeight,   ///< no vector: height never existed or fully spent
    kIndexOutOfRange,
    kAlreadySpent,    ///< bit is 0
};

[[nodiscard]] const char* to_string(UvError e);

class BitVectorSet {
public:
    /// Shard fan-out for parallel spent-bit application. A power of two so
    /// shard_of is a mask; 16 keeps per-shard batches meaty even for small
    /// windows while exceeding any realistic commit-thread count.
    static constexpr std::size_t kShardCount = 16;

    /// One UV-validated spend awaiting application.
    struct SpentRecord {
        std::uint32_t height;
        std::uint32_t position;
    };

    [[nodiscard]] static constexpr std::size_t shard_of(std::uint32_t height) {
        return height & (kShardCount - 1);
    }

    /// Register a newly-connected block's outputs (all unspent).
    void insert_block(std::uint32_t height, std::uint32_t output_count);

    /// UV check only: is the output at `position` (absolute, block-wide)
    /// still unspent?
    [[nodiscard]] util::Status<UvError> check_unspent(std::uint32_t height,
                                                      std::uint32_t position) const;

    /// Mark spent (block-storage step). Deletes the vector when it empties.
    util::Status<UvError> spend(std::uint32_t height, std::uint32_t position);

    /// Apply a batch of UV-validated spends for one shard. Every record
    /// must satisfy shard_of(height) == shard and target a set bit
    /// (asserted). Calls on *distinct* shards may run concurrently — they
    /// touch disjoint maps and disjoint accounting.
    void spend_shard(std::size_t shard, const SpentRecord* records, std::size_t count);

    /// Reorg support: set a bit back to unspent. `vector_size` recreates
    /// the vector if it had been deleted as fully spent (all other bits are
    /// then provably zero). Returns false if the bit was already set.
    bool unspend(std::uint32_t height, std::uint32_t position, std::uint32_t vector_size);

    /// Reorg support: drop the vector of a disconnected block entirely.
    void remove_block(std::uint32_t height);

    [[nodiscard]] std::size_t vector_count() const;
    [[nodiscard]] bool has_vector(std::uint32_t height) const {
        return shards_[shard_of(height)].vectors.count(height) != 0;
    }

    /// Current memory requirement with the sparse-vector optimization
    /// (Fig 14 "EBV").
    [[nodiscard]] std::size_t memory_bytes() const;
    /// Memory if every vector stayed a dense bitmap (Fig 14 "EBV w/o
    /// optimization").
    [[nodiscard]] std::size_t dense_memory_bytes() const;

    /// Snapshot persistence (one record per surviving vector). save()
    /// replaces the file atomically and returns false when the write fails
    /// (util::write_file_atomic).
    /// load() returns kTruncated for a file it cannot read whole and
    /// kMalformed for one with bytes after the set.
    [[nodiscard]] bool save(const std::string& path) const;
    static util::Result<BitVectorSet, util::DecodeError> load(const std::string& path);

    /// In-stream forms (used by node-level snapshots).
    void serialize(util::Writer& w) const;
    static util::Result<BitVectorSet, util::DecodeError> deserialize(util::Reader& r);

    /// Whether every vector belongs to a block of `output_counts` (indexed
    /// by height) and holds exactly that block's output count — the check a
    /// loaded snapshot must pass before UV or disconnect_tip may trust it.
    [[nodiscard]] bool fits(std::span<const std::uint32_t> output_counts) const;

    friend bool operator==(const BitVectorSet&, const BitVectorSet&);

private:
    /// One height-partition: its vectors plus incremental Fig 14 byte
    /// accounting. No shared state between shards, by construction.
    struct Shard {
        std::unordered_map<std::uint32_t, BitVector> vectors;
        std::size_t optimized_bytes = 0;
        std::size_t dense_bytes = 0;
    };

    static void account_remove(Shard& s, const BitVector& v);
    static void account_add(Shard& s, const BitVector& v);

    std::array<Shard, kShardCount> shards_;
};

}  // namespace ebv::core
