// The EBV status database: block height → bit-vector. Small enough to live
// entirely in memory (the paper's headline memory reduction), with optional
// snapshot persistence. Fully-spent vectors are deleted (§IV-E1); the
// optimized/unoptimized memory totals are maintained incrementally so the
// Fig 14 bench is O(1) per sample. One unordered_map, mutated by one thread
// at a time; the validation engines apply each block's spends serially, at
// its commit (docs/PIPELINE.md), and concurrent const reads are safe only
// while no mutator runs.
#pragma once

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
    /// (height, position) of one output.
    struct SpentRecord {
        std::uint32_t height;
        std::uint32_t position;
    };

    /// Register a newly-connected block's outputs (all unspent).
    void insert_block(std::uint32_t height, std::uint32_t output_count);

    /// UV check only: is the output at `position` (absolute, block-wide)
    /// still unspent?
    [[nodiscard]] util::Status<UvError> check_unspent(std::uint32_t height,
                                                      std::uint32_t position) const;

    /// Mark spent (block-storage step). Deletes the vector when it empties.
    util::Status<UvError> spend(std::uint32_t height, std::uint32_t position);

    [[nodiscard]] std::size_t vector_count() const { return vectors_.size(); }
    [[nodiscard]] bool has_vector(std::uint32_t height) const {
        return vectors_.count(height) != 0;
    }

    /// Current memory requirement with the sparse-vector optimization
    /// (Fig 14 "EBV").
    [[nodiscard]] std::size_t memory_bytes() const { return optimized_bytes_; }
    /// Memory if every vector stayed a dense bitmap (Fig 14 "EBV w/o
    /// optimization").
    [[nodiscard]] std::size_t dense_memory_bytes() const { return dense_bytes_; }

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
    /// loaded snapshot must pass before UV may trust it.
    [[nodiscard]] bool fits(std::span<const std::uint32_t> output_counts) const;

    friend bool operator==(const BitVectorSet&, const BitVectorSet&);

private:
    void account_remove(const BitVector& v);
    void account_add(const BitVector& v);

    std::unordered_map<std::uint32_t, BitVector> vectors_;
    std::size_t optimized_bytes_ = 0;  ///< incremental Fig 14 byte accounting
    std::size_t dense_bytes_ = 0;
};

}  // namespace ebv::core
