// The EBV status representation: one bit per output of one block
// (1 = unspent). Implements the paper's §IV-E2 vector optimization — a
// vector with few 1-bits is held as a sorted array of 16-bit indexes
// instead of a bitmap, behind a one-bit representation flag on the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "util/result.hpp"
#include "util/serialize.hpp"

namespace ebv::core {

class BitVector {
public:
    BitVector() = default;

    /// A fresh block's vector: `bits` outputs, all unspent (all ones).
    static BitVector all_ones(std::uint32_t bits);

    [[nodiscard]] std::uint32_t size() const { return size_; }
    [[nodiscard]] std::uint32_t ones() const { return ones_; }
    [[nodiscard]] bool none() const { return ones_ == 0; }
    [[nodiscard]] bool is_sparse() const { return sparse_; }

    /// Test the bit at `index`; false for out-of-range.
    [[nodiscard]] bool test(std::uint32_t index) const;

    /// Clear the bit at `index`. Returns whether it was set (a false return
    /// is a double-spend signal). May switch to the sparse representation.
    bool reset(std::uint32_t index);

    /// Bytes this vector occupies in its current representation — the
    /// quantity Fig 14's "EBV" line sums.
    [[nodiscard]] std::size_t memory_bytes() const;
    /// Bytes a dense bitmap would need — Fig 14's "EBV w/o optimization".
    [[nodiscard]] std::size_t dense_memory_bytes() const;

    /// Wire format (paper Fig 13b): flag byte (0 = bitmap, 1 = index
    /// array), then the representation.
    void serialize(util::Writer& w) const;
    static util::Result<BitVector, util::DecodeError> deserialize(util::Reader& r);

    friend bool operator==(const BitVector& a, const BitVector& b);

private:
    void maybe_compact();
    void to_sparse();

    // Exactly one representation is active.
    std::vector<std::uint8_t> bitmap_;       // dense
    std::vector<std::uint16_t> one_indexes_; // sparse, sorted ascending
    std::uint32_t size_ = 0;
    std::uint32_t ones_ = 0;
    bool sparse_ = false;
};

}  // namespace ebv::core
