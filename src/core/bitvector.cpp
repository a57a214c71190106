#include "core/bitvector.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ebv::core {

namespace {
// Memory accounting mirrors the wire encoding of Fig 13b: a flag byte plus
// a 16-bit length for the dense form; flag, length, and a 16-bit count for
// the sparse form.
constexpr std::size_t kDenseOverhead = 3;
constexpr std::size_t kSparseOverhead = 5;
}

BitVector BitVector::all_ones(std::uint32_t bits) {
    EBV_EXPECTS(bits <= 65'535);  // the paper's 16-bit index bound
    BitVector v;
    v.size_ = bits;
    v.ones_ = bits;
    v.bitmap_.assign((bits + 7) / 8, 0xff);
    if (bits % 8 != 0 && !v.bitmap_.empty()) {
        v.bitmap_.back() = static_cast<std::uint8_t>(0xff >> (8 - bits % 8));
    }
    return v;
}

bool BitVector::test(std::uint32_t index) const {
    if (index >= size_) return false;
    if (!sparse_) return (bitmap_[index / 8] >> (index % 8)) & 1;
    return std::binary_search(one_indexes_.begin(), one_indexes_.end(),
                              static_cast<std::uint16_t>(index));
}

bool BitVector::reset(std::uint32_t index) {
    if (index >= size_) return false;
    if (!sparse_) {
        std::uint8_t& byte = bitmap_[index / 8];
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << (index % 8));
        if (!(byte & mask)) return false;
        byte &= static_cast<std::uint8_t>(~mask);
        --ones_;
        maybe_compact();
        return true;
    }
    const auto it = std::lower_bound(one_indexes_.begin(), one_indexes_.end(),
                                     static_cast<std::uint16_t>(index));
    if (it == one_indexes_.end() || *it != index) return false;
    one_indexes_.erase(it);
    --ones_;
    return true;
}

std::size_t BitVector::memory_bytes() const {
    if (sparse_) return kSparseOverhead + one_indexes_.size() * 2;
    return kDenseOverhead + bitmap_.size();
}

std::size_t BitVector::dense_memory_bytes() const {
    return kDenseOverhead + (size_ + 7) / 8;
}

void BitVector::maybe_compact() {
    // Switch once the sparse encoding is strictly smaller than the bitmap.
    if (sparse_) return;
    if (kSparseOverhead + static_cast<std::size_t>(ones_) * 2 <
        kDenseOverhead + bitmap_.size()) {
        to_sparse();
    }
}

void BitVector::to_sparse() {
    one_indexes_.clear();
    one_indexes_.reserve(ones_);
    for (std::uint32_t i = 0; i < size_; ++i) {
        if ((bitmap_[i / 8] >> (i % 8)) & 1)
            one_indexes_.push_back(static_cast<std::uint16_t>(i));
    }
    EBV_ASSERT(one_indexes_.size() == ones_);
    bitmap_.clear();
    bitmap_.shrink_to_fit();
    sparse_ = true;
}

void BitVector::serialize(util::Writer& w) const {
    w.u8(sparse_ ? 1 : 0);
    w.u16(static_cast<std::uint16_t>(size_));
    if (sparse_) {
        w.u16(static_cast<std::uint16_t>(one_indexes_.size()));
        for (std::uint16_t idx : one_indexes_) w.u16(idx);
    } else {
        w.bytes(bitmap_);
    }
}

util::Result<BitVector, util::DecodeError> BitVector::deserialize(util::Reader& r) {
    auto flag = r.u8();
    if (!flag) return util::Unexpected{flag.error()};
    auto size = r.u16();
    if (!size) return util::Unexpected{size.error()};

    BitVector v;
    v.size_ = *size;

    if (*flag == 1) {
        v.sparse_ = true;
        auto count = r.u16();
        if (!count) return util::Unexpected{count.error()};
        if (*count > *size) return util::Unexpected{util::DecodeError::kMalformed};
        v.one_indexes_.reserve(*count);
        std::uint32_t prev = 0;
        for (std::uint32_t i = 0; i < *count; ++i) {
            auto idx = r.u16();
            if (!idx) return util::Unexpected{idx.error()};
            if (*idx >= *size) return util::Unexpected{util::DecodeError::kMalformed};
            if (i > 0 && *idx <= prev) return util::Unexpected{util::DecodeError::kMalformed};
            prev = *idx;
            v.one_indexes_.push_back(*idx);
        }
        v.ones_ = *count;
        return v;
    }
    if (*flag != 0) return util::Unexpected{util::DecodeError::kMalformed};

    auto bitmap = r.bytes((*size + 7) / 8);
    if (!bitmap) return util::Unexpected{bitmap.error()};
    v.bitmap_ = std::move(*bitmap);
    // Reject set bits beyond `size` (non-canonical padding).
    if (*size % 8 != 0 && !v.bitmap_.empty()) {
        if (v.bitmap_.back() & static_cast<std::uint8_t>(0xff << (*size % 8)))
            return util::Unexpected{util::DecodeError::kMalformed};
    }
    std::uint32_t ones = 0;
    for (std::uint8_t byte : v.bitmap_) ones += static_cast<std::uint32_t>(__builtin_popcount(byte));
    v.ones_ = ones;
    return v;
}

bool operator==(const BitVector& a, const BitVector& b) {
    if (a.size_ != b.size_ || a.ones_ != b.ones_) return false;
    for (std::uint32_t i = 0; i < a.size_; ++i) {
        if (a.test(i) != b.test(i)) return false;
    }
    return true;
}

}  // namespace ebv::core
