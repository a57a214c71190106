#include "core/bitvector_set.hpp"

#include <memory>

#include "util/assert.hpp"

namespace ebv::core {

const char* to_string(UvError e) {
    switch (e) {
        case UvError::kUnknownHeight: return "no bit-vector for height";
        case UvError::kIndexOutOfRange: return "position out of range";
        case UvError::kAlreadySpent: return "output already spent";
    }
    return "unknown UV error";
}

void BitVectorSet::account_remove(const BitVector& v) {
    optimized_bytes_ -= v.memory_bytes();
    dense_bytes_ -= v.dense_memory_bytes();
}

void BitVectorSet::account_add(const BitVector& v) {
    optimized_bytes_ += v.memory_bytes();
    dense_bytes_ += v.dense_memory_bytes();
}

void BitVectorSet::insert_block(std::uint32_t height, std::uint32_t output_count) {
    EBV_EXPECTS(vectors_.count(height) == 0);
    auto [it, inserted] = vectors_.emplace(height, BitVector::all_ones(output_count));
    EBV_ASSERT(inserted);
    account_add(it->second);
}

util::Status<UvError> BitVectorSet::check_unspent(std::uint32_t height,
                                                  std::uint32_t position) const {
    const auto it = vectors_.find(height);
    if (it == vectors_.end()) return util::Unexpected{UvError::kUnknownHeight};
    if (position >= it->second.size()) return util::Unexpected{UvError::kIndexOutOfRange};
    if (!it->second.test(position)) return util::Unexpected{UvError::kAlreadySpent};
    return util::Ok{};
}

util::Status<UvError> BitVectorSet::spend(std::uint32_t height, std::uint32_t position) {
    const auto it = vectors_.find(height);
    if (it == vectors_.end()) return util::Unexpected{UvError::kUnknownHeight};
    if (position >= it->second.size()) return util::Unexpected{UvError::kIndexOutOfRange};

    account_remove(it->second);
    const bool was_set = it->second.reset(position);
    if (!was_set) {
        account_add(it->second);
        return util::Unexpected{UvError::kAlreadySpent};
    }
    if (it->second.none()) {
        vectors_.erase(it);  // §IV-E1: fully-spent vectors are deleted
    } else {
        account_add(it->second);
    }
    return util::Ok{};
}

bool BitVectorSet::unspend(std::uint32_t height, std::uint32_t position,
                           std::uint32_t vector_size) {
    auto it = vectors_.find(height);
    if (it == vectors_.end()) {
        // The vector was deleted as fully spent: recreate it all-zero.
        it = vectors_.emplace(height, BitVector::all_zeros(vector_size)).first;
        account_add(it->second);
    }
    if (position >= it->second.size()) return false;

    account_remove(it->second);
    const bool was_clear = it->second.set(position);
    account_add(it->second);
    return was_clear;
}

void BitVectorSet::remove_block(std::uint32_t height) {
    const auto it = vectors_.find(height);
    if (it == vectors_.end()) return;
    account_remove(it->second);
    vectors_.erase(it);
}

void BitVectorSet::serialize(util::Writer& w) const {
    w.u64(vectors_.size());
    for (const auto& [height, vector] : vectors_) {
        w.u32(height);
        vector.serialize(w);
    }
}

util::Result<BitVectorSet, util::DecodeError> BitVectorSet::deserialize(util::Reader& r) {
    auto count = r.u64();
    if (!count) return util::Unexpected{count.error()};

    BitVectorSet set;
    for (std::uint64_t i = 0; i < *count; ++i) {
        auto height = r.u32();
        if (!height) return util::Unexpected{height.error()};
        auto vector = BitVector::deserialize(r);
        if (!vector) return util::Unexpected{vector.error()};
        if (set.vectors_.count(*height) != 0)
            return util::Unexpected{util::DecodeError::kMalformed};
        set.account_add(*vector);
        set.vectors_.emplace(*height, std::move(*vector));
    }
    return set;
}

bool BitVectorSet::save(const std::string& path) const {
    util::Writer w;
    serialize(w);
    return util::write_file_atomic(path, w.data());
}

util::Result<BitVectorSet, util::DecodeError> BitVectorSet::load(const std::string& path) {
    auto data = util::read_file(path);
    if (!data) return util::Unexpected{data.error()};
    util::Reader r(*data);
    auto set = deserialize(r);
    // Nothing may follow the set: trailing bytes mean a hostile or
    // mis-framed file, not a set with extra room.
    if (set && !r.empty()) return util::Unexpected{util::DecodeError::kMalformed};
    return set;
}

bool BitVectorSet::fits(std::span<const std::uint32_t> output_counts) const {
    for (const auto& [height, vector] : vectors_) {
        if (height >= output_counts.size() || vector.size() != output_counts[height])
            return false;
    }
    return true;
}

bool operator==(const BitVectorSet& a, const BitVectorSet& b) {
    return a.vectors_ == b.vectors_;
}

}  // namespace ebv::core
