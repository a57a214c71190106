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

void BitVectorSet::account_remove(Shard& s, const BitVector& v) {
    s.optimized_bytes -= v.memory_bytes();
    s.dense_bytes -= v.dense_memory_bytes();
}

void BitVectorSet::account_add(Shard& s, const BitVector& v) {
    s.optimized_bytes += v.memory_bytes();
    s.dense_bytes += v.dense_memory_bytes();
}

void BitVectorSet::insert_block(std::uint32_t height, std::uint32_t output_count) {
    Shard& shard = shards_[shard_of(height)];
    EBV_EXPECTS(shard.vectors.count(height) == 0);
    auto [it, inserted] = shard.vectors.emplace(height, BitVector::all_ones(output_count));
    EBV_ASSERT(inserted);
    account_add(shard, it->second);
}

util::Status<UvError> BitVectorSet::check_unspent(std::uint32_t height,
                                                  std::uint32_t position) const {
    const Shard& shard = shards_[shard_of(height)];
    const auto it = shard.vectors.find(height);
    if (it == shard.vectors.end()) return util::Unexpected{UvError::kUnknownHeight};
    if (position >= it->second.size()) return util::Unexpected{UvError::kIndexOutOfRange};
    if (!it->second.test(position)) return util::Unexpected{UvError::kAlreadySpent};
    return util::Ok{};
}

util::Status<UvError> BitVectorSet::spend(std::uint32_t height, std::uint32_t position) {
    Shard& shard = shards_[shard_of(height)];
    const auto it = shard.vectors.find(height);
    if (it == shard.vectors.end()) return util::Unexpected{UvError::kUnknownHeight};
    if (position >= it->second.size()) return util::Unexpected{UvError::kIndexOutOfRange};

    account_remove(shard, it->second);
    const bool was_set = it->second.reset(position);
    if (!was_set) {
        account_add(shard, it->second);
        return util::Unexpected{UvError::kAlreadySpent};
    }
    if (it->second.none()) {
        shard.vectors.erase(it);  // §IV-E1: fully-spent vectors are deleted
    } else {
        account_add(shard, it->second);
    }
    return util::Ok{};
}

void BitVectorSet::spend_shard(std::size_t shard_index, const SpentRecord* records,
                               std::size_t count) {
    Shard& shard = shards_[shard_index];
    for (std::size_t i = 0; i < count; ++i) {
        const SpentRecord& rec = records[i];
        EBV_EXPECTS(shard_of(rec.height) == shard_index);
        const auto it = shard.vectors.find(rec.height);
        EBV_ASSERT(it != shard.vectors.end());  // UV validated this spend
        EBV_ASSERT(rec.position < it->second.size());
        account_remove(shard, it->second);
        const bool was_set = it->second.reset(rec.position);
        EBV_ASSERT(was_set);
        if (it->second.none()) {
            shard.vectors.erase(it);
        } else {
            account_add(shard, it->second);
        }
    }
}

bool BitVectorSet::unspend(std::uint32_t height, std::uint32_t position,
                           std::uint32_t vector_size) {
    Shard& shard = shards_[shard_of(height)];
    auto it = shard.vectors.find(height);
    if (it == shard.vectors.end()) {
        // The vector was deleted as fully spent: recreate it all-zero.
        it = shard.vectors.emplace(height, BitVector::all_zeros(vector_size)).first;
        account_add(shard, it->second);
    }
    if (position >= it->second.size()) return false;

    account_remove(shard, it->second);
    const bool was_clear = it->second.set(position);
    account_add(shard, it->second);
    return was_clear;
}

void BitVectorSet::remove_block(std::uint32_t height) {
    Shard& shard = shards_[shard_of(height)];
    const auto it = shard.vectors.find(height);
    if (it == shard.vectors.end()) return;
    account_remove(shard, it->second);
    shard.vectors.erase(it);
}

std::size_t BitVectorSet::vector_count() const {
    std::size_t count = 0;
    for (const Shard& s : shards_) count += s.vectors.size();
    return count;
}

std::size_t BitVectorSet::memory_bytes() const {
    std::size_t bytes = 0;
    for (const Shard& s : shards_) bytes += s.optimized_bytes;
    return bytes;
}

std::size_t BitVectorSet::dense_memory_bytes() const {
    std::size_t bytes = 0;
    for (const Shard& s : shards_) bytes += s.dense_bytes;
    return bytes;
}

void BitVectorSet::serialize(util::Writer& w) const {
    w.u64(vector_count());
    for (const Shard& shard : shards_) {
        for (const auto& [height, vector] : shard.vectors) {
            w.u32(height);
            vector.serialize(w);
        }
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
        Shard& shard = set.shards_[shard_of(*height)];
        if (shard.vectors.count(*height) != 0)
            return util::Unexpected{util::DecodeError::kMalformed};
        account_add(shard, *vector);
        shard.vectors.emplace(*height, std::move(*vector));
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
    for (const Shard& shard : shards_) {
        for (const auto& [height, vector] : shard.vectors) {
            if (height >= output_counts.size() || vector.size() != output_counts[height])
                return false;
        }
    }
    return true;
}

bool operator==(const BitVectorSet& a, const BitVectorSet& b) {
    for (std::size_t s = 0; s < BitVectorSet::kShardCount; ++s)
        if (a.shards_[s].vectors != b.shards_[s].vectors) return false;
    return true;
}

}  // namespace ebv::core
