// In-memory header chain: height → header plus hash → height lookup. Both
// node types keep all headers resident (cheap: 80 bytes per block); EBV's
// Existence Validation reads Merkle roots from here.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"

namespace ebv::chain {

class HeaderIndex {
public:
    /// Append the next header; it must link to the current tip.
    /// Returns false (and leaves the index unchanged) on a broken link.
    bool append(const BlockHeader& header) {
        if (!headers_.empty() && header.prev_hash != tip_hash_) return false;
        if (headers_.empty() && !header.prev_hash.is_zero()) return false;
        tip_hash_ = header.hash();
        by_hash_.emplace(tip_hash_, headers_.size());
        headers_.push_back(header);
        return true;
    }

    [[nodiscard]] std::uint32_t height() const {
        return headers_.empty() ? 0 : static_cast<std::uint32_t>(headers_.size() - 1);
    }
    [[nodiscard]] std::size_t size() const { return headers_.size(); }
    [[nodiscard]] bool empty() const { return headers_.empty(); }

    [[nodiscard]] const BlockHeader* at(std::uint32_t height) const {
        return height < headers_.size() ? &headers_[height] : nullptr;
    }

    [[nodiscard]] std::optional<std::uint32_t> find(const crypto::Hash256& hash) const {
        const auto it = by_hash_.find(hash);
        if (it == by_hash_.end()) return std::nullopt;
        return static_cast<std::uint32_t>(it->second);
    }

    /// The tip header's hash; the zero hash (a genesis header's prev_hash)
    /// when the index is empty.
    [[nodiscard]] const crypto::Hash256& tip_hash() const { return tip_hash_; }

    /// Bytes of memory the header chain occupies (Fig 14 excludes this, as
    /// does the paper — identical in both systems — but examples report it).
    [[nodiscard]] std::size_t memory_bytes() const {
        return headers_.size() * (sizeof(BlockHeader) + 48 /*hash map entry*/);
    }

private:
    std::vector<BlockHeader> headers_;
    std::unordered_map<crypto::Hash256, std::size_t, crypto::Hash256Hasher> by_hash_;
    crypto::Hash256 tip_hash_;
};

}  // namespace ebv::chain
