// Block-level proof material cache for the proof-serving tier.
//
// Serving a Merkle proof the naive way re-hashes the whole tree per query:
// O(n) compressions each time, quadratic for a popular block. BlockProofs
// prepares everything once — the serialized tidy transactions (ELs), the
// txid → leaf index, the per-transaction output counts and stake positions,
// and a crypto::MerkleTreeCache holding every interior level — so each
// query is a hash-table lookup plus an O(log n) sibling copy with zero
// SHA-256 work.
//
// ProofCache keeps prepared blocks in an LRU keyed by block hash under a
// byte budget (EBV_PROOF_CACHE_BYTES, default 64 MiB). Entries are handed
// out as shared_ptr so an eviction never invalidates a reply the server is
// still assembling.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/ebv_transaction.hpp"
#include "crypto/hash_types.hpp"
#include "crypto/merkle_cache.hpp"
#include "util/lru.hpp"

namespace ebv::net {

/// Everything needed to answer getproof requests against one block.
struct BlockProofs {
    std::uint32_t height = 0;
    crypto::MerkleTreeCache tree;           ///< all interior levels, hashed once
    std::vector<util::Bytes> tidy_txs;      ///< serialized TidyTransaction per leaf
    std::vector<std::uint32_t> output_counts;    ///< per leaf, for kInput range checks
    std::vector<std::uint32_t> stake_positions;  ///< per leaf, first-output position
    std::unordered_map<crypto::Hash256, std::uint32_t, crypto::Hash256Hasher>
        txid_to_leaf;

    /// Prepare a block: serialize every tidy transaction, hash the leaves,
    /// and build the full interior-node tree. The only hashing the proof
    /// path ever performs.
    static std::shared_ptr<const BlockProofs> build(const core::EbvBlock& block,
                                                    std::uint32_t height);

    /// Approximate heap footprint — the cost charged against the LRU budget.
    [[nodiscard]] std::size_t memory_bytes() const;
};

class ProofCache {
public:
    /// Budget in bytes; defaults to EBV_PROOF_CACHE_BYTES (64 MiB unset).
    explicit ProofCache(std::size_t budget_bytes = budget_from_env());

    /// Cache hit (refreshes recency) or nullptr. Counts
    /// ebv.proofsrv.cache_hits / cache_misses.
    std::shared_ptr<const BlockProofs> lookup(const crypto::Hash256& block_hash);

    /// Insert a prepared block, evicting least-recently-served blocks past
    /// the budget (counted as ebv.proofsrv.cache_evictions).
    void insert(const crypto::Hash256& block_hash,
                std::shared_ptr<const BlockProofs> proofs);

    [[nodiscard]] std::size_t size() const { return lru_.size(); }
    [[nodiscard]] std::size_t budget() const { return lru_.budget(); }

    static std::size_t budget_from_env();

private:
    util::LruMap<crypto::Hash256, std::shared_ptr<const BlockProofs>,
                 crypto::Hash256Hasher>
        lru_;
};

}  // namespace ebv::net
