#include "net/proof_cache.hpp"

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace ebv::net {

namespace {

struct CacheMetrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Gauge& resident_bytes;

    static CacheMetrics& get() {
        static CacheMetrics m{
            obs::Registry::global().counter("ebv.proofsrv.cache_hits"),
            obs::Registry::global().counter("ebv.proofsrv.cache_misses"),
            obs::Registry::global().counter("ebv.proofsrv.cache_evictions"),
            obs::Registry::global().gauge("ebv.proofsrv.cache_bytes"),
        };
        return m;
    }
};

}  // namespace

std::shared_ptr<const BlockProofs> BlockProofs::build(const core::EbvBlock& block,
                                                      std::uint32_t height) {
    auto proofs = std::make_shared<BlockProofs>();
    proofs->height = height;
    const std::size_t n = block.txs.size();
    proofs->tidy_txs.reserve(n);
    proofs->output_counts.reserve(n);
    proofs->stake_positions.reserve(n);
    proofs->txid_to_leaf.reserve(n);

    std::vector<crypto::Hash256> leaves;
    leaves.reserve(n);
    for (const auto& tx : block.txs) {
        const core::TidyTransaction tidy = tx.tidy();
        util::Writer w(tidy.serialized_size());
        tidy.serialize(w);
        // The leaf is double-SHA256 of the tidy serialization
        // (TidyTransaction::leaf_hash); hashing the bytes we just wrote
        // avoids a second serialization pass.
        leaves.push_back(crypto::Hash256::from_span(crypto::double_sha256(w.data())));
        proofs->tidy_txs.push_back(w.take());
        proofs->output_counts.push_back(static_cast<std::uint32_t>(tx.outputs.size()));
        proofs->stake_positions.push_back(tidy.stake_position);
    }
    for (std::uint32_t i = 0; i < leaves.size(); ++i)
        proofs->txid_to_leaf.emplace(leaves[i], i);
    proofs->tree = crypto::MerkleTreeCache(leaves);
    return proofs;
}

std::size_t BlockProofs::memory_bytes() const {
    std::size_t total = sizeof *this + tree.memory_bytes();
    for (const auto& bytes : tidy_txs) total += bytes.capacity() + sizeof(util::Bytes);
    total += output_counts.capacity() * sizeof(std::uint32_t);
    total += stake_positions.capacity() * sizeof(std::uint32_t);
    // Hash map entries: key + value + node/bucket overhead (~2 pointers).
    total += txid_to_leaf.size() *
             (sizeof(crypto::Hash256) + sizeof(std::uint32_t) + 2 * sizeof(void*));
    return total;
}

ProofCache::ProofCache(std::size_t budget_bytes) : lru_(budget_bytes) {
    lru_.set_eviction_handler([](const crypto::Hash256&,
                                 std::shared_ptr<const BlockProofs>&) {
        CacheMetrics::get().evictions.inc();
    });
}

std::shared_ptr<const BlockProofs> ProofCache::lookup(const crypto::Hash256& block_hash) {
    auto* entry = lru_.get(block_hash);
    if (entry == nullptr) {
        CacheMetrics::get().misses.inc();
        return nullptr;
    }
    CacheMetrics::get().hits.inc();
    return *entry;
}

void ProofCache::insert(const crypto::Hash256& block_hash,
                        std::shared_ptr<const BlockProofs> proofs) {
    const std::size_t cost = proofs->memory_bytes();
    lru_.put(block_hash, std::move(proofs), cost);
    CacheMetrics::get().resident_bytes.set(static_cast<std::int64_t>(lru_.total_cost()));
}

std::size_t ProofCache::budget_from_env() {
    return util::env_bytes("EBV_PROOF_CACHE_BYTES", 64u << 20);
}

}  // namespace ebv::net
