// Sharded signature-verification cache (Bitcoin Core's "sigcache" trick):
// a successful ECDSA verification performed at mempool admission is recorded
// here so block validation of the same (sighash, pubkey, signature) triple
// can skip the ~50 µs curve work and pay only a hash + a shard lookup —
// cache-hit SV approaches UV-only cost.
//
// Keying and salting: the cache stores SHA-256(salt || sighash || pubkey ||
// r || s) rather than the raw triple. The 32-byte salt is drawn once per
// cache from std::random_device, so an attacker who can submit transactions
// cannot predict bucket placement or manufacture colliding keys.
//
// Soundness: only triples that verified TRUE are ever inserted, so a hit is
// always a sound "valid" verdict and a miss simply falls back to inline
// verification. Failed signatures are re-verified every time — which is why
// the scenario-matrix failure tuples are bit-identical with the cache on,
// off, or mid-eviction (docs/MEMPOOL.md).
//
// Concurrency: N-way sharded by key prefix with one mutex per shard; safe
// for concurrent contains()/insert() from thread-pool workers. Eviction is
// per-shard FIFO (insertion order) under a global byte budget
// (EBV_SIGCACHE_BYTES) split evenly across shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"

namespace ebv::chain {

class SigCache {
public:
    /// Approximate resident cost of one cached entry: the 32-byte key plus
    /// hash-set node, bucket-array share, and FIFO-queue bookkeeping.
    static constexpr std::size_t kEntryCostBytes = 96;
    static constexpr std::size_t kShardCount = 16;  // power of two
    static constexpr std::size_t kDefaultMaxBytes = 32u << 20;

    /// `max_bytes` caps resident size (0 = unlimited). The EBV_SIGCACHE_BYTES
    /// environment variable, when set, overrides the argument.
    explicit SigCache(std::size_t max_bytes = kDefaultMaxBytes);

    SigCache(const SigCache&) = delete;
    SigCache& operator=(const SigCache&) = delete;

    /// True iff this exact (sighash, pubkey, signature) triple was
    /// previously insert()ed and has not been evicted.
    [[nodiscard]] bool contains(const crypto::VerifyJob& job) const;

    /// Record a triple that verified TRUE. Never call with a failed
    /// verification — a hit short-circuits the curve check entirely.
    void insert(const crypto::VerifyJob& job);

    /// Drop one triple (e.g. targeted eviction in tests). Returns true if
    /// the entry was present.
    bool erase(const crypto::VerifyJob& job);

    /// Drop everything (the salt is kept).
    void clear();

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t bytes() const { return size() * kEntryCostBytes; }
    [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

private:
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_set<crypto::Hash256, crypto::Hash256Hasher> keys;
        std::deque<crypto::Hash256> order;  ///< FIFO eviction queue
    };

    [[nodiscard]] crypto::Hash256 key_for(const crypto::VerifyJob& job) const;
    [[nodiscard]] Shard& shard_for(const crypto::Hash256& key) const;

    crypto::Hash256 salt_;
    std::size_t max_bytes_ = 0;
    std::size_t shard_entry_cap_ = 0;  ///< derived per-shard entry limit (0 = none)
    mutable Shard shards_[kShardCount];
};

}  // namespace ebv::chain
