// Standalone EBV transaction validation and a mempool (paper §IV-D: "After
// receiving a transaction, a node has to validate the legitimacy of this
// transaction"). Admission runs the same EV/UV/SV pipeline as block
// validation — against the *current* chain state plus the pool's own
// pending spends, so conflicting transactions are rejected at the door.
//
// Heavy-traffic front-end (docs/MEMPOOL.md):
//  - submit_batch() runs the stateless per-transaction work (EV proof
//    folds, sighash templates, SV) in one claimer per util::ThreadPool
//    slot (chain::claim_all), the signatures of standard inputs prefetched
//    eight at a time when the CPU has a lane backend, then
//    resolves verdicts serially in submission order — admission verdicts
//    are bit-identical to one-at-a-time submit() calls on one thread.
//  - A chain::SigCache records every signature verified at admission, so
//    validating a block built from the pool skips the curve work and
//    approaches UV-only cost.
//  - Entries are ranked by exact feerate (128-bit cross-multiplied, txid
//    tie-break); take_for_block()/build_template() drain best-first without
//    re-sorting, and a byte budget (EBV_MEMPOOL_BYTES) evicts worst-first.
//  - A conflicting transaction replaces the pooled spenders only when its
//    feerate strictly beats every one of them (replace-by-feerate).
//
// One EBV-specific caveat handled here: a transaction in the pool proves
// existence against a block that is already final, so proofs never go stale
// when new blocks arrive — only UV can change (the output being spent by a
// confirmed block), which eviction re-checks.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "chain/sig_cache.hpp"
#include "util/thread_pool.hpp"

namespace ebv::core {

enum class TxAdmission {
    kAccepted,
    kDuplicate,           ///< same leaf hash already pooled
    kConflict,            ///< spends an output a pooled transaction spends
    kExistenceFailed,     ///< EV failed (incl. unknown height / bad index)
    kUnspentFailed,       ///< UV failed against the chain state
    kImmatureCoinbase,
    kBadValue,            ///< outputs exceed inputs or out of range
    kScriptFailed,        ///< SV failed
    kNotStandalone,       ///< coinbase transactions are never pooled
    kPoolFull,            ///< valid, but below the budget-eviction feerate floor
};

[[nodiscard]] const char* to_string(TxAdmission a);

/// Validate one transaction against the chain state (headers + bit-vector
/// set), without touching the state. Exposed standalone so relays can
/// check transactions they do not intend to pool. `sigcache`, when given,
/// is consulted for — and warmed by — every signature check.
TxAdmission validate_transaction(const EbvTransaction& tx,
                                 const chain::ChainParams& params,
                                 const chain::HeaderIndex& headers,
                                 const BitVectorSet& status,
                                 std::uint32_t next_height,
                                 bool verify_scripts = true,
                                 chain::SigCache* sigcache = nullptr);

struct TxPoolOptions {
    /// Resident byte budget (0 = unlimited). When an insertion pushes the
    /// pool past it, lowest-feerate entries are evicted — possibly the
    /// newcomer itself (kPoolFull). EBV_MEMPOOL_BYTES, when set in the
    /// environment, overrides this value.
    std::size_t max_bytes = 0;
    /// Runs submit_batch()'s stateless per-transaction validation in one
    /// claimer per slot; nullptr = one claimer on the calling thread.
    util::ThreadPool* pool = nullptr;
    /// Records admission-verified signatures for block-validation reuse;
    /// typically the same cache handed to EbvValidatorOptions::sigcache.
    chain::SigCache* sigcache = nullptr;
    bool verify_scripts = true;
    /// Allow a conflicting transaction to replace pooled spenders when its
    /// feerate strictly beats every one of them.
    bool replace_by_feerate = true;

    /// Apply EBV_MEMPOOL_BYTES on top of `base`.
    [[nodiscard]] static TxPoolOptions from_env(TxPoolOptions base);
    [[nodiscard]] static TxPoolOptions from_env() { return from_env(TxPoolOptions{}); }
};

class TxPool {
public:
    /// Approximate per-entry overhead (map nodes, rank node, spend index)
    /// added to the serialized size for byte accounting.
    static constexpr std::size_t kEntryOverheadBytes = 160;

    TxPool(const chain::ChainParams& params, const chain::HeaderIndex& headers,
           const BitVectorSet& status, TxPoolOptions options = {})
        : params_(params), headers_(headers), status_(status), options_(options) {}

    /// Validate and admit a transaction.
    TxAdmission submit(const EbvTransaction& tx);

    /// Validate and admit a burst of transactions, fanning the stateless
    /// per-transaction work over options().pool. Verdicts are resolved in
    /// submission order and match serial submit() calls exactly (including
    /// duplicates/conflicts *within* the batch).
    std::vector<TxAdmission> submit_batch(std::span<const EbvTransaction> txs);

    /// Drain up to max_txs transactions for block packaging, highest
    /// fee-per-byte first (exact integer comparison, txid tie-break).
    /// Drained transactions leave the pool.
    std::vector<EbvTransaction> take_for_block(std::size_t max_txs);

    /// Assemble a block template from the pool without draining it: a
    /// coinbase paying subsidy + fees to `coinbase_lock`, then up to
    /// max_txs pooled transactions best-feerate-first, stake positions
    /// assigned and the Merkle root computed. Call evict_confirmed_spends
    /// with the connected block to remove the included transactions.
    [[nodiscard]] EbvBlock build_template(const script::Script& coinbase_lock,
                                          std::size_t max_txs) const;

    /// Drop every pooled transaction whose inputs were consumed by the
    /// newly connected chain state. The block overload walks only the
    /// block's own spends against the pool's spend index (O(spends in
    /// block)); the argument-free overload re-checks the whole pool (use
    /// after reorgs or bulk state changes). Returns the number evicted.
    std::size_t evict_confirmed_spends(const EbvBlock& block);
    std::size_t evict_confirmed_spends();

    [[nodiscard]] std::size_t size() const { return pool_.size(); }
    /// Approximate resident bytes (serialized sizes + per-entry overhead).
    [[nodiscard]] std::size_t bytes() const { return bytes_; }
    [[nodiscard]] bool contains(const crypto::Hash256& leaf_hash) const {
        return pool_.count(leaf_hash) != 0;
    }
    [[nodiscard]] const TxPoolOptions& options() const { return options_; }

private:
    static std::uint64_t spend_key(std::uint32_t height, std::uint32_t position) {
        return static_cast<std::uint64_t>(height) << 32 | position;
    }

    struct Entry {
        EbvTransaction tx;
        chain::Amount fee = 0;
        std::size_t bytes = 0;  ///< serialized size + kEntryOverheadBytes
    };

    /// Feerate rank: an entry's identity in the drain/evict order. Strict
    /// weak ordering via exact 128-bit cross-multiplication — no
    /// double-precision loss — with the leaf hash as a total-order
    /// tie-break so drain order is deterministic.
    struct Rank {
        chain::Amount fee = 0;
        std::uint64_t bytes = 0;
        crypto::Hash256 leaf;
    };
    struct RankBetter {
        bool operator()(const Rank& a, const Rank& b) const {
            const auto lhs = static_cast<unsigned __int128>(a.fee) * b.bytes;
            const auto rhs = static_cast<unsigned __int128>(b.fee) * a.bytes;
            if (lhs != rhs) return lhs > rhs;  // higher feerate first
            return a.leaf < b.leaf;
        }
    };

    /// Stateless per-transaction verdicts, computed (possibly in parallel)
    /// before the serial resolution pass.
    struct Prevalidation;

    /// Whether fee_a / bytes_a is strictly above fee_b / bytes_b (exact).
    [[nodiscard]] static bool feerate_beats(chain::Amount fee_a, std::size_t bytes_a,
                                            chain::Amount fee_b, std::size_t bytes_b);
    void prevalidate(const EbvTransaction& tx, Prevalidation& out) const;
    TxAdmission resolve(const EbvTransaction& tx, const Prevalidation& pre);
    void insert_entry(const crypto::Hash256& leaf, Entry entry);
    /// Takes the leaf by value: callers pass references into spends_ and
    /// ranked_, whose nodes this erases.
    void erase_entry(crypto::Hash256 leaf);
    /// Evict lowest-feerate entries until bytes_ fits the budget.
    std::size_t trim_to_budget();

    const chain::ChainParams& params_;
    const chain::HeaderIndex& headers_;
    const BitVectorSet& status_;
    TxPoolOptions options_;

    std::unordered_map<crypto::Hash256, Entry, crypto::Hash256Hasher> pool_;
    /// spend key (height<<32 | absolute position) -> pooled spender's leaf.
    std::unordered_map<std::uint64_t, crypto::Hash256> spends_;
    std::set<Rank, RankBetter> ranked_;
    std::size_t bytes_ = 0;
};

}  // namespace ebv::core
