#include "core/tx_pool.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "chain/amount.hpp"
#include "core/sighash_cache.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace ebv::core {

namespace {

/// Registry handles, resolved once (values survive Registry::reset()).
struct TxPoolMetrics {
    obs::Counter& submitted;
    obs::Counter& accepted;
    obs::Counter& rejected;
    obs::Counter& evicted;           ///< confirmed-spend evictions
    obs::Counter& budget_evictions;  ///< lowest-feerate drops under EBV_MEMPOOL_BYTES
    obs::Counter& replacements;      ///< pooled txs displaced by a better feerate
    obs::Gauge& size;
    obs::Gauge& bytes;
    obs::Histogram& admission_ns;    ///< batch start -> per-tx verdict resolved
    obs::Histogram& batch_size;

    static TxPoolMetrics& get() {
        static TxPoolMetrics m{
            obs::Registry::global().counter("ebv.txpool.submitted"),
            obs::Registry::global().counter("ebv.txpool.accepted"),
            obs::Registry::global().counter("ebv.txpool.rejected"),
            obs::Registry::global().counter("ebv.txpool.evicted"),
            obs::Registry::global().counter("ebv.txpool.budget_evictions"),
            obs::Registry::global().counter("ebv.txpool.replacements"),
            obs::Registry::global().gauge("ebv.txpool.size"),
            obs::Registry::global().gauge("ebv.txpool.bytes"),
            obs::Registry::global().histogram("ebv.txpool.admission_ns"),
            obs::Registry::global().histogram(
                "ebv.txpool.batch_size", obs::Histogram::exponential_bounds(1, 2.0, 12)),
        };
        return m;
    }
};

/// The stateless per-transaction pipeline up to SV, run by the (possibly
/// parallel) prevalidation pass of submit_batch(); it reads only the frozen
/// chain state, which is what makes batch verdicts bit-identical to serial
/// ones. Checks run in the serial order EV -> UV -> maturity -> value per
/// input, first failure wins; script_verdict() follows. On kAccepted,
/// *fee_out holds the transaction fee.
TxAdmission stateless_verdict(const EbvTransaction& tx, const chain::ChainParams& params,
                              const chain::HeaderIndex& headers, const BitVectorSet& status,
                              std::uint32_t next_height, chain::Amount* fee_out) {
    if (tx.is_coinbase() || tx.inputs.empty()) return TxAdmission::kNotStandalone;

    chain::Amount value_in = 0;
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
        const EbvInput& in = tx.inputs[i];

        // EV — exactly as in block validation.
        if (ev_check_input(in, headers.at(in.height), next_height) != EvStatus::kOk)
            return TxAdmission::kExistenceFailed;

        // UV against the chain state.
        if (!status.check_unspent(in.height, in.absolute_position()))
            return TxAdmission::kUnspentFailed;

        if (in.els.is_coinbase() && next_height < in.height + params.coinbase_maturity) {
            return TxAdmission::kImmatureCoinbase;
        }
        if (!chain::add_money(value_in, in.els.outputs[in.out_index].value))
            return TxAdmission::kBadValue;
    }

    chain::Amount value_out = 0;
    for (const auto& out : tx.outputs) {
        if (!chain::money_range(out.value)) return TxAdmission::kBadValue;
        if (!chain::add_money(value_out, out.value)) return TxAdmission::kBadValue;
    }
    if (value_out > value_in) return TxAdmission::kBadValue;
    if (fee_out != nullptr) *fee_out = value_in - value_out;
    return TxAdmission::kAccepted;
}

/// SV of every input in order, first failure wins. `memos`, one per input
/// when given, answer the signature checks they prefetched.
TxAdmission script_verdict(const EbvTransaction& tx, const chain::SighashCache& cache,
                           chain::SigCache* sigcache, std::span<chain::SigMemo> memos = {}) {
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
        if (sv_check_input(tx, i, cache, sigcache, memos.empty() ? nullptr : &memos[i]) !=
            script::ScriptError::kOk)
            return TxAdmission::kScriptFailed;
    }
    return TxAdmission::kAccepted;
}

}  // namespace

const char* to_string(TxAdmission a) {
    switch (a) {
        case TxAdmission::kAccepted: return "accepted";
        case TxAdmission::kDuplicate: return "duplicate";
        case TxAdmission::kConflict: return "conflicts with pooled spend";
        case TxAdmission::kExistenceFailed: return "existence validation failed";
        case TxAdmission::kUnspentFailed: return "unspent validation failed";
        case TxAdmission::kImmatureCoinbase: return "immature coinbase spend";
        case TxAdmission::kBadValue: return "bad value";
        case TxAdmission::kScriptFailed: return "script validation failed";
        case TxAdmission::kNotStandalone: return "coinbase cannot be relayed";
        case TxAdmission::kPoolFull: return "below pool feerate floor";
    }
    return "unknown admission result";
}

TxPoolOptions TxPoolOptions::from_env(TxPoolOptions base) {
    base.max_bytes = util::env_bytes("EBV_MEMPOOL_BYTES", base.max_bytes);
    return base;
}

struct TxPool::Prevalidation {
    crypto::Hash256 leaf;
    TxAdmission verdict = TxAdmission::kAccepted;
    chain::Amount fee = 0;
    std::size_t bytes = 0;
};

bool TxPool::feerate_beats(chain::Amount fee_a, std::size_t bytes_a, chain::Amount fee_b,
                           std::size_t bytes_b) {
    const auto lhs = static_cast<unsigned __int128>(fee_a) * bytes_b;
    const auto rhs = static_cast<unsigned __int128>(fee_b) * bytes_a;
    return lhs > rhs;
}

void TxPool::prevalidate(const EbvTransaction& tx, Prevalidation& out) const {
    out.leaf = tx.leaf_hash();
    out.bytes = tx.serialized_size() + kEntryOverheadBytes;
    const std::uint32_t next_height = headers_.empty() ? 0 : headers_.height() + 1;
    out.verdict = stateless_verdict(tx, params_, headers_, status_, next_height, &out.fee);
}

TxAdmission TxPool::resolve(const EbvTransaction& tx, const Prevalidation& pre) {
    if (pool_.count(pre.leaf)) return TxAdmission::kDuplicate;

    // Pool-internal conflicts: any pooled tx spending one of our inputs.
    std::vector<crypto::Hash256> conflicts;
    for (const EbvInput& in : tx.inputs) {
        const auto it = spends_.find(spend_key(in.height, in.absolute_position()));
        if (it == spends_.end()) continue;
        if (std::find(conflicts.begin(), conflicts.end(), it->second) == conflicts.end())
            conflicts.push_back(it->second);
    }
    if (!conflicts.empty()) {
        // Replace-by-feerate: a fully valid newcomer displaces the pooled
        // spenders only when it strictly out-bids every one of them.
        if (pre.verdict != TxAdmission::kAccepted) return TxAdmission::kConflict;
        for (const crypto::Hash256& leaf : conflicts) {
            const Entry& pooled = pool_.at(leaf);
            if (!feerate_beats(pre.fee, pre.bytes, pooled.fee, pooled.bytes))
                return TxAdmission::kConflict;
        }
    }
    if (pre.verdict != TxAdmission::kAccepted) return pre.verdict;

    for (const crypto::Hash256& leaf : conflicts) {
        erase_entry(leaf);
        TxPoolMetrics::get().replacements.inc();
    }

    Entry entry;
    entry.tx = tx;
    entry.fee = pre.fee;
    entry.bytes = pre.bytes;
    insert_entry(pre.leaf, std::move(entry));

    // The budget may evict the newcomer itself when its feerate ranks last.
    if (trim_to_budget() > 0 && pool_.count(pre.leaf) == 0)
        return TxAdmission::kPoolFull;
    return TxAdmission::kAccepted;
}

void TxPool::insert_entry(const crypto::Hash256& leaf, Entry entry) {
    for (const EbvInput& in : entry.tx.inputs)
        spends_[spend_key(in.height, in.absolute_position())] = leaf;
    ranked_.insert(Rank{entry.fee, entry.bytes, leaf});
    bytes_ += entry.bytes;
    pool_.emplace(leaf, std::move(entry));
}

void TxPool::erase_entry(crypto::Hash256 leaf) {
    const auto it = pool_.find(leaf);
    if (it == pool_.end()) return;
    const Entry& entry = it->second;
    for (const EbvInput& in : entry.tx.inputs)
        spends_.erase(spend_key(in.height, in.absolute_position()));
    ranked_.erase(Rank{entry.fee, entry.bytes, leaf});
    bytes_ -= entry.bytes;
    pool_.erase(it);
}

std::size_t TxPool::trim_to_budget() {
    if (options_.max_bytes == 0) return 0;
    std::size_t evicted = 0;
    while (bytes_ > options_.max_bytes && !ranked_.empty()) {
        erase_entry(std::prev(ranked_.end())->leaf);
        ++evicted;
    }
    if (evicted > 0) TxPoolMetrics::get().budget_evictions.inc(evicted);
    return evicted;
}

TxAdmission TxPool::submit(const EbvTransaction& tx) {
    return submit_batch({&tx, 1})[0];
}

std::vector<TxAdmission> TxPool::submit_batch(std::span<const EbvTransaction> txs) {
    std::vector<TxAdmission> verdicts(txs.size());
    if (txs.empty()) return verdicts;
    TxPoolMetrics& m = TxPoolMetrics::get();
    m.batch_size.observe(static_cast<std::int64_t>(txs.size()));
    util::Stopwatch watch;

    // Stage 1 — stateless prevalidation. Everything state-independent
    // (leaf hash, EV folds, UV against the frozen chain state, value rules,
    // SV incl. sigcache warm-up) happens here; the chain state cannot change
    // mid-batch, so verdicts match serial runs.
    // Claimers take transactions through chain::claim_all. One that passes
    // every check before SV goes to the claimer's PrefetchQueue, which runs
    // its scripts at once, or, with a lane backend, once its inputs'
    // prefetched signature verdicts are all in.
    std::vector<Prevalidation> pre(txs.size());
    // By batch position: a held transaction's memos point at its cache,
    // which the claimer that built it frees once its scripts ran.
    std::vector<std::optional<TxSighashCache>> caches(txs.size());
    const auto claim = [&](std::size_t, std::size_t k, chain::PrefetchQueue& queue) {
        prevalidate(txs[k], pre[k]);
        if (pre[k].verdict != TxAdmission::kAccepted) return;
        std::vector<chain::InputScripts> scripts;
        for (const EbvInput& in : txs[k].inputs) scripts.push_back(input_scripts(in));
        queue.hold(k, scripts, 0, caches[k].emplace(txs[k]), options_.sigcache);
    };
    const auto run = [&](std::size_t k, std::span<chain::SigMemo> memos) {
        pre[k].verdict = script_verdict(txs[k], *caches[k], options_.sigcache, memos);
        caches[k].reset();
    };
    // A transaction ranks as its costliest input.
    std::vector<std::uint32_t> ranks(txs.size(), std::numeric_limits<std::uint32_t>::max());
    for (std::size_t k = 0; k < txs.size(); ++k)
        for (const EbvInput& in : txs[k].inputs)
            ranks[k] = std::min(ranks[k], chain::claim_rank(input_scripts(in)));
    chain::claim_all(options_.pool, chain::claim_order(ranks), claim, run);

    // Stage 2 — serial resolution in submission order: duplicates and
    // conflicts against the pool *and earlier batch entries*, replacement,
    // insertion, budget eviction. This is the only stateful part.
    for (std::size_t i = 0; i < txs.size(); ++i) {
        m.submitted.inc();
        verdicts[i] = resolve(txs[i], pre[i]);
        if (verdicts[i] == TxAdmission::kAccepted) {
            m.accepted.inc();
        } else {
            m.rejected.inc();
        }
        m.admission_ns.observe(static_cast<std::int64_t>(watch.elapsed_ns()));
    }
    m.size.set(static_cast<std::int64_t>(pool_.size()));
    m.bytes.set(static_cast<std::int64_t>(bytes_));
    return verdicts;
}

EbvBlock TxPool::build_template(const script::Script& coinbase_lock,
                                std::size_t max_txs) const {
    const std::uint32_t height = headers_.empty() ? 0 : headers_.height() + 1;

    EbvBlock block;
    block.txs.reserve(1 + std::min(max_txs, ranked_.size()));
    chain::Amount fees = 0;
    EbvTransaction coinbase;  // placeholder; filled once fees are known
    block.txs.push_back(coinbase);
    for (const Rank& rank : ranked_) {
        if (block.txs.size() - 1 >= max_txs) break;
        const Entry& entry = pool_.at(rank.leaf);
        fees += entry.fee;
        block.txs.push_back(entry.tx);
    }

    block.txs[0].coinbase_data = {
        static_cast<std::uint8_t>(height), static_cast<std::uint8_t>(height >> 8),
        static_cast<std::uint8_t>(height >> 16), static_cast<std::uint8_t>(height >> 24), 1};
    block.txs[0].outputs.push_back(
        chain::TxOut{params_.subsidy_at(height) + fees, coinbase_lock});

    block.header.prev_hash = headers_.empty() ? crypto::Hash256{} : headers_.tip_hash();
    block.assign_stake_positions();  // also seals the Merkle root
    return block;
}

std::size_t TxPool::evict_confirmed_spends(const EbvBlock& block) {
    // O(spends in block): each confirmed input hits the spend index once.
    std::size_t evicted = 0;
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        for (const EbvInput& in : block.txs[t].inputs) {
            const auto it = spends_.find(spend_key(in.height, in.absolute_position()));
            if (it == spends_.end()) continue;
            erase_entry(it->second);
            ++evicted;
        }
    }
    TxPoolMetrics& m = TxPoolMetrics::get();
    m.evicted.inc(evicted);
    m.size.set(static_cast<std::int64_t>(pool_.size()));
    m.bytes.set(static_cast<std::int64_t>(bytes_));
    return evicted;
}

std::size_t TxPool::evict_confirmed_spends() {
    std::vector<crypto::Hash256> doomed;
    for (const auto& [leaf, entry] : pool_) {
        for (const EbvInput& in : entry.tx.inputs) {
            if (!status_.check_unspent(in.height, in.absolute_position())) {
                doomed.push_back(leaf);
                break;
            }
        }
    }
    for (const auto& leaf : doomed) erase_entry(leaf);
    TxPoolMetrics& m = TxPoolMetrics::get();
    m.evicted.inc(doomed.size());
    m.size.set(static_cast<std::int64_t>(pool_.size()));
    m.bytes.set(static_cast<std::int64_t>(bytes_));
    return doomed.size();
}

}  // namespace ebv::core
