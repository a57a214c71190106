#include "chain/validation.hpp"

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "chain/sighash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ebv::chain {

const char* to_string(BlockError e) {
    switch (e) {
        case BlockError::kEmptyBlock: return "empty block";
        case BlockError::kFirstTxNotCoinbase: return "first tx not coinbase";
        case BlockError::kMultipleCoinbases: return "multiple coinbases";
        case BlockError::kMerkleRootMismatch: return "merkle root mismatch";
        case BlockError::kDuplicateTxid: return "duplicate txid";
        case BlockError::kTooManyOutputs: return "too many outputs";
        case BlockError::kMissingOrSpentOutput: return "missing or spent output";
        case BlockError::kImmatureCoinbaseSpend: return "immature coinbase spend";
        case BlockError::kValueOutOfRange: return "value out of range";
        case BlockError::kNegativeFee: return "negative fee";
        case BlockError::kCoinbaseValueTooHigh: return "coinbase value too high";
        case BlockError::kScriptFailure: return "script validation failed";
        case BlockError::kBadPrevHash: return "previous block hash is not the tip";
    }
    return "unknown block error";
}

std::string ValidationFailure::describe() const {
    std::string out = to_string(error);
    out += " (tx " + std::to_string(tx_index) + ", input " + std::to_string(input_index);
    if (error == BlockError::kScriptFailure) {
        out += ", script: ";
        out += script::to_string(script_error);
    }
    out += ")";
    return out;
}

namespace {

/// Phase timer: accumulates wall time plus the status DB's modelled device
/// time into one TimeCost. DBO time is taken from the StatusDb's own
/// instrumentation instead, so this is used for SV and "other".
class PhaseTimer {
public:
    explicit PhaseTimer(util::TimeCost& target) : target_(target) {}
    ~PhaseTimer() { target_.wall_ns += watch_.elapsed_ns(); }

private:
    util::TimeCost& target_;
    util::Stopwatch watch_;
};

util::TimeCost dbo_cost_of(const storage::DboStats& stats) {
    return stats.total_time();
}

/// Registry handles, resolved once; values survive Registry::reset().
struct BtcMetrics {
    obs::Counter& connects;
    obs::Counter& rejects;
    obs::Counter& txs;
    obs::Counter& inputs;
    obs::Counter& outputs;
    obs::Histogram& dbo_ns;
    obs::Histogram& sv_ns;
    obs::Histogram& other_ns;
    obs::Histogram& total_ns;

    static BtcMetrics& get() {
        static BtcMetrics m{
            obs::Registry::global().counter("btc.block.connects"),
            obs::Registry::global().counter("btc.block.rejects"),
            obs::Registry::global().counter("btc.block.txs"),
            obs::Registry::global().counter("btc.block.inputs"),
            obs::Registry::global().counter("btc.block.outputs"),
            obs::Registry::global().histogram("btc.block.dbo_ns"),
            obs::Registry::global().histogram("btc.block.sv_ns"),
            obs::Registry::global().histogram("btc.block.other_ns"),
            obs::Registry::global().histogram("btc.block.total_ns"),
        };
        return m;
    }
};

}  // namespace

util::Result<BlockTimings, ValidationFailure> BitcoinValidator::connect_block(
    const Block& block, std::uint32_t height, BlockUndo* undo) {
    obs::ScopedSpan block_span("btc.block", "block");
    block_span.set_value(height);
    auto result = connect_block_impl(block, height, undo);
    BtcMetrics& m = BtcMetrics::get();
    if (!result) {
        m.rejects.inc();
        return result;
    }

    const BlockTimings& t = *result;
    m.connects.inc();
    m.txs.inc(block.txs.size());
    m.inputs.inc(t.inputs);
    m.outputs.inc(t.outputs);
    m.dbo_ns.observe(t.dbo.total_ns());
    m.sv_ns.observe(t.sv.total_ns());
    m.other_ns.observe(t.other.total_ns());
    m.total_ns.observe(t.total().total_ns());

    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.record("btc.block.dbo", t.dbo);
        tracer.record("btc.block.sv", t.sv);
        tracer.record("btc.block.total", t.total());
    }
    return result;
}

util::Result<BlockTimings, ValidationFailure> BitcoinValidator::connect_block_impl(
    const Block& block, std::uint32_t height, BlockUndo* undo) {
    BlockTimings timings;
    timings.inputs = block.input_count();
    timings.outputs = block.output_count();

    storage::StatusDb& db = utxo_.db();
    const storage::DboStats dbo_before = db.dbo();

    // ---- Structural checks (counted as "other") -------------------------
    {
        PhaseTimer timer(timings.other);
        if (block.txs.empty())
            return util::Unexpected{ValidationFailure{BlockError::kEmptyBlock}};
        if (!block.txs[0].is_coinbase())
            return util::Unexpected{ValidationFailure{BlockError::kFirstTxNotCoinbase}};
        for (std::size_t i = 1; i < block.txs.size(); ++i) {
            if (block.txs[i].is_coinbase())
                return util::Unexpected{ValidationFailure{BlockError::kMultipleCoinbases, i}};
        }
        if (block.output_count() > params_.max_outputs_per_block)
            return util::Unexpected{ValidationFailure{BlockError::kTooManyOutputs}};
        if (block.compute_merkle_root() != block.header.merkle_root)
            return util::Unexpected{ValidationFailure{BlockError::kMerkleRootMismatch}};

        std::unordered_set<crypto::Hash256, crypto::Hash256Hasher> seen;
        seen.reserve(block.txs.size());
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
            if (!seen.insert(block.txs[i].txid()).second)
                return util::Unexpected{ValidationFailure{BlockError::kDuplicateTxid, i}};
        }
    }

    // ---- Input checking: ❶ Fetch (EV+UV) then ② SV ----------------------
    struct PendingScript {
        std::size_t tx_index;
        std::size_t input_index;
        Coin coin;
    };
    std::vector<PendingScript> script_jobs;
    script_jobs.reserve(timings.inputs);

    // Outputs created earlier in this same block are spendable by later
    // transactions; track them so intra-block spends resolve.
    std::unordered_map<OutPoint, Coin, OutPointHasher> intra_block;
    std::unordered_set<OutPoint, OutPointHasher> intra_block_spent;

    Amount total_fees = 0;
    for (std::size_t t = 0; t < block.txs.size(); ++t) {
        const Transaction& tx = block.txs[t];

        {
            PhaseTimer timer(timings.other);
            Amount total_out = 0;
            for (const TxOut& out : tx.vout) {
                // add_money also bounds the per-tx output *sum*: 65k
                // individually in-range outputs can still wrap
                // total_output_value() past the supply cap.
                if (!add_money(total_out, out.value))
                    return util::Unexpected{ValidationFailure{BlockError::kValueOutOfRange, t}};
            }
        }

        // BIP30-style duplicate-txid rule: a transaction whose outputs are
        // still unspent must not be re-created — utxo_.add would silently
        // overwrite the earlier coins, destroying them and corrupting undo
        // data. The probe is a ❶-style fetch, so the status DB instruments
        // it as DBO time like any other lookup.
        for (std::uint32_t o = 0; o < tx.vout.size(); ++o) {
            if (utxo_.fetch(OutPoint{tx.txid(), o})) {
                return util::Unexpected{ValidationFailure{BlockError::kDuplicateTxid, t}};
            }
        }

        {
            PhaseTimer timer(timings.other);
            for (std::uint32_t o = 0; o < tx.vout.size(); ++o) {
                intra_block.emplace(OutPoint{tx.txid(), o},
                                    Coin{tx.vout[o].value, height, tx.is_coinbase(),
                                         tx.vout[o].lock_script});
            }
        }
        if (tx.is_coinbase()) continue;

        Amount value_in = 0;
        for (std::size_t i = 0; i < tx.vin.size(); ++i) {
            const OutPoint& prevout = tx.vin[i].prevout;

            // A prevout consumed earlier in this very block is already
            // spent, wherever it came from.
            if (intra_block_spent.count(prevout)) {
                return util::Unexpected{
                    ValidationFailure{BlockError::kMissingOrSpentOutput, t, i}};
            }

            // ❶ Fetch — the StatusDb instruments this as DBO time.
            std::optional<Coin> coin;
            if (const auto it = intra_block.find(prevout); it != intra_block.end()) {
                coin = it->second;
            } else {
                coin = utxo_.fetch(prevout);
            }
            if (!coin) {
                return util::Unexpected{
                    ValidationFailure{BlockError::kMissingOrSpentOutput, t, i}};
            }

            {
                PhaseTimer timer(timings.other);
                if (coin->coinbase && height < coin->height + params_.coinbase_maturity) {
                    return util::Unexpected{
                        ValidationFailure{BlockError::kImmatureCoinbaseSpend, t, i}};
                }
                // Guarded accumulation: per-coin range checks don't bound
                // the sum — unchecked += is the classic inflation overflow.
                if (!add_money(value_in, coin->value)) {
                    return util::Unexpected{
                        ValidationFailure{BlockError::kValueOutOfRange, t, i}};
                }
                intra_block_spent.insert(prevout);
            }

            script_jobs.push_back(PendingScript{t, i, std::move(*coin)});
        }

        {
            PhaseTimer timer(timings.other);
            const Amount value_out = block.txs[t].total_output_value();
            if (value_in < value_out)
                return util::Unexpected{ValidationFailure{BlockError::kNegativeFee, t}};
            if (!add_money(total_fees, value_in - value_out))
                return util::Unexpected{ValidationFailure{BlockError::kValueOutOfRange, t}};
        }
    }

    // Coinbase value rule.
    {
        PhaseTimer timer(timings.other);
        const Amount allowed = params_.subsidy_at(height) + total_fees;
        if (block.txs[0].total_output_value() > allowed)
            return util::Unexpected{ValidationFailure{BlockError::kCoinbaseValueTooHigh, 0}};
    }

    // ② SV, one job per input through EBV's claim loop (claim_all). The
    // reported failure is the lowest failing job (tx-major input order), as
    // a serial loop would find it: a job is skipped only when a lower one has
    // already failed, and the failure index only ever decreases (CAS-min), so
    // every job below the final minimum ran to its verdict.
    if (options_.verify_scripts && !script_jobs.empty()) {
        PhaseTimer timer(timings.sv);
        constexpr std::size_t kNoFail = std::numeric_limits<std::size_t>::max();
        std::atomic<std::size_t> first_fail{kNoFail};
        std::vector<script::ScriptError> errors(script_jobs.size(), script::ScriptError::kOk);

        // One sighash cache per transaction over its fetched coins' lock
        // scripts (a transaction's jobs are contiguous, in input order),
        // shared by all of its input jobs and built by whichever claimer
        // reaches the tx first. once_flag is neither movable nor copyable,
        // hence the raw array.
        std::vector<std::optional<SighashCache>> caches(block.txs.size());
        const auto cache_once = std::make_unique<std::once_flag[]>(block.txs.size());
        const auto cache_of = [&](std::size_t j) -> const SighashCache& {
            const PendingScript& job = script_jobs[j];
            const Transaction& tx = block.txs[job.tx_index];
            std::call_once(cache_once[job.tx_index], [&] {
                std::vector<util::ByteSpan> locks;
                locks.reserve(tx.vin.size());
                for (std::size_t k = j - job.input_index; locks.size() < tx.vin.size(); ++k)
                    locks.emplace_back(script_jobs[k].coin.lock_script);
                caches[job.tx_index].emplace(SighashTemplate::build(tx), locks);
            });
            return *caches[job.tx_index];
        };
        const auto scripts_of = [&](std::size_t j) {
            const PendingScript& job = script_jobs[j];
            return InputScripts{block.txs[job.tx_index].vin[job.input_index].unlock_script,
                                job.coin.lock_script};
        };
        const auto claim = [&](std::size_t, std::size_t j, PrefetchQueue& queue) {
            if (j > first_fail.load(std::memory_order_relaxed)) return;
            const InputScripts scripts = scripts_of(j);
            queue.hold(j, {&scripts, 1}, script_jobs[j].input_index, cache_of(j), nullptr);
        };
        const auto run = [&](std::size_t j, std::span<SigMemo> memos) {
            if (j > first_fail.load(std::memory_order_relaxed)) return;
            const script::ScriptError err = verify_input(
                scripts_of(j), script_jobs[j].input_index, cache_of(j), nullptr, memos.data());
            if (err == script::ScriptError::kOk) return;
            errors[j] = err;
            util::atomic_min(first_fail, j);
        };
        claim_all(options_.script_pool, script_jobs.size(), claim, run);
        const std::size_t j = first_fail.load(std::memory_order_relaxed);
        if (j != kNoFail) {
            return util::Unexpected{ValidationFailure{BlockError::kScriptFailure,
                                                      script_jobs[j].tx_index,
                                                      script_jobs[j].input_index, errors[j]}};
        }
    }

    // Record undo data (spent coins, tx-major in input order) before apply.
    if (undo != nullptr) {
        undo->txs.clear();
        undo->txs.resize(block.txs.size() > 0 ? block.txs.size() - 1 : 0);
        for (const PendingScript& job : script_jobs) {
            undo->txs[job.tx_index - 1].spent_coins.push_back(job.coin);
        }
    }

    // ---- Apply: ❸ Delete spent entries, ❹ Insert new outputs ------------
    for (const Transaction& tx : block.txs) {
        if (tx.is_coinbase()) continue;
        for (const TxIn& in : tx.vin) {
            // Spends of outputs created in this block never reached the DB.
            if (!utxo_.spend(in.prevout)) {
                // Entry was intra-block; nothing stored yet.
            }
        }
    }
    for (const Transaction& tx : block.txs) {
        const crypto::Hash256& txid = tx.txid();
        for (std::uint32_t o = 0; o < tx.vout.size(); ++o) {
            const OutPoint outpoint{txid, o};
            if (intra_block_spent.count(outpoint)) continue;  // born and died here
            utxo_.add(outpoint, Coin{tx.vout[o].value, height, tx.is_coinbase(),
                                     tx.vout[o].lock_script});
        }
    }

    // DBO time is whatever the status DB accumulated during this call.
    const storage::DboStats dbo_after = db.dbo();
    timings.dbo.wall_ns =
        dbo_cost_of(dbo_after).wall_ns - dbo_cost_of(dbo_before).wall_ns;
    timings.dbo.simulated_ns =
        dbo_cost_of(dbo_after).simulated_ns - dbo_cost_of(dbo_before).simulated_ns;

    return timings;
}

void BitcoinValidator::disconnect_block(const Block& block, const BlockUndo& undo) {
    // Restore spent coins first: intra-block coins (outputs of this same
    // block that were consumed inside it) get re-inserted here and deleted
    // again below, which nets out correctly because every outpoint the
    // block created is erased in the second pass.
    std::size_t undo_index = 0;
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        const Transaction& tx = block.txs[t];
        EBV_EXPECTS(undo_index < undo.txs.size());
        const TxUndo& tx_undo = undo.txs[undo_index++];
        EBV_EXPECTS(tx_undo.spent_coins.size() == tx.vin.size());
        for (std::size_t i = 0; i < tx.vin.size(); ++i) {
            utxo_.add(tx.vin[i].prevout, tx_undo.spent_coins[i]);
        }
    }

    for (const Transaction& tx : block.txs) {
        const crypto::Hash256& txid = tx.txid();
        for (std::uint32_t o = 0; o < tx.vout.size(); ++o) {
            utxo_.spend(OutPoint{txid, o});
        }
    }
}

}  // namespace ebv::chain
