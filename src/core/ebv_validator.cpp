#include "core/ebv_validator.hpp"

#include <algorithm>

#include "chain/amount.hpp"
#include "chain/sighash.hpp"
#include "core/sig_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "script/opcodes.hpp"
#include "util/assert.hpp"

namespace ebv::core {

const char* to_string(EbvError e) {
    switch (e) {
        case EbvError::kEmptyBlock: return "empty block";
        case EbvError::kFirstTxNotCoinbase: return "first tx not coinbase";
        case EbvError::kUnexpectedCoinbase: return "unexpected coinbase";
        case EbvError::kMissingInputs: return "transaction has no inputs";
        case EbvError::kMerkleRootMismatch: return "merkle root mismatch";
        case EbvError::kBadStakePosition: return "bad stake position";
        case EbvError::kTooManyOutputs: return "too many outputs";
        case EbvError::kUnknownHeight: return "input height beyond chain";
        case EbvError::kExistenceFailed: return "existence validation failed";
        case EbvError::kBadOutIndex: return "output index not in ELs";
        case EbvError::kUnspentFailed: return "unspent validation failed";
        case EbvError::kDoubleSpendInBlock: return "double spend within block";
        case EbvError::kImmatureCoinbaseSpend: return "immature coinbase spend";
        case EbvError::kValueOutOfRange: return "value out of range";
        case EbvError::kNegativeFee: return "negative fee";
        case EbvError::kCoinbaseValueTooHigh: return "coinbase value too high";
        case EbvError::kScriptFailure: return "script validation failed";
        case EbvError::kBadPrevHash: return "previous block hash is not the tip";
    }
    return "unknown EBV error";
}

std::string EbvValidationFailure::describe() const {
    std::string out = to_string(error);
    out += " (tx " + std::to_string(tx_index) + ", input " + std::to_string(input_index);
    if (error == EbvError::kScriptFailure) {
        out += ", script: ";
        out += script::to_string(script_error);
    }
    out += ")";
    return out;
}

EbvError to_ebv_error(EvStatus status) {
    switch (status) {
        case EvStatus::kUnknownHeight: return EbvError::kUnknownHeight;
        case EvStatus::kBadOutIndex: return EbvError::kBadOutIndex;
        case EvStatus::kExistenceFailed: return EbvError::kExistenceFailed;
        case EvStatus::kOk: break;
    }
    EBV_ASSERT(false);  // kOk is not an error
    return EbvError::kExistenceFailed;
}

EvStatus ev_check_input(const EbvInput& in, const chain::BlockHeader* header,
                        std::uint32_t spending_height) {
    if (header == nullptr || in.height >= spending_height) return EvStatus::kUnknownHeight;
    if (in.out_index >= in.els.outputs.size()) return EvStatus::kBadOutIndex;
    const crypto::Hash256 folded = crypto::fold_branch(in.els.leaf_hash(), in.mbr);
    if (folded != header->merkle_root) return EvStatus::kExistenceFailed;
    return EvStatus::kOk;
}

script::ScriptError sv_check_input(const EbvTransaction& tx, std::size_t input_index,
                                   const chain::SighashCache& cache, SigCache* sigcache,
                                   SigMemo* memo) {
    const EbvInput& in = tx.inputs[input_index];
    const script::Script& lock = in.els.outputs[in.out_index].lock_script;
    EbvSignatureChecker checker(cache, input_index, sigcache, memo);
    return script::verify_script(in.unlock_script, lock, checker);
}

namespace {

bool same_bytes(util::ByteSpan a, util::ByteSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Reads the direct push (1–75 bytes) at `pos` and steps past it.
std::optional<util::ByteSpan> direct_push(const util::Bytes& script, std::size_t& pos) {
    if (pos >= script.size()) return std::nullopt;
    const std::size_t len = script[pos];
    if (len < 1 || len > 75 || script.size() - pos - 1 < len) return std::nullopt;
    const util::ByteSpan data(script.data() + pos + 1, len);
    pos += 1 + len;
    return data;
}

}  // namespace

std::size_t standard_candidates(const EbvInput& in,
                                std::span<SigCandidate, kMaxSigCandidates> out) {
    if (in.out_index >= in.els.outputs.size()) return 0;
    const util::Bytes& lock = in.els.outputs[in.out_index].lock_script;
    const util::Bytes& unlock = in.unlock_script;
    if (lock.size() < 3) return 0;
    std::size_t pos = 0;

    if (lock.back() == script::OP_CHECKSIG) {
        // P2PKH takes its key from the unlock, P2PK from the lock.
        const bool p2pkh = lock.size() == 25 && lock[0] == script::OP_DUP &&
                           lock[1] == script::OP_HASH160 && lock[2] == 20 &&
                           lock[23] == script::OP_EQUALVERIFY;
        std::size_t key_pos = 0;
        const auto sig = direct_push(unlock, pos);
        const auto pubkey = p2pkh ? direct_push(unlock, pos) : direct_push(lock, key_pos);
        if (!sig || !pubkey || pos != unlock.size() || (!p2pkh && key_pos + 1 != lock.size()))
            return 0;
        out[0] = {*sig, *pubkey};
        return 1;
    }

    if (lock.back() != script::OP_CHECKMULTISIG || unlock.empty() || unlock[0] != script::OP_0)
        return 0;
    const auto small_int = [](std::uint8_t op) -> std::size_t {
        return op >= script::OP_1 && op <= script::OP_16 ? op - script::OP_1 + 1 : 0;
    };
    const std::size_t m = small_int(lock[0]);
    const std::size_t n = small_int(lock[lock.size() - 2]);
    if (m == 0 || n < m || m * (n - m + 1) > 2 * n) return 0;
    std::array<util::ByteSpan, 16> keys;
    pos = 1;
    for (std::size_t j = 0; j < n; ++j) {
        const auto key = direct_push(lock, pos);
        if (!key) return 0;
        keys[j] = *key;
    }
    if (pos + 2 != lock.size()) return 0;
    pos = 1;
    std::size_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const auto sig = direct_push(unlock, pos);
        if (!sig) return 0;
        for (std::size_t j = i; j <= n - m + i; ++j) out[count++] = {*sig, keys[j]};
    }
    return pos == unlock.size() ? count : 0;
}

void LaneBatcher::add(const crypto::VerifyJob& job, SigVerdict* verdict) {
    jobs_[size_] = job;
    verdicts_[size_++] = verdict;
    if (size_ == crypto::kVerifyLanes) flush();
}

void LaneBatcher::flush() {
    const std::uint8_t valid = crypto::verify_lanes({jobs_.data(), size_});
    for (std::size_t k = 0; k < size_; ++k)
        *verdicts_[k] = (valid >> k & 1) != 0 ? SigVerdict::kTrue : SigVerdict::kFalse;
    size_ = 0;
}

void SigMemo::prefetch(const EbvTransaction& tx, std::size_t input_index,
                       const chain::SighashCache& cache, SigCache* sigcache,
                       LaneBatcher& batcher) {
    const EbvInput& in = tx.inputs[input_index];
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    const std::size_t count = standard_candidates(in, pairs);
    if (count == 0) return;
    cache_ = &cache;
    sigcache_ = sigcache;
    input_index_ = input_index;
    script_code_ = in.els.outputs[in.out_index].lock_script;
    entries_.resize(count);
    for (std::size_t k = 0; k < count; ++k) entries_[k].pair = pairs[k];
    // Sig-major order: the pairs share one signature only for 1-of-n,
    // whose script stops at the first true pair.
    const bool one_sig = pairs[0].sig.data() == pairs[count - 1].sig.data();
    queue(0, one_sig ? 1 : count, batcher);
}

void SigMemo::queue(std::size_t from, std::size_t to, LaneBatcher& batcher) {
    for (std::size_t k = from; k < to; ++k) {
        Entry& e = entries_[k];
        const auto job =
            chain::signature_job(*cache_, input_index_, e.pair.sig, e.pair.pubkey, script_code_);
        if (!job) {
            e.verdict = SigVerdict::kRefused;
            continue;
        }
        e.job = *job;
        if (sigcache_ != nullptr && sigcache_->contains(e.job)) {
            e.verdict = SigVerdict::kCached;
            continue;
        }
        e.verdict = SigVerdict::kQueued;
        batcher.add(e.job, &e.verdict);
    }
}

bool SigMemo::advance(LaneBatcher& batcher) {
    for (const Entry& e : entries_)
        if (e.verdict == SigVerdict::kQueued) return false;
    if (entries_.size() < 2 || entries_[1].verdict != SigVerdict::kLater) return true;
    const SigVerdict head = entries_[0].verdict;
    if (head == SigVerdict::kTrue || head == SigVerdict::kCached) return true;
    queue(1, entries_.size(), batcher);
    return advance(batcher);
}

std::optional<bool> SigMemo::take(util::ByteSpan sig, util::ByteSpan pubkey,
                                  util::ByteSpan script_code) {
    if (entries_.empty() || !same_bytes(script_code, script_code_)) return std::nullopt;
    for (Entry& e : entries_) {
        if (e.verdict == SigVerdict::kLater || !same_bytes(e.pair.sig, sig) ||
            !same_bytes(e.pair.pubkey, pubkey))
            continue;
        EBV_ASSERT(e.verdict != SigVerdict::kQueued);
        if (e.verdict == SigVerdict::kTrue && !e.read && sigcache_ != nullptr)
            sigcache_->insert(e.job);
        e.read = true;
        return e.verdict == SigVerdict::kTrue || e.verdict == SigVerdict::kCached;
    }
    return std::nullopt;
}

void SigMemo::retire() const {
    static obs::Counter& lane_unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    std::uint64_t unused = 0;
    for (const Entry& e : entries_)
        unused += !e.read && (e.verdict == SigVerdict::kTrue || e.verdict == SigVerdict::kFalse);
    if (unused > 0) lane_unused.inc(unused);
}

void PrefetchQueue::hold(std::size_t owner, const EbvTransaction& tx, std::size_t first,
                         std::size_t count, const chain::SighashCache& cache,
                         SigCache* sigcache) {
    Held& item = held_.emplace_back(Held{owner, std::vector<SigMemo>(count)});
    for (std::size_t i = 0; i < count; ++i)
        item.memos[i].prefetch(tx, first + i, cache, sigcache, batcher_);
    run_ready();
}

void PrefetchQueue::drain() {
    // Two rounds: the queued verdicts, then the 1-of-n tails they call for.
    for (int round = 0; round < 2 && !held_.empty(); ++round) {
        batcher_.flush();
        run_ready();
    }
    EBV_ENSURES(held_.empty());
}

void PrefetchQueue::run_ready() {
    for (std::size_t h = 0; h < held_.size();) {
        bool ready = true;
        for (SigMemo& memo : held_[h].memos) ready = memo.advance(batcher_) && ready;
        if (!ready) {
            ++h;
            continue;
        }
        run_(held_[h].owner, held_[h].memos);
        for (const SigMemo& memo : held_[h].memos) memo.retire();
        if (h + 1 != held_.size()) held_[h] = std::move(held_.back());
        held_.pop_back();
    }
}

std::optional<EbvValidationFailure> check_block_structure(const EbvBlock& block,
                                                          const chain::ChainParams& params) {
    if (auto failure = check_block_shape(block, params)) return failure;
    if (block.compute_merkle_root() != block.header.merkle_root)
        return EbvValidationFailure{EbvError::kMerkleRootMismatch};
    return check_block_values(block);
}

std::optional<EbvValidationFailure> check_block_shape(const EbvBlock& block,
                                                      const chain::ChainParams& params) {
    if (block.txs.empty()) return EbvValidationFailure{EbvError::kEmptyBlock};
    if (!block.txs[0].is_coinbase())
        return EbvValidationFailure{EbvError::kFirstTxNotCoinbase};
    for (std::size_t i = 1; i < block.txs.size(); ++i) {
        if (block.txs[i].is_coinbase())
            return EbvValidationFailure{EbvError::kUnexpectedCoinbase, i};
        if (block.txs[i].inputs.empty())
            return EbvValidationFailure{EbvError::kMissingInputs, i};
    }
    if (block.output_count() > params.max_outputs_per_block)
        return EbvValidationFailure{EbvError::kTooManyOutputs};

    // Stake positions must be the running output count (§IV-D2); a
    // wrong assignment would let absolute positions be forged.
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        if (block.txs[i].stake_position != running)
            return EbvValidationFailure{EbvError::kBadStakePosition, i};
        running += static_cast<std::uint32_t>(block.txs[i].outputs.size());
    }
    return std::nullopt;
}

std::optional<EbvValidationFailure> check_block_values(const EbvBlock& block) {
    for (std::size_t t = 0; t < block.txs.size(); ++t) {
        chain::Amount total_out = 0;
        for (const auto& out : block.txs[t].outputs) {
            // add_money also bounds the per-tx output *sum*: 65k individually
            // in-range outputs can still wrap total_output_value() past the
            // supply cap, so the later fee arithmetic must never see it.
            if (!chain::add_money(total_out, out.value))
                return EbvValidationFailure{EbvError::kValueOutOfRange, t};
        }
    }
    return std::nullopt;
}

bool EbvSignatureChecker::check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                          util::ByteSpan script_code) const {
    if (memo_ != nullptr) {
        if (const auto verdict = memo_->take(signature, pubkey, script_code)) return *verdict;
    }
    const auto job = chain::signature_job(cache_, input_index_, signature, pubkey, script_code);
    if (!job) return false;
    // Cache hit = this exact (sighash, pubkey, sig) triple already verified
    // TRUE (only successes are ever inserted), so the curve check is
    // redundant. Misses verify inline and, on success, warm the cache.
    if (sigcache_ != nullptr && sigcache_->contains(*job)) return true;
    const bool ok = job->key.verify(job->digest, job->sig);
    if (ok && sigcache_ != nullptr) sigcache_->insert(*job);
    return ok;
}

}  // namespace ebv::core
