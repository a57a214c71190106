#include "core/ebv_validator.hpp"

#include "chain/amount.hpp"
#include "chain/sighash.hpp"
#include "core/sig_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/sha256.hpp"
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
                                   std::optional<crypto::VerifyJob>* deferred) {
    const EbvInput& in = tx.inputs[input_index];
    const script::Script& lock = in.els.outputs[in.out_index].lock_script;
    if (deferred != nullptr) {
        deferred->reset();
        EbvSignatureChecker checker(cache, input_index, sigcache, deferred);
        const script::ScriptError err = script::verify_script(in.unlock_script, lock, checker);
        if (err == script::ScriptError::kOk || !*deferred) return err;
        // The assumed-valid signature may have steered the failing run, so
        // only an inline run gives the exact error.
        deferred->reset();
    }
    EbvSignatureChecker checker(cache, input_index, sigcache);
    return script::verify_script(in.unlock_script, lock, checker);
}

bool is_standard_p2pkh(const EbvInput& in) {
    // Byte patterns, no decoding: this runs serially over every input of a
    // pipeline window.
    if (in.out_index >= in.els.outputs.size()) return false;
    const util::Bytes& lock = in.els.outputs[in.out_index].lock_script;
    if (lock.size() != 25 || lock[0] != script::OP_DUP || lock[1] != script::OP_HASH160 ||
        lock[2] != 20 || lock[23] != script::OP_EQUALVERIFY || lock[24] != script::OP_CHECKSIG)
        return false;
    const util::Bytes& unlock = in.unlock_script;
    const auto direct_push = [](std::uint8_t op) { return op >= 1 && op <= 75; };
    if (unlock.empty() || !direct_push(unlock[0])) return false;
    const std::size_t second = 1 + std::size_t{unlock[0]};
    return second < unlock.size() && direct_push(unlock[second]) &&
           second + 1 + unlock[second] == unlock.size();
}

void LaneBatcher::add(const crypto::VerifyJob& job, std::size_t owner) {
    jobs_[size_] = job;
    owners_[size_++] = owner;
    if (size_ == crypto::kVerifyLanes) flush();
}

void LaneBatcher::flush() {
    const std::uint8_t valid = crypto::verify_lanes({jobs_.data(), size_});
    for (std::size_t k = 0; k < size_; ++k) {
        if ((valid >> k & 1) == 0) {
            on_false_(owners_[k]);
        } else if (sigcache_ != nullptr) {
            sigcache_->insert(jobs_[k]);
        }
    }
    size_ = 0;
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
    const auto job = chain::signature_job(cache_, input_index_, signature, pubkey, script_code);
    if (!job) return false;
    // Cache hit = this exact (sighash, pubkey, sig) triple already verified
    // TRUE (only successes are ever inserted), so the curve check is
    // redundant. Misses verify inline and, on success, warm the cache.
    if (sigcache_ != nullptr && sigcache_->contains(*job)) return true;
    if (deferred_ != nullptr && !deferred_->has_value()) {
        *deferred_ = *job;
        return true;
    }
    const bool ok = job->key.verify(job->digest, job->sig);
    if (ok && sigcache_ != nullptr) sigcache_->insert(*job);
    return ok;
}

}  // namespace ebv::core
