#include "core/ebv_validator.hpp"

#include "chain/amount.hpp"
#include "crypto/sha256.hpp"
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

chain::InputScripts input_scripts(const EbvInput& in) {
    if (in.out_index >= in.els.outputs.size()) return {in.unlock_script, {}};
    return {in.unlock_script, in.els.outputs[in.out_index].lock_script};
}

script::ScriptError sv_check_input(const EbvTransaction& tx, std::size_t input_index,
                                   const chain::SighashCache& cache, chain::SigCache* sigcache,
                                   chain::SigMemo* memo) {
    return chain::verify_input(input_scripts(tx.inputs[input_index]), input_index, cache,
                               sigcache, memo);
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

}  // namespace ebv::core
