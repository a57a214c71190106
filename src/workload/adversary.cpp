#include "workload/adversary.hpp"

#include <cstddef>

#include "chain/miner.hpp"
#include "crypto/merkle.hpp"

namespace ebv::workload {

const char* to_string(Mutation m) {
    switch (m) {
        case Mutation::kMbrSibling: return "mbr-sibling";
        case Mutation::kMbrIndex: return "mbr-index";
        case Mutation::kElsValue: return "els-value";
        case Mutation::kElsLockScript: return "els-lock-script";
        case Mutation::kElsLocktime: return "els-locktime";
        case Mutation::kElsVersion: return "els-version";
        case Mutation::kElsStakePosition: return "els-stake-position";
        case Mutation::kInputHeight: return "input-height";
        case Mutation::kInputOutIndex: return "input-out-index";
        case Mutation::kUnlockScript: return "unlock-script";
        case Mutation::kShiftedStakePosition: return "shifted-stake-position";
        case Mutation::kStaleMerkleRoot: return "stale-merkle-root";
        case Mutation::kDropCoinbase: return "drop-coinbase";
        case Mutation::kInjectCoinbase: return "inject-coinbase";
        case Mutation::kEmptyTxList: return "empty-tx-list";
        case Mutation::kDoubleSpendInBlock: return "double-spend-in-block";
        case Mutation::kCrossBlockDoubleSpendNear: return "cross-block-double-spend-near";
        case Mutation::kCrossBlockDoubleSpendFar: return "cross-block-double-spend-far";
        case Mutation::kImmatureCoinbaseSpend: return "immature-coinbase-spend";
        case Mutation::kNegativeFee: return "negative-fee";
        case Mutation::kCoinbaseOverpay: return "coinbase-overpay";
    }
    return "unknown-mutation";
}

namespace {

/// First non-coinbase transaction with at least one input, or nullptr.
core::EbvTransaction* first_spender(core::EbvBlock& block, std::size_t* tx_index) {
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        if (!block.txs[t].inputs.empty()) {
            *tx_index = t;
            return &block.txs[t];
        }
    }
    return nullptr;
}

/// Miner-adversary reseal: the tampered bodies get an honestly recomputed
/// Merkle root, so structural checks pass and the targeted rule (EV, SV,
/// UV, maturity, value) is what rejects the block. Stake positions are
/// left as-is — no mutation below changes output counts of earlier txs.
void reseal(core::EbvBlock& block) {
    block.header.merkle_root = block.compute_merkle_root();
}

/// The input an earlier block spent, for double-spend construction.
const core::EbvInput* spent_input_in(const core::EbvBlock& block) {
    for (const core::EbvTransaction& tx : block.txs) {
        if (!tx.inputs.empty()) return &tx.inputs.front();
    }
    return nullptr;
}

}  // namespace

std::optional<AppliedMutation> Adversary::apply(Mutation m,
                                                std::vector<core::EbvBlock>& blocks,
                                                std::size_t target,
                                                const core::ChainArchive* archive) {
    if (target >= blocks.size()) return std::nullopt;
    core::EbvBlock& block = blocks[target];
    AppliedMutation applied{m, target};

    std::size_t t = 0;
    core::EbvTransaction* tx = first_spender(block, &t);

    switch (m) {
        case Mutation::kMbrSibling: {
            if (tx == nullptr || tx->inputs[0].mbr.siblings.empty()) return std::nullopt;
            tx->inputs[0].mbr.siblings[0].bytes()[0] ^= 0x01;
            reseal(block);
            return applied;
        }
        case Mutation::kMbrIndex: {
            // Index bit i picks the operand order of the fold at level i,
            // which changes nothing where the sibling equals the running
            // node (the last node of an odd level is its own sibling): flip
            // the lowest level where they differ.
            if (tx == nullptr) return std::nullopt;
            crypto::MerkleBranch& mbr = tx->inputs[0].mbr;
            const crypto::Hash256 leaf = tx->inputs[0].els.leaf_hash();
            crypto::MerkleBranch below{{}, mbr.index};  // levels under `level`
            for (std::size_t level = 0; level < mbr.siblings.size(); ++level) {
                if (mbr.siblings[level] != crypto::fold_branch(leaf, below)) {
                    mbr.index ^= 1u << level;
                    reseal(block);
                    return applied;
                }
                below.siblings.push_back(mbr.siblings[level]);
            }
            return std::nullopt;
        }
        case Mutation::kElsValue: {
            if (tx == nullptr) return std::nullopt;
            core::EbvInput& in = tx->inputs[0];
            in.els.outputs[in.out_index].value += 1;
            reseal(block);
            return applied;
        }
        case Mutation::kElsLockScript: {
            if (tx == nullptr) return std::nullopt;
            core::EbvInput& in = tx->inputs[0];
            script::Script& lock = in.els.outputs[in.out_index].lock_script;
            if (lock.size() == 0) return std::nullopt;
            lock[lock.size() / 2] ^= 0x04;
            reseal(block);
            return applied;
        }
        case Mutation::kElsLocktime: {
            if (tx == nullptr) return std::nullopt;
            tx->inputs[0].els.locktime ^= 1;
            reseal(block);
            return applied;
        }
        case Mutation::kElsVersion: {
            if (tx == nullptr) return std::nullopt;
            tx->inputs[0].els.version ^= 1;
            reseal(block);
            return applied;
        }
        case Mutation::kElsStakePosition: {
            if (tx == nullptr) return std::nullopt;
            tx->inputs[0].els.stake_position += 1;
            reseal(block);
            return applied;
        }
        case Mutation::kInputHeight: {
            if (tx == nullptr) return std::nullopt;
            tx->inputs[0].height = 0x7fff0000u;  // far beyond any chain
            reseal(block);
            return applied;
        }
        case Mutation::kInputOutIndex: {
            if (tx == nullptr) return std::nullopt;
            core::EbvInput& in = tx->inputs[0];
            in.out_index = static_cast<std::uint16_t>(in.els.outputs.size());
            reseal(block);
            return applied;
        }
        case Mutation::kUnlockScript: {
            if (tx == nullptr || tx->inputs[0].unlock_script.size() <= 6)
                return std::nullopt;
            tx->inputs[0].unlock_script[5] ^= 0x11;
            reseal(block);
            return applied;
        }
        case Mutation::kShiftedStakePosition: {
            if (block.txs.empty()) return std::nullopt;
            block.txs.back().stake_position += 7;
            reseal(block);  // honest root over the forged positions
            return applied;
        }
        case Mutation::kStaleMerkleRoot: {
            if (block.txs.empty() || block.txs[0].outputs.empty()) return std::nullopt;
            block.txs[0].outputs[0].value += 1;  // body changed, root left stale
            return applied;
        }
        case Mutation::kDropCoinbase: {
            if (tx == nullptr) return std::nullopt;  // need a real tx left over
            block.txs.erase(block.txs.begin());
            return applied;
        }
        case Mutation::kInjectCoinbase: {
            if (block.txs.size() < 2) return std::nullopt;
            block.txs.insert(block.txs.begin() + 1, block.txs[0]);
            return applied;
        }
        case Mutation::kEmptyTxList: {
            block.txs.clear();
            return applied;
        }
        case Mutation::kDoubleSpendInBlock: {
            if (tx == nullptr) return std::nullopt;
            tx->inputs.push_back(tx->inputs[0]);
            reseal(block);
            return applied;
        }
        case Mutation::kCrossBlockDoubleSpendNear:
        case Mutation::kCrossBlockDoubleSpendFar: {
            if (tx == nullptr) return std::nullopt;
            const core::EbvInput* stolen = nullptr;
            if (m == Mutation::kCrossBlockDoubleSpendNear) {
                for (std::size_t b = target; b-- > 0 && stolen == nullptr;)
                    stolen = spent_input_in(blocks[b]);
            } else {
                for (std::size_t b = 0; b < target && stolen == nullptr; ++b)
                    stolen = spent_input_in(blocks[b]);
            }
            if (stolen == nullptr) return std::nullopt;
            tx->inputs[0] = *stolen;
            reseal(block);
            return applied;
        }
        case Mutation::kImmatureCoinbaseSpend: {
            if (tx == nullptr || archive == nullptr || target == 0) return std::nullopt;
            const auto source = static_cast<std::uint32_t>(target - 1);
            if (source >= archive->height_count()) return std::nullopt;
            tx->inputs[0] = archive->make_input(source, 0, 0);
            reseal(block);
            return applied;
        }
        case Mutation::kNegativeFee: {
            if (tx == nullptr || tx->outputs.empty()) return std::nullopt;
            tx->outputs[0].value += 1'000'000'000;  // far above any fee income
            reseal(block);
            return applied;
        }
        case Mutation::kCoinbaseOverpay: {
            if (block.txs.empty() || block.txs[0].outputs.empty()) return std::nullopt;
            block.txs[0].outputs[0].value += 1;
            reseal(block);
            return applied;
        }
    }
    return std::nullopt;
}

std::optional<AppliedMutation> Adversary::apply_random(std::vector<core::EbvBlock>& blocks,
                                                       std::size_t first,
                                                       const core::ChainArchive* archive) {
    if (first >= blocks.size()) return std::nullopt;
    constexpr std::size_t kMutationCount =
        sizeof(kAllMutations) / sizeof(kAllMutations[0]);
    for (int attempt = 0; attempt < 64; ++attempt) {
        const Mutation m = kAllMutations[rng_.below(kMutationCount)];
        if (m == Mutation::kImmatureCoinbaseSpend && archive == nullptr) continue;
        const std::size_t target =
            first + static_cast<std::size_t>(rng_.below(blocks.size() - first));
        if (auto applied = apply(m, blocks, target, archive)) return applied;
    }
    return std::nullopt;
}

chain::Block duplicate_txid_block(const chain::Block& victim, const crypto::Hash256& parent,
                                  std::uint32_t time) {
    chain::Transaction coinbase = victim.txs[0];
    return chain::assemble_block(parent, std::move(coinbase), {}, time);
}

core::EbvBlock duplicate_txid_ebv_block(const core::EbvBlock& victim,
                                        const crypto::Hash256& parent) {
    core::EbvBlock block;
    block.header = victim.header;
    block.header.prev_hash = parent;
    block.txs.push_back(victim.txs[0]);
    block.assign_stake_positions();
    return block;
}

}  // namespace ebv::workload
