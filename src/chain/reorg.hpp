// Branch switching for both node types: atomically replace the chain's
// suffix with a longer competing branch, rolling back to the original
// branch if any block of the replacement fails validation. Fork choice is
// longest-chain (all simulated blocks carry equal difficulty).
//
// A node qualifies by offering submit_block(block), disconnect_tip(tip)
// (the caller passes the tip block, which must match the tip header),
// headers(), next_height() and a block_store() that reproduces the chain.
// chain::BitcoinNode and core::EbvNode both do; the routine below never
// asks which one it holds.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/result.hpp"

namespace ebv::chain {

enum class ReorgError {
    kNeedsBlockStore,   ///< node wasn't configured with a block store
    kUnknownForkPoint,  ///< branch[0] doesn't attach to any known header
    kBranchNotLonger,   ///< replacement must strictly exceed the current tip
    kRollbackFailed,    ///< the store cannot reproduce the suffix, or a restore failed
};

[[nodiscard]] inline const char* to_string(ReorgError e) {
    switch (e) {
        case ReorgError::kNeedsBlockStore: return "node has no block store";
        case ReorgError::kUnknownForkPoint: return "branch does not attach to the chain";
        case ReorgError::kBranchNotLonger: return "branch is not longer than the chain";
        case ReorgError::kRollbackFailed: return "rollback failed";
    }
    return "unknown reorg error";
}

template <class Failure>
struct ReorgOutcome {
    /// Height of the last common block (the fork point).
    std::uint32_t fork_height = 0;
    std::uint32_t blocks_disconnected = 0;
    std::uint32_t blocks_connected = 0;
    /// False if the branch was invalid and the original chain was restored.
    bool switched = false;
    /// The rejection that stopped the branch (valid when !switched).
    Failure branch_failure{};
};

/// The outcome type for a node: ReorgOutcome over its submit_block failure.
template <class Node, class Block>
using ReorgOutcomeOf = ReorgOutcome<std::remove_cvref_t<
    decltype(std::declval<Node&>().submit_block(std::declval<const Block&>()).error())>>;

/// Attempt to switch to `branch`, whose first block must link to a header
/// currently in the chain. On a validation failure inside the branch the
/// original suffix is restored and `switched == false` is returned (the
/// call is then a no-op overall).
template <class Node, class Block>
util::Result<ReorgOutcomeOf<Node, Block>, ReorgError> reorg_to(
    Node& node, const std::vector<Block>& branch) {
    if (node.block_store() == nullptr) return util::Unexpected{ReorgError::kNeedsBlockStore};
    if (branch.empty()) return util::Unexpected{ReorgError::kBranchNotLonger};

    // Locate the fork point. A zero prev-hash attaches before genesis.
    const auto& attach = branch[0].header.prev_hash;
    std::uint32_t fork_height_plus_1 = 0;  // first height to be replaced
    if (!attach.is_zero()) {
        const auto found = node.headers().find(attach);
        if (!found) return util::Unexpected{ReorgError::kUnknownForkPoint};
        fork_height_plus_1 = *found + 1;
    }

    const std::uint32_t current_height = node.next_height();
    const std::uint32_t branch_tip =
        fork_height_plus_1 + static_cast<std::uint32_t>(branch.size());
    if (branch_tip <= current_height) return util::Unexpected{ReorgError::kBranchNotLonger};

    // Load and verify the suffix being replaced *before* touching any
    // state: if the block store cannot reproduce the chain (external
    // truncation or tampering), rolling back a failed branch would be
    // impossible. Refusing up front leaves the node untouched instead of
    // discovering the corruption halfway through a disconnect.
    std::vector<Block> original;
    original.reserve(current_height - fork_height_plus_1);
    for (std::uint32_t h = fork_height_plus_1; h < current_height; ++h) {
        auto block = node.block_store()->load(h);
        const auto* expected = node.headers().at(h);
        if (!block || expected == nullptr || block->header.hash() != expected->hash()) {
            return util::Unexpected{ReorgError::kRollbackFailed};
        }
        original.push_back(std::move(*block));
    }

    ReorgOutcomeOf<Node, Block> outcome;
    outcome.fork_height = fork_height_plus_1 == 0 ? 0 : fork_height_plus_1 - 1;

    // Disconnect the suffix, newest first, using the saved bodies.
    for (auto it = original.rbegin(); it != original.rend(); ++it) {
        const bool ok = node.disconnect_tip(*it);
        EBV_ASSERT(ok);
        ++outcome.blocks_disconnected;
    }

    for (const Block& block : branch) {
        auto result = node.submit_block(block);
        if (result) {
            ++outcome.blocks_connected;
            continue;
        }
        outcome.branch_failure = result.error();

        // Unwind whatever connected using the in-memory branch bodies (the
        // connected blocks are exactly branch[0..connected)), then restore
        // the original suffix. Failures here mean a disconnect/reconnect
        // did not invert exactly — a genuine state bug, not a storage one.
        for (std::uint32_t j = outcome.blocks_connected; j > 0; --j) {
            if (!node.disconnect_tip(branch[j - 1])) {
                return util::Unexpected{ReorgError::kRollbackFailed};
            }
        }
        for (const Block& old_block : original) {
            if (!node.submit_block(old_block)) {
                return util::Unexpected{ReorgError::kRollbackFailed};
            }
        }
        outcome.blocks_disconnected = 0;
        outcome.blocks_connected = 0;
        outcome.switched = false;
        return outcome;
    }

    outcome.switched = true;
    return outcome;
}

}  // namespace ebv::chain
