// Block assembly: package transactions under a header whose Merkle root
// commits to them. No proof of work is ground: the paper's threat model
// takes it as given, and no validator checks it.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "chain/params.hpp"

namespace ebv::chain {

/// Assemble a block: coinbase first, then `txs`, header linked to
/// `prev_hash` with the computed Merkle root.
Block assemble_block(const crypto::Hash256& prev_hash, Transaction coinbase,
                     std::vector<Transaction> txs, std::uint32_t time);

/// Build a coinbase paying `reward` to `lock_script`. `height` is embedded
/// in the unlocking script so coinbases at different heights have distinct
/// txids (BIP34's purpose).
Transaction make_coinbase(std::uint32_t height, Amount reward,
                          const script::Script& lock_script,
                          std::uint32_t extra_nonce = 0);

}  // namespace ebv::chain
