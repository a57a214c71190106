// EBV transaction structures (paper §IV-C).
//
// A *tidy* transaction is what the Merkle leaf commits to: input *hashes*,
// outputs, and the miner-assigned stake position — never input bodies.
// This breaks the recursive-embedding chain (§IV-C2, Fig 9): when a tidy
// transaction later travels as another input's ELs, it carries no proofs of
// its own, so proof size is O(1) in ancestry depth.
//
// An EbvInput (input body) carries the five fields of Fig 7: the Merkle
// branch (MBr), the unlocking script (Us), the enhanced locking script
// (ELs = the previous tidy transaction), the block height, and the output
// position. We store the *relative* position (output index inside ELs);
// the absolute block-wide position UV needs is ELs.stake_position +
// out_index, which Fig 11's stake-position scheme makes unforgeable.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "crypto/merkle.hpp"

namespace ebv::core {

class TidyTransaction {
public:
    std::uint32_t version = 1;
    std::vector<crypto::Hash256> input_hashes;
    std::vector<chain::TxOut> outputs;
    std::uint32_t locktime = 0;
    /// Coinbase marker/payload (the height-tagged data a Bitcoin coinbase
    /// carries in its unlock script). Non-empty iff this is a coinbase.
    util::Bytes coinbase_data;
    /// Absolute position of this transaction's first output, counted from
    /// the block's first output. Assigned by the miner at packaging; its
    /// integrity is guaranteed by the Merkle leaf covering it.
    std::uint32_t stake_position = 0;

    [[nodiscard]] bool is_coinbase() const {
        return input_hashes.empty() && !coinbase_data.empty();
    }

    void serialize(util::Writer& w) const;
    static util::Result<TidyTransaction, util::DecodeError> deserialize(util::Reader& r);

    /// The Merkle leaf: double-SHA256 of the tidy serialization.
    [[nodiscard]] crypto::Hash256 leaf_hash() const;

    [[nodiscard]] std::size_t serialized_size() const;

    friend bool operator==(const TidyTransaction&, const TidyTransaction&) = default;
};

struct EbvInput {
    /// The legacy outpoint (txid, index) and sequence are retained so that
    /// signatures made over the Bitcoin-style transaction remain valid
    /// after reconstruction — the intermediary node (§VI-A) converts
    /// existing chains without access to any private keys. The outpoint
    /// plays no role in EV/UV; those trust only (height, position, MBr).
    chain::OutPoint prevout;
    std::uint32_t sequence = 0xffffffff;
    std::uint32_t height = 0;      ///< block containing the spent output
    std::uint16_t out_index = 0;   ///< output index inside ELs (relative position)
    script::Script unlock_script;  ///< Us
    TidyTransaction els;           ///< ELs: the previous tidy transaction
    crypto::MerkleBranch mbr;      ///< MBr: proves els ∈ block `height`

    void serialize(util::Writer& w) const;
    static util::Result<EbvInput, util::DecodeError> deserialize(util::Reader& r);

    /// The hash embedded in the tidy transaction for this input.
    [[nodiscard]] crypto::Hash256 input_hash() const;

    /// Absolute block-wide position of the output this input spends.
    [[nodiscard]] std::uint32_t absolute_position() const {
        return els.stake_position + out_index;
    }

    [[nodiscard]] std::size_t serialized_size() const;

    friend bool operator==(const EbvInput&, const EbvInput&) = default;
};

/// A full EBV transaction: the tidy core plus the input bodies that travel
/// alongside it (Fig 9a).
class EbvTransaction {
public:
    std::uint32_t version = 1;
    std::vector<EbvInput> inputs;
    std::vector<chain::TxOut> outputs;
    std::uint32_t locktime = 0;
    util::Bytes coinbase_data;
    std::uint32_t stake_position = 0;

    [[nodiscard]] bool is_coinbase() const {
        return inputs.empty() && !coinbase_data.empty();
    }

    /// Project out the tidy transaction (recomputes input hashes).
    [[nodiscard]] TidyTransaction tidy() const;
    /// The Merkle leaf of this transaction, tidy().leaf_hash() without
    /// copying the outputs into a TidyTransaction.
    [[nodiscard]] crypto::Hash256 leaf_hash() const;

    void serialize(util::Writer& w) const;
    static util::Result<EbvTransaction, util::DecodeError> deserialize(util::Reader& r);
    [[nodiscard]] std::size_t serialized_size() const;

    [[nodiscard]] chain::Amount total_output_value() const;

    friend bool operator==(const EbvTransaction&, const EbvTransaction&) = default;
};

/// The digest an EBV unlocking-script signature commits to. Byte-identical
/// to the legacy signature hash of the corresponding Bitcoin-style
/// transaction (prevouts + sequences + outputs), so original signatures
/// survive intermediary reconstruction. Proof fields (MBr, ELs, height,
/// position) and the miner-assigned stake position are excluded — they are
/// derived data the signer does not control.
crypto::Hash256 ebv_signature_hash(const EbvTransaction& tx, std::size_t input_index,
                                   util::ByteSpan script_code, std::uint8_t hash_type);

struct EbvBlock {
    chain::BlockHeader header;
    std::vector<EbvTransaction> txs;

    /// Merkle leaves are tidy-transaction hashes.
    [[nodiscard]] std::vector<crypto::Hash256> merkle_leaves() const;
    /// The same leaves from precomputed input hashes (EbvInput::input_hash()
    /// of every input, in block order): the one place leaves are built.
    [[nodiscard]] std::vector<crypto::Hash256> merkle_leaves(
        std::span<const crypto::Hash256> input_hashes) const;
    [[nodiscard]] crypto::Hash256 compute_merkle_root() const;

    /// Miner step (§IV-D2): set each transaction's stake position to the
    /// running output count, then recompute the Merkle root.
    void assign_stake_positions();

    void serialize(util::Writer& w) const;
    static util::Result<EbvBlock, util::DecodeError> deserialize(util::Reader& r);
    [[nodiscard]] std::size_t serialized_size() const;

    [[nodiscard]] std::size_t input_count() const;
    [[nodiscard]] std::size_t output_count() const;
};

}  // namespace ebv::core
