// The intermediary node of the paper's evaluation (§VI-A): it consumes
// Bitcoin-format blocks in chain order and reconstructs them as EBV blocks
// — creating MBr, ELs, height, and position for every input, assigning
// stake positions, and maintaining the outpoint → (height, tx, output)
// index that proof construction requires. Original unlocking scripts are
// preserved, so all existing signatures remain valid.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "chain/block.hpp"
#include "core/chain_archive.hpp"
#include "core/ebv_transaction.hpp"
#include "util/result.hpp"

namespace ebv::intermediary {

enum class ConvertError {
    kUnknownPrevout,      ///< input references an output the index has never seen
    kIntraBlockSpend,     ///< spends an output created in the same block (EBV
                          ///< proofs require the source block to be packaged)
    kCoinbaseShape,       ///< coinbase doesn't have the expected single null input
};

[[nodiscard]] const char* to_string(ConvertError e);

struct ConvertStats {
    std::uint64_t blocks = 0;
    std::uint64_t inputs_reconstructed = 0;
    std::uint64_t bitcoin_bytes = 0;  ///< source serialized size
    std::uint64_t ebv_bytes = 0;      ///< reconstructed serialized size
};

class Converter {
public:
    /// Convert the next block (heights must be sequential from 0). On
    /// success the converter's index and archive advance; on failure they
    /// are unchanged.
    util::Result<core::EbvBlock, ConvertError> convert_block(const chain::Block& block);

    [[nodiscard]] const ConvertStats& stats() const { return stats_; }
    [[nodiscard]] const core::ChainArchive& archive() const { return archive_; }
    [[nodiscard]] std::uint32_t next_height() const {
        return archive_.height_count();
    }

private:
    struct Location {
        std::uint32_t height;
        std::uint32_t tx_index;
        std::uint16_t out_index;
    };

    std::unordered_map<chain::OutPoint, Location, chain::OutPointHasher> index_;
    core::ChainArchive archive_;
    crypto::Hash256 prev_ebv_hash_;  ///< tip of the converted chain
    ConvertStats stats_;
};

}  // namespace ebv::intermediary
