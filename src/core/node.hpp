// The EBV validator node: memory-resident headers + bit-vector set + the
// EBV validation pipeline, with optional flat-file block persistence. The
// counterpart of chain::BitcoinNode in every Fig 14-18 comparison.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_validator.hpp"
#include "ibd/pipeline.hpp"
#include "storage/flat_store.hpp"

namespace ebv::core {

struct EbvNodeOptions {
    chain::ChainParams params = chain::ChainParams::simnet();
    /// Directory for block bodies; empty = don't persist blocks.
    std::string data_dir;
    EbvValidatorOptions validator;
    /// The window submit_blocks validates at (submit_block always uses 1).
    ibd::PipelineOptions pipeline;
};

class EbvNode {
public:
    explicit EbvNode(const EbvNodeOptions& options);

    /// Validate and connect the next block (height = tip + 1): the
    /// validation engine (ibd::Pipeline) at window 1.
    util::Result<EbvTimings, EbvValidationFailure> submit_block(const EbvBlock& block);

    /// Validate and connect a batch of consecutive blocks on the same
    /// engine, at window options.pipeline.window when options.pipeline is
    /// enabled and 1 otherwise. Every window size accepts/rejects the same
    /// blocks with the same failure tuple (docs/PIPELINE.md).
    ibd::BatchResult submit_blocks(std::span<const EbvBlock> blocks);

    [[nodiscard]] const chain::HeaderIndex& headers() const { return headers_; }
    [[nodiscard]] BitVectorSet& status() { return status_; }
    [[nodiscard]] const BitVectorSet& status() const { return status_; }
    [[nodiscard]] std::uint32_t next_height() const {
        return headers_.empty() ? 0 : headers_.height() + 1;
    }

    /// Snapshot persistence ("assumeutxo"-style fast restart): the entire
    /// node state an EBV validator needs — headers, per-height output
    /// counts, and the bit-vector set — is small enough to write and read
    /// in milliseconds, so a restarting node skips IBD entirely. The file
    /// is replaced atomically; false means the write failed, and before
    /// the rename that leaves the previous snapshot untouched
    /// (util::write_file_atomic).
    [[nodiscard]] bool save_snapshot(const std::string& path) const;
    static util::Result<std::unique_ptr<EbvNode>, util::DecodeError> load_snapshot(
        const std::string& path, const EbvNodeOptions& options);

    /// The Fig 14 metric: memory the status data requires.
    [[nodiscard]] std::size_t status_memory_bytes() const {
        return status_.memory_bytes();
    }
    [[nodiscard]] std::size_t status_dense_memory_bytes() const {
        return status_.dense_memory_bytes();
    }

private:
    ibd::BatchResult connect(std::span<const EbvBlock> blocks, std::size_t window);

    EbvNodeOptions options_;
    chain::HeaderIndex headers_;
    BitVectorSet status_;
    /// Output count per connected height (4 bytes/block): a snapshot
    /// records it, and a loaded bit-vector set must fit it
    /// (BitVectorSet::fits) before UV trusts the set.
    std::vector<std::uint32_t> output_counts_;
    std::unique_ptr<storage::FlatStore<EbvBlock>> block_store_;
};

}  // namespace ebv::core
