// ebv::ibd — the EBV block-validation engine (paper §IV-D), run over a
// bounded lookahead window of W blocks. EbvNode::submit_block runs it on one
// block at W = 1; EbvNode::submit_blocks runs it on a batch at the
// configured window, so initial block download keeps the thread pool busy
// across block boundaries:
//
//   stage 1  structural pass       in block order, in three steps:
//            shape + link          serial: each block extends the one
//                                  before it (block 0 the tip); coinbase
//                                  shape, output count, stake positions
//            hash pass             every input body hashed on
//                                  util::ThreadPool, one job per input
//            root fold + values    serial: Merkle root from those hashes,
//                                  then per-transaction output sums
//   stage 2  fused EV+SV proofs    out of order, all W blocks at once, on
//                                  util::ThreadPool
//   stage 3  resolve + commit      serial, in block order: UV against the
//                                  bit-vector set, value/fee rules, verdict
//                                  resolution, then commit: status vector,
//                                  spent bits, header
//
// Inter-block dependencies: an input in block N+k that spends an output
// created inside the window resolves its header from the window's pending
// headers (EV). One spending an output *spent* earlier in the window needs
// no tracking: each block applies its spends at its commit, before the next
// block's UV runs. Validation therefore runs against the state a
// block-at-a-time loop would have committed.
//
// Failure semantics are deterministic: the first failing block (in height
// order) reports the same EbvValidationFailure tuple at every window size
// and thread count, blocks before it commit, blocks after it never touch
// state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "util/thread_pool.hpp"

namespace ebv::ibd {

/// How EbvNode::submit_blocks sizes its window (submit_block always runs
/// at W = 1).
struct PipelineOptions {
    /// false = W = 1 (block at a time); true = W = `window`.
    bool enabled = false;

    /// Lookahead window W: how many blocks may have proof checks in flight
    /// at once when `enabled`.
    std::size_t window = 16;
};

/// Where and why a batch stopped. `failure` is the same tuple at every
/// window size (docs/PIPELINE.md).
struct PipelineFailure {
    std::size_t block_index = 0;  ///< index into the submitted batch
    std::uint32_t height = 0;     ///< absolute chain height of that block
    core::EbvValidationFailure failure;
};

struct BatchResult {
    std::size_t connected = 0;  ///< blocks validated and committed
    std::optional<PipelineFailure> failure;
    core::EbvTimings timings;   ///< aggregate per-stage breakdown
    std::uint64_t wall_ns = 0;  ///< end-to-end wall time of the batch

    [[nodiscard]] bool ok() const { return !failure.has_value(); }
};

class Pipeline {
public:
    /// Per-block commit notification for caller bookkeeping (block stores,
    /// output-count tables). Invoked in height order after the block is
    /// fully validated, its header + status vector are installed and its
    /// spends are applied.
    using CommitHook = util::FunctionRef<void(const core::EbvBlock&, std::uint32_t)>;

    /// `options` configures every per-input check: the thread pool, SV on
    /// or off and the shared signature cache (core::EbvValidatorOptions).
    /// `window` is W; 0 is treated as 1.
    Pipeline(const chain::ChainParams& params, chain::HeaderIndex& headers,
             core::BitVectorSet& status, const core::EbvValidatorOptions& options,
             std::size_t window = 1)
        : params_(params),
          headers_(headers),
          status_(status),
          options_(options),
          window_(window == 0 ? 1 : window) {}

    /// Validate and connect `blocks` on top of the current tip. Publishes
    /// `ebv.block.*`, `ebv.pool.*` and `ebv.ibd.*` metrics
    /// (docs/OBSERVABILITY.md). Not re-entrant.
    BatchResult run(std::span<const core::EbvBlock> blocks, CommitHook on_commit);
    BatchResult run(std::span<const core::EbvBlock> blocks);

private:
    const chain::ChainParams& params_;
    chain::HeaderIndex& headers_;
    core::BitVectorSet& status_;
    core::EbvValidatorOptions options_;
    std::size_t window_;
};

}  // namespace ebv::ibd
