// The per-input checks of EBV block validation (paper §IV-D): per input,
//   EV — fold the Merkle branch from the ELs leaf and compare against the
//        stored header's root at the claimed height;
//   UV — test the bit at the input's absolute position in the bit-vector
//        set (absolute = authenticated stake position + relative index);
//   SV — run Us against the locking script inside ELs.
// No step touches the disk: headers and bit-vectors are memory-resident and
// the proof data arrives with the transaction. Block storage then updates
// the bit-vector set (§IV-E). The engine that runs these checks over whole
// blocks is ibd::Pipeline (ibd/pipeline.hpp); TxPool runs them per
// transaction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/params.hpp"
#include "chain/sighash.hpp"
#include "core/ebv_transaction.hpp"
#include "core/sighash_cache.hpp"
#include "script/interpreter.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::core {

enum class EbvError {
    kEmptyBlock,
    kFirstTxNotCoinbase,
    kUnexpectedCoinbase,
    kMissingInputs,
    kMerkleRootMismatch,
    kBadStakePosition,   ///< miner-assigned stake positions inconsistent
    kTooManyOutputs,
    kUnknownHeight,      ///< EV: input references a height beyond the chain
    kExistenceFailed,    ///< EV: Merkle branch does not reach the stored root
    kBadOutIndex,        ///< claimed output index not present in ELs
    kUnspentFailed,      ///< UV: bit already 0 (or vector gone)
    kDoubleSpendInBlock,
    kImmatureCoinbaseSpend,
    kValueOutOfRange,
    kNegativeFee,
    kCoinbaseValueTooHigh,
    kScriptFailure,      ///< SV failed
    kBadPrevHash,        ///< header does not extend the tip it is connected on
};

[[nodiscard]] const char* to_string(EbvError e);

struct EbvValidationFailure {
    EbvError error;
    std::size_t tx_index = 0;
    std::size_t input_index = 0;
    script::ScriptError script_error = script::ScriptError::kOk;

    [[nodiscard]] std::string describe() const;

    friend bool operator==(const EbvValidationFailure&,
                           const EbvValidationFailure&) = default;
};

// ---- Per-input / per-block checks -------------------------------------------

/// Per-input Existence Validation verdict, recorded out of order by the
/// parallel pass and resolved in input order afterwards.
enum class EvStatus : std::uint8_t { kOk, kUnknownHeight, kBadOutIndex, kExistenceFailed };

/// Map a non-kOk EV verdict to the error a block validation reports.
[[nodiscard]] EbvError to_ebv_error(EvStatus status);

/// EV for one input: the spent output must live in a block strictly below
/// `spending_height` whose stored Merkle root the carried branch folds to.
/// `header` is the caller-resolved header at `in.height` (nullptr = none —
/// callers validating against pending, not-yet-committed blocks resolve
/// in-window heights from their own lookahead state).
[[nodiscard]] EvStatus ev_check_input(const EbvInput& in, const chain::BlockHeader* header,
                                      std::uint32_t spending_height);

/// The scripts SV runs for `in`: its unlocking script and the locking
/// script of the ELs output it spends (empty when out_index is not in ELs).
[[nodiscard]] chain::InputScripts input_scripts(const EbvInput& in);

/// SV for one input. The caller guarantees the input passed EV (so
/// out_index is in range). `cache` is the transaction's sighash cache,
/// shared across its inputs; `sigcache` optionally short-circuits
/// signatures already verified at mempool admission (docs/MEMPOOL.md);
/// a complete `memo` answers the signature checks it prefetched.
[[nodiscard]] script::ScriptError sv_check_input(const EbvTransaction& tx,
                                                 std::size_t input_index,
                                                 const chain::SighashCache& cache,
                                                 chain::SigCache* sigcache = nullptr,
                                                 chain::SigMemo* memo = nullptr);

/// The stateless structural pass, in check order: shape, then the block's
/// own Merkle root, then values. Returns the first structural failure, or
/// nullopt. The single-threaded reference; ibd::Pipeline runs the same
/// three steps with the input hashing spread over its thread pool.
[[nodiscard]] std::optional<EbvValidationFailure> check_block_structure(
    const EbvBlock& block, const chain::ChainParams& params);

/// Structural step 1, no hashing: coinbase shape, inputs present, the
/// output count and the stake-position assignment.
[[nodiscard]] std::optional<EbvValidationFailure> check_block_shape(
    const EbvBlock& block, const chain::ChainParams& params);

/// Structural step 3: every transaction's output sum stays in money range.
[[nodiscard]] std::optional<EbvValidationFailure> check_block_values(const EbvBlock& block);

/// Timing breakdown of a block (or a window of blocks), the unit of Figs
/// 15/16b/17b. EV and SV split the fused parallel pass's wall time by
/// per-slot busy time; UV is the in-block double-spend set + bit test;
/// `update` is bit-vector maintenance only; `other` is the structural
/// checks + maturity/value/fee/coinbase rules. Figures fold `update` into
/// "others".
struct EbvTimings {
    util::TimeCost ev;
    util::TimeCost uv;
    util::TimeCost sv;
    util::TimeCost update;
    util::TimeCost other;
    std::size_t inputs = 0;
    std::size_t outputs = 0;

    [[nodiscard]] util::TimeCost total() const { return ev + uv + sv + update + other; }
    [[nodiscard]] util::TimeCost others_combined() const { return update + other; }

    EbvTimings& operator+=(const EbvTimings& o) {
        ev += o.ev;
        uv += o.uv;
        sv += o.sv;
        update += o.update;
        other += o.other;
        inputs += o.inputs;
        outputs += o.outputs;
        return *this;
    }
};

struct EbvValidatorOptions {
    bool verify_scripts = true;
    util::ThreadPool* script_pool = nullptr;
    /// Shared signature-verification cache: signatures the mempool already
    /// verified at admission short-circuit SV here (docs/MEMPOOL.md).
    /// nullptr = every signature pays the full curve check.
    chain::SigCache* sigcache = nullptr;
};

}  // namespace ebv::core
