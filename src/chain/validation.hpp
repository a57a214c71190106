// The baseline block-validation pipeline (Fig 3 of the paper): for every
// input, ❶ Fetch the coin from the status database (EV+UV fused), then run
// ② SV; if the whole block verifies, ❸ Delete the spent entries and
// ❹ Insert the new outputs. Each phase is timed so benches can reproduce
// the paper's DBO / SV / others breakdown.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chain/block.hpp"
#include "chain/params.hpp"
#include "chain/undo.hpp"
#include "chain/utxo_set.hpp"
#include "script/interpreter.hpp"
#include "util/result.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::chain {

enum class BlockError {
    kEmptyBlock,
    kFirstTxNotCoinbase,
    kMultipleCoinbases,
    kMerkleRootMismatch,
    kDuplicateTxid,
    kTooManyOutputs,
    kMissingOrSpentOutput,  ///< ❶ Fetch returned nothing (EV or UV failure)
    kImmatureCoinbaseSpend,
    kValueOutOfRange,
    kNegativeFee,
    kCoinbaseValueTooHigh,
    kScriptFailure,  ///< ② SV failed
    kBadPrevHash,    ///< header does not extend the tip it is connected on
};

[[nodiscard]] const char* to_string(BlockError e);

struct ValidationFailure {
    BlockError error;
    std::size_t tx_index = 0;
    std::size_t input_index = 0;
    script::ScriptError script_error = script::ScriptError::kOk;

    [[nodiscard]] std::string describe() const;
};

/// Per-block timing breakdown, the unit of Figs 4a/4b/16a.
struct BlockTimings {
    util::TimeCost dbo;    ///< Fetch + Delete + Insert
    util::TimeCost sv;     ///< script validation
    util::TimeCost other;  ///< everything else (merkle, value rules, ...)
    std::size_t inputs = 0;
    std::size_t outputs = 0;

    [[nodiscard]] util::TimeCost total() const { return dbo + sv + other; }

    BlockTimings& operator+=(const BlockTimings& o) {
        dbo += o.dbo;
        sv += o.sv;
        other += o.other;
        inputs += o.inputs;
        outputs += o.outputs;
        return *this;
    }
};

struct ValidatorOptions {
    /// Skip SV entirely (used by workload calibration, never by benches
    /// that report SV time).
    bool verify_scripts = true;
    /// Run SV through a thread pool (nullptr = serial).
    util::ThreadPool* script_pool = nullptr;
};

/// Stateless validator over a UtxoSet; connect_block applies the block on
/// success and guarantees the set is untouched on failure.
class BitcoinValidator {
public:
    BitcoinValidator(const ChainParams& params, UtxoSet& utxo,
                     ValidatorOptions options = {})
        : params_(params), utxo_(utxo), options_(options) {}

    /// Validate and connect a block at `height`. On success returns the
    /// phase timings; on failure the UTXO set is left unchanged. When
    /// `undo` is non-null the spent coins are recorded for disconnection.
    /// Publishes per-stage histograms and per-block counters under
    /// `btc.block.*` and emits one span per stage (docs/OBSERVABILITY.md).
    util::Result<BlockTimings, ValidationFailure> connect_block(const Block& block,
                                                                std::uint32_t height,
                                                                BlockUndo* undo = nullptr);

    /// Reverse a previously connected block: delete its outputs from the
    /// UTXO set and restore the coins its inputs spent. The caller is
    /// responsible for passing the matching undo record.
    void disconnect_block(const Block& block, const BlockUndo& undo);

private:
    util::Result<BlockTimings, ValidationFailure> connect_block_impl(
        const Block& block, std::uint32_t height, BlockUndo* undo);

    const ChainParams& params_;
    UtxoSet& utxo_;
    ValidatorOptions options_;
};

}  // namespace ebv::chain
