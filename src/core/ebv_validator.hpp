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

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/params.hpp"
#include "core/ebv_transaction.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "script/interpreter.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::core {

class SigCache;

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

/// A prefetched verdict (SigMemo).
enum class SigVerdict : std::uint8_t {
    kLater,    ///< not queued: the tail of a 1-of-n memo whose head is out
    kQueued,   ///< waiting in a LaneBatcher
    kFalse,    ///< the lanes said false
    kTrue,     ///< the lanes said true
    kCached,   ///< a SigCache hit: true, no curve work
    kRefused,  ///< chain::signature_job refused the pair: false, no curve work
};

/// Checks queued triples crypto::kVerifyLanes at a time with one
/// crypto::verify_lanes call and writes each verdict to its slot.
class LaneBatcher {
public:
    /// Queues a triple; verifies the group once it is full.
    void add(const crypto::VerifyJob& job, SigVerdict* verdict);
    /// Verifies the queued triples, a partial group, and empties it.
    void flush();
    [[nodiscard]] std::size_t size() const { return size_; }

private:
    std::array<crypto::VerifyJob, crypto::kVerifyLanes> jobs_;
    std::array<SigVerdict*, crypto::kVerifyLanes> verdicts_{};
    std::size_t size_ = 0;
};

/// A (signature, pubkey) pair a standard script can check: views into the
/// input's unlocking and locking scripts.
struct SigCandidate {
    util::ByteSpan sig;
    util::ByteSpan pubkey;
};
inline constexpr std::size_t kMaxSigCandidates = 32;  ///< 2n, n ≤ 16

/// The prefetch's matcher, byte patterns only, every push direct (1–75
/// bytes). Writes to `out` the pairs the input's script can try, signature
/// by signature, and returns how many: one for P2PKH and P2PK; for bare
/// m-of-n (`OP_0 <sig>…` against `OP_m <key>… OP_n OP_CHECKMULTISIG`) the
/// pairs (sig i, key j) with i ≤ j ≤ n − m + i, if at most 2n. Any other
/// input returns 0 and takes the scalar path.
[[nodiscard]] std::size_t standard_candidates(const EbvInput& in,
                                              std::span<SigCandidate, kMaxSigCandidates> out);

/// One input's prefetched signature verdicts (docs/CRYPTO.md). Each
/// standard_candidates pair's job (chain::signature_job) is true at once on
/// a SigCache hit, else queued in a LaneBatcher that writes its verdict
/// here. A 1-of-n memo queues its head pair alone and the rest only once
/// the head is false, as its script tries them. The memo keeps views of
/// the transaction and a pointer to `cache`, which must outlive it.
class SigMemo {
public:
    void prefetch(const EbvTransaction& tx, std::size_t input_index,
                  const chain::SighashCache& cache, SigCache* sigcache, LaneBatcher& batcher);
    /// Whether every verdict the script can read is in.
    [[nodiscard]] bool advance(LaneBatcher& batcher);
    /// The verdict of a pair the memo holds. A lane-true triple enters the
    /// SigCache on its first read, where the scalar check would insert it.
    [[nodiscard]] std::optional<bool> take(util::ByteSpan sig, util::ByteSpan pubkey,
                                           util::ByteSpan script_code);
    /// Adds the lane verdicts no take() read to ebv.crypto.lane_unused.
    void retire() const;

private:
    struct Entry {
        SigCandidate pair;
        crypto::VerifyJob job;
        SigVerdict verdict = SigVerdict::kLater;
        bool read = false;
    };
    void queue(std::size_t from, std::size_t to, LaneBatcher& batcher);

    const chain::SighashCache* cache_ = nullptr;
    SigCache* sigcache_ = nullptr;
    std::size_t input_index_ = 0;
    util::ByteSpan script_code_;
    std::vector<Entry> entries_;
};

/// One claimer's verdict prefetch (ibd::Pipeline, TxPool::submit_batch):
/// holds each claimed input or transaction with a SigMemo per input until
/// its verdicts are in, then calls `run(owner, memos)` to run its scripts.
class PrefetchQueue {
public:
    using Run = util::FunctionRef<void(std::size_t, std::span<SigMemo>)>;
    explicit PrefetchQueue(Run run) : run_(run) {}

    /// Prefetches inputs [first, first + count) of `tx` for `owner`.
    void hold(std::size_t owner, const EbvTransaction& tx, std::size_t first,
              std::size_t count, const chain::SighashCache& cache, SigCache* sigcache);
    /// Verifies the last groups and runs every held item.
    void drain();

private:
    void run_ready();

    struct Held {
        std::size_t owner;
        std::vector<SigMemo> memos;
    };
    Run run_;
    LaneBatcher batcher_;
    std::vector<Held> held_;
};

/// SV for one input. The caller guarantees the input passed EV (so
/// out_index is in range). `cache` is the transaction's sighash cache,
/// shared across its inputs; `sigcache` optionally short-circuits
/// signatures already verified at mempool admission (docs/MEMPOOL.md);
/// a complete `memo` answers the signature checks it prefetched.
[[nodiscard]] script::ScriptError sv_check_input(const EbvTransaction& tx,
                                                 std::size_t input_index,
                                                 const chain::SighashCache& cache,
                                                 SigCache* sigcache = nullptr,
                                                 SigMemo* memo = nullptr);

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
    SigCache* sigcache = nullptr;
};

/// SignatureChecker binding the script VM to EBV transactions: the
/// `memo`'s verdict when it holds the pair, else the shared signature rule
/// (chain::signature_job), then the `sigcache` lookup, then the curve
/// check.
class EbvSignatureChecker final : public script::SignatureChecker {
public:
    EbvSignatureChecker(const chain::SighashCache& cache, std::size_t input_index,
                        SigCache* sigcache = nullptr, SigMemo* memo = nullptr)
        : cache_(cache), input_index_(input_index), sigcache_(sigcache), memo_(memo) {}

    [[nodiscard]] bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                       util::ByteSpan script_code) const override;

private:
    const chain::SighashCache& cache_;
    std::size_t input_index_;
    SigCache* sigcache_;
    SigMemo* memo_;
};

}  // namespace ebv::core
