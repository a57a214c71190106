// Legacy signature-hash computation, the signature rule both validators
// share, and the script-validation (SV) path built on it (docs/CRYPTO.md):
// the one SignatureChecker, the verdict prefetch that feeds it signature
// verdicts checked crypto::kVerifyLanes at a time, and the claim loop that
// runs an SV pass over a thread pool. BitcoinValidator, ibd::Pipeline and
// core::TxPool all run their scripts through it; they differ only in where
// an input's lock script comes from (the fetched Coin, or the output inside
// the input's ELs).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chain/sig_cache.hpp"
#include "chain/sighash_template.hpp"
#include "chain/transaction.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/hash_types.hpp"
#include "script/interpreter.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::chain {

enum SigHashType : std::uint8_t {
    kSigHashAll = 0x01,
};

/// The digest a signature over input `input_index` commits to: the
/// transaction with every input script blanked except this one, which
/// carries `script_code`, plus the 4-byte hash type.
crypto::Hash256 signature_hash(const Transaction& tx, std::size_t input_index,
                               util::ByteSpan script_code, SigHashType type);

/// Convenience: sign an input and return DER || hashtype byte, ready to be
/// pushed by an unlocking script.
util::Bytes sign_input(const Transaction& tx, std::size_t input_index,
                       util::ByteSpan script_code, const crypto::PrivateKey& key,
                       SigHashType type = kSigHashAll);

/// The signature rule of both validators, up to the curve check: the hash
/// type must be SIGHASH_ALL, the DER signature and the public key must
/// parse (through crypto::parse_memo), and the digest comes from `cache`.
/// Returns the triple left to verify, or nullopt when the signature has
/// already failed.
[[nodiscard]] std::optional<crypto::VerifyJob> signature_job(const SighashCache& cache,
                                                             std::size_t input_index,
                                                             util::ByteSpan signature,
                                                             util::ByteSpan pubkey,
                                                             util::ByteSpan script_code);

/// An input's unlocking script and the locking script of the output it
/// spends (empty when there is none).
struct InputScripts {
    util::ByteSpan unlock;
    util::ByteSpan lock;
};

/// A prefetched verdict (SigMemo).
enum class SigVerdict : std::uint8_t {
    kLater,    ///< not queued: the tail of a 1-of-n memo whose head is out
    kQueued,   ///< waiting in a LaneBatcher
    kFalse,    ///< the lanes said false
    kTrue,     ///< the lanes said true
    kCached,   ///< a SigCache hit: true, no curve work
    kRefused,  ///< signature_job refused the pair: false, no curve work
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
[[nodiscard]] std::size_t standard_candidates(const InputScripts& in,
                                              std::span<SigCandidate, kMaxSigCandidates> out);

/// One input's prefetched signature verdicts (docs/CRYPTO.md). Each
/// standard_candidates pair's job (signature_job) is true at once on a
/// SigCache hit, else queued in a LaneBatcher that writes its verdict
/// here. A 1-of-n memo queues its head pair alone and the rest only once
/// the head is false, as its script tries them. The memo keeps views of
/// the scripts and a pointer to `cache`, which must outlive it.
class SigMemo {
public:
    void prefetch(const InputScripts& in, std::size_t input_index, const SighashCache& cache,
                  SigCache* sigcache, LaneBatcher& batcher);
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

    const SighashCache* cache_ = nullptr;
    SigCache* sigcache_ = nullptr;
    std::size_t input_index_ = 0;
    util::ByteSpan script_code_;
    std::vector<Entry> entries_;
};

/// One claimer's verdict prefetch. With a lane backend
/// (crypto::lanes_enabled) hold() prefetches the verdicts of an item's
/// inputs through the claimer's LaneBatcher and keeps the item until they
/// are all in; without one it runs the item at once, with no memos. Either
/// way `run(owner, memos)` runs the item's scripts, memos[k] answering for
/// input first + k.
class PrefetchQueue {
public:
    using Run = util::FunctionRef<void(std::size_t, std::span<SigMemo>)>;
    explicit PrefetchQueue(Run run);

    /// Takes item `owner`: inputs first, first + 1, … of the transaction
    /// `cache` hashes, with `inputs` their scripts.
    void hold(std::size_t owner, std::span<const InputScripts> inputs, std::size_t first,
              const SighashCache& cache, SigCache* sigcache);
    /// Verifies the last groups and runs every held item.
    void drain();

private:
    void run_ready();

    struct Held {
        std::size_t owner;
        std::vector<SigMemo> memos;
    };
    Run run_;
    bool lanes_;
    LaneBatcher batcher_;
    std::vector<Held> held_;
};

/// The claim loop of every SV pass: up to one claimer per slot of `pool`
/// (the calling thread alone when it is null) takes the items [0, count)
/// in order from a shared cursor and calls `claim(slot, item, queue)` with
/// its own PrefetchQueue, which runs held items with `run`. A claimer
/// stops when the cursor is spent or `cancel` fires, then drains its
/// queue. Returns each slot's busy wall time (one entry per pool slot).
using Claim = util::FunctionRef<void(std::size_t, std::size_t, PrefetchQueue&)>;
std::vector<util::Nanoseconds> claim_all(util::ThreadPool* pool, std::size_t count, Claim claim,
                                         PrefetchQueue::Run run,
                                         util::CancelToken* cancel = nullptr);

/// The SignatureChecker of both validators: the `memo`'s verdict when it
/// holds the pair, else the shared signature rule (signature_job), then
/// the `sigcache` lookup, then the curve check.
class SigChecker final : public script::SignatureChecker {
public:
    SigChecker(const SighashCache& cache, std::size_t input_index, SigCache* sigcache = nullptr,
               SigMemo* memo = nullptr)
        : cache_(cache), input_index_(input_index), sigcache_(sigcache), memo_(memo) {}

    [[nodiscard]] bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                       util::ByteSpan script_code) const override;

private:
    const SighashCache& cache_;
    std::size_t input_index_;
    SigCache* sigcache_;
    SigMemo* memo_;
};

/// SV for input `input_index` of the transaction `cache` hashes: its
/// scripts run against a SigChecker.
[[nodiscard]] script::ScriptError verify_input(const InputScripts& scripts,
                                               std::size_t input_index,
                                               const SighashCache& cache,
                                               SigCache* sigcache = nullptr,
                                               SigMemo* memo = nullptr);

}  // namespace ebv::chain
