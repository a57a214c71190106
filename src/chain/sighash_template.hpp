// Per-transaction sighash template: build once, patch-and-hash per input,
// and the one sighash rule both validators take.
//
// The naive legacy sighash (chain/sighash.cpp) re-serializes the *entire*
// transaction for every input. The preimages differ only in one slot per
// input: input i's script field carries `script_code` while every other
// input's script is blanked to a single 0x00 CompactSize. A SighashTemplate
// serializes the all-blanked form exactly once, records each input's
// one-byte slot offset, and captures a SHA-256 midstate at each slot's
// 64-byte block boundary. A per-input digest then resumes the midstate and
// streams the few bytes from the block boundary to the slot, the patched
// script, the shared suffix, and the 4-byte hash type: no per-digest
// serialization or allocation, and no re-hashing of the prefix before the
// slot. The suffix after the slot is hashed again for every input, so total
// work stays O(n · tx_size) for an n-input transaction, at about half the
// naive path's bytes (bench/micro_crypto BM_Sighash_TemplateStream/64 runs
// 2.3-2.5x faster than BM_Sighash_Naive/64).
//
// For batch hashing (crypto::sha256d_many wants whole messages), preimage()
// materializes a full patched preimage by memcpy from the base buffer —
// still no field-walk re-serialization.
//
// The template is immutable after build; digest()/preimage() are const and
// safe to call concurrently from pool workers sharing one template.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/transaction.hpp"
#include "crypto/hash_types.hpp"
#include "crypto/sha256.hpp"
#include "util/span.hpp"

namespace ebv::chain {

class SighashTemplateBuilder;

class SighashTemplate {
public:
    /// Incremental builder mirroring the preimage layout, so layers with
    /// their own transaction types (core::EbvTransaction) can build
    /// templates without chain knowing about them.
    using Builder = SighashTemplateBuilder;

    /// Template over a Bitcoin-style transaction; digests are bit-identical
    /// to signature_hash(tx, i, script_code, type).
    static SighashTemplate build(const Transaction& tx);

    [[nodiscard]] std::size_t input_count() const { return slots_.size(); }
    /// Size of the shared all-blanked base serialization.
    [[nodiscard]] std::size_t base_size() const { return base_.size(); }

    /// The digest for input `input_index` with `script_code` patched in,
    /// committing to `hash_type` (any type byte; widened to 4 LE bytes
    /// exactly like the naive path).
    [[nodiscard]] crypto::Hash256 digest(std::size_t input_index,
                                         util::ByteSpan script_code,
                                         std::uint8_t hash_type) const;

    /// Length of the full preimage for this input/script pair.
    [[nodiscard]] std::size_t preimage_size(std::size_t input_index,
                                            util::ByteSpan script_code) const;
    /// Materialize the full preimage into `out` (cleared first) for batch
    /// hashing via crypto::sha256d_many.
    void preimage(std::size_t input_index, util::ByteSpan script_code,
                  std::uint8_t hash_type, util::Bytes& out) const;

    /// Base-prefix bytes digest() skips re-hashing for this input thanks to
    /// the stored midstate (SighashCache feeds this into the
    /// ebv.crypto.sighash_bytes_saved metric).
    [[nodiscard]] std::size_t prefix_skipped(std::size_t input_index) const {
        return slots_[input_index].offset & ~std::size_t{63};
    }

private:
    friend class SighashTemplateBuilder;
    SighashTemplate() = default;

    util::Bytes base_;  ///< all-blanked preimage, minus the hash-type tail
    struct Slot {
        std::uint32_t offset;  ///< of the input's blanked 0x00 script in base_
        /// Compression state over base_[0, offset & ~63).
        crypto::Sha256::Midstate midstate;
    };
    std::vector<Slot> slots_;  ///< one per input
};

/// Calls must follow the preimage order: every add_input, then
/// begin_outputs, every add_output, then finish().
class SighashTemplateBuilder {
public:
    /// `size_hint` reserves the base buffer (0 = inputs-only estimate).
    SighashTemplateBuilder(std::uint32_t version, std::size_t input_count,
                           std::size_t output_count, std::size_t size_hint = 0);

    void add_input(const OutPoint& prevout, std::uint32_t sequence);
    /// Writes the vout count; call once, after the last add_input.
    void begin_outputs(std::size_t output_count);
    void add_output(const TxOut& out);
    [[nodiscard]] SighashTemplate finish(std::uint32_t locktime);

private:
    SighashTemplate t_;
};

/// The sighash rule of both validators: one template per transaction,
/// plus the SIGHASH_ALL digests of its *standard* inputs hashed up front
/// in one crypto::sha256d_many batch when there are two or more of them.
/// An input is standard when the caller names the lock script it spends
/// and that script is not P2SH (the VM then hands the checker the redeem
/// script instead). Every other request — a transaction with fewer than
/// two standard inputs, another script code, another hash type — streams
/// from the template's midstates. Each digest() adds the template's
/// savings to ebv.crypto.sighash_bytes_saved.
///
/// The cache keeps views of the lock scripts, which must outlive it. It
/// is immutable after construction; digest() may be called concurrently.
class SighashCache {
public:
    /// `lock_scripts[i]` is the script input i spends, or empty when there
    /// is none to batch; an empty list streams every digest.
    explicit SighashCache(SighashTemplate tpl, std::span<const util::ByteSpan> lock_scripts = {});

    /// Bit-identical to signature_hash over the template's transaction.
    [[nodiscard]] crypto::Hash256 digest(std::size_t input_index, util::ByteSpan script_code,
                                         std::uint8_t hash_type) const;

    [[nodiscard]] const SighashTemplate& tpl() const { return tpl_; }

private:
    SighashTemplate tpl_;
    /// Per input, the lock script whose SIGHASH_ALL digest is in
    /// `standard_` (empty = streamed); both are empty unless batched.
    std::vector<util::ByteSpan> standard_codes_;
    std::vector<crypto::Hash256> standard_;
};

}  // namespace ebv::chain
