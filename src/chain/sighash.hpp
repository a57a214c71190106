// Legacy signature-hash computation, the signature rule both validators
// share, and the SignatureChecker the script VM uses when validating
// Bitcoin-style transactions.
#pragma once

#include <optional>

#include "chain/sighash_template.hpp"
#include "chain/transaction.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"
#include "script/interpreter.hpp"

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

/// Verifies signature_job's triple. `cache` is built once per transaction
/// (chain/validation.cpp builds one per transaction in the SV pass) and
/// must be rebuilt if the transaction changes.
class TransactionSignatureChecker final : public script::SignatureChecker {
public:
    TransactionSignatureChecker(const SighashCache& cache, std::size_t input_index)
        : cache_(cache), input_index_(input_index) {}

    [[nodiscard]] bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                       util::ByteSpan script_code) const override;

private:
    const SighashCache& cache_;
    std::size_t input_index_;
};

}  // namespace ebv::chain
