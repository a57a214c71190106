#include "chain/sighash.hpp"

#include "crypto/ecdsa.hpp"
#include "crypto/parse_memo.hpp"
#include "util/assert.hpp"

namespace ebv::chain {

namespace {

/// Analytic preimage size so the Writer allocates exactly once.
std::size_t sighash_preimage_size(const Transaction& tx, util::ByteSpan script_code) {
    std::size_t size = 4 /* version */ + util::compact_size_length(tx.vin.size()) +
                       41 * (tx.vin.size() - 1)  /* blanked inputs */
                       + 40 + util::compact_size_length(script_code.size()) +
                       script_code.size()  /* the signed input */
                       + util::compact_size_length(tx.vout.size()) + 4 /* locktime */ +
                       4 /* hash type */;
    for (const TxOut& out : tx.vout)
        size += 8 + util::compact_size_length(out.lock_script.size()) + out.lock_script.size();
    return size;
}

}  // namespace

crypto::Hash256 signature_hash(const Transaction& tx, std::size_t input_index,
                               util::ByteSpan script_code, SigHashType type) {
    EBV_EXPECTS(input_index < tx.vin.size());

    util::Writer w(sighash_preimage_size(tx, script_code));
    w.u32(tx.version);
    w.compact_size(tx.vin.size());
    for (std::size_t i = 0; i < tx.vin.size(); ++i) {
        tx.vin[i].prevout.serialize(w);
        if (i == input_index) {
            w.var_bytes(script_code);
        } else {
            w.compact_size(0);  // blanked script
        }
        w.u32(tx.vin[i].sequence);
    }
    w.compact_size(tx.vout.size());
    for (const TxOut& out : tx.vout) {
        w.i64(out.value);
        w.var_bytes(out.lock_script);
    }
    w.u32(tx.locktime);
    w.u32(type);

    return crypto::hash256(w.data());
}

util::Bytes sign_input(const Transaction& tx, std::size_t input_index,
                       util::ByteSpan script_code, const crypto::PrivateKey& key,
                       SigHashType type) {
    const crypto::Hash256 digest = signature_hash(tx, input_index, script_code, type);
    util::Bytes sig = key.sign(digest).to_der();
    sig.push_back(static_cast<std::uint8_t>(type));
    return sig;
}

std::optional<crypto::VerifyJob> signature_job(const SighashCache& cache,
                                               std::size_t input_index,
                                               util::ByteSpan signature, util::ByteSpan pubkey,
                                               util::ByteSpan script_code) {
    if (signature.empty()) return std::nullopt;
    const std::uint8_t hash_type = signature.back();
    if (hash_type != kSigHashAll) return std::nullopt;

    const auto sig = crypto::parse_signature_der_memo(signature.first(signature.size() - 1));
    if (!sig) return std::nullopt;
    const auto key = crypto::parse_public_key_memo(pubkey);
    if (!key) return std::nullopt;
    return crypto::VerifyJob{*key, *sig, cache.digest(input_index, script_code, hash_type)};
}

bool TransactionSignatureChecker::check_signature(util::ByteSpan signature,
                                                  util::ByteSpan pubkey,
                                                  util::ByteSpan script_code) const {
    const auto job = signature_job(cache_, input_index_, signature, pubkey, script_code);
    return job && job->key.verify(job->digest, job->sig);
}

}  // namespace ebv::chain
