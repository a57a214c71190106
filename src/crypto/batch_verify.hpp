// Batched ECDSA verification: amortizes the per-signature scalar inversion
// s⁻¹ across N signatures via Montgomery batch inversion; each signature
// then runs the same double-scalar pass and Jacobian r-check as
// PublicKey::verify.
//
// Verdicts are bit-identical to PublicKey::verify per job — every early
// reject (invalid key, r or s out of [1, n-1]) is replicated in the same
// order, and the batched inversion computes the same canonical values
// (modular inverses are unique). That
// equivalence is what lets the script layer's deferred-check mode fall back
// to inline verification without changing any accept/reject outcome; see
// docs/CRYPTO.md for the contract.
#pragma once

#include <cstddef>
#include <span>

#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"

namespace ebv::crypto {

/// One deferred signature check: the (pubkey, signature, sighash) triple an
/// OP_CHECKSIG-family opcode would verify inline.
struct VerifyJob {
    PublicKey key;
    Signature sig;
    Hash256 digest;
};

struct BatchVerifyStats {
    std::size_t checked = 0;           ///< jobs examined
    std::size_t accepted = 0;          ///< jobs whose verdict is true
    std::size_t inversions_saved = 0;  ///< modular inversions amortized away
};

/// Verify every job, writing verdicts[i] == jobs[i].key.verify(
/// jobs[i].digest, jobs[i].sig) for all i — accept AND reject cases.
BatchVerifyStats verify_batch(std::span<const VerifyJob> jobs, bool* verdicts);

}  // namespace ebv::crypto
