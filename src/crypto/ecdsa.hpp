// ECDSA over secp256k1: key types, deterministic (RFC 6979) signing,
// verification, and DER signature encoding as used inside script.
#pragma once

#include <optional>

#include "crypto/hash_types.hpp"
#include "crypto/secp256k1.hpp"
#include "util/rng.hpp"
#include "util/span.hpp"

namespace ebv::crypto {

struct Signature {
    U256 r{};
    U256 s{};

    /// Canonical low-s form (s <= n/2), mirroring Bitcoin's policy rule.
    [[nodiscard]] bool is_low_s() const;

    /// DER-encoded SEQUENCE of two INTEGERs (strict parsing on decode).
    util::Bytes to_der() const;
    static std::optional<Signature> from_der(util::ByteSpan der);
};

class PublicKey {
public:
    PublicKey() = default;
    explicit PublicKey(const secp256k1::Point& point) : point_(point) {}

    [[nodiscard]] bool valid() const { return !point_.infinity; }
    [[nodiscard]] const secp256k1::Point& point() const { return point_; }

    /// 33-byte compressed encoding.
    [[nodiscard]] util::Bytes serialize() const;
    static std::optional<PublicKey> parse(util::ByteSpan bytes);

    /// hash160 of the compressed encoding — the P2PKH destination.
    [[nodiscard]] Hash160 id() const;

    /// Verify a signature over a 32-byte message hash.
    [[nodiscard]] bool verify(const Hash256& msg_hash, const Signature& sig) const;

private:
    secp256k1::Point point_;
};

class PrivateKey {
public:
    PrivateKey() = default;

    /// From a 32-byte big-endian secret; must be in [1, n-1].
    static std::optional<PrivateKey> from_bytes(util::ByteSpan bytes32);
    /// Fresh key from a deterministic RNG (workload generation).
    static PrivateKey generate(util::Rng& rng);

    [[nodiscard]] bool valid() const { return !secret_.is_zero(); }
    [[nodiscard]] PublicKey public_key() const;

    /// Deterministic RFC 6979 signature over a 32-byte message hash,
    /// normalized to low-s.
    [[nodiscard]] Signature sign(const Hash256& msg_hash) const;

    [[nodiscard]] const U256& secret() const { return secret_; }

private:
    explicit PrivateKey(const U256& secret) : secret_(secret) {}
    U256 secret_{};
};

/// One signature check: the (pubkey, signature, sighash) triple an
/// OP_CHECKSIG-family opcode verifies.
struct VerifyJob {
    PublicKey key;
    Signature sig;
    Hash256 digest;
};

}  // namespace ebv::crypto
