#include "crypto/ecdsa.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "util/assert.hpp"

namespace ebv::crypto {

namespace {

using secp256k1::kGroupOrder;
using secp256k1::Scalar;

/// RFC 6979 deterministic nonce for (secret, msg_hash); retries handled by
/// the caller via the counter-free k-update step.
class Rfc6979 {
public:
    Rfc6979(const U256& secret, const Hash256& msg_hash) {
        std::uint8_t x[32];
        secret.to_be_bytes(x);

        std::memset(v_, 0x01, 32);
        std::memset(k_, 0x00, 32);

        update(0x00, {x, 32}, msg_hash.span());
        update(0x01, {x, 32}, msg_hash.span());
    }

    /// Next candidate nonce in [1, n-1].
    U256 next() {
        for (;;) {
            HmacSha256 h({k_, 32});
            h.update({v_, 32});
            const auto t = h.finalize();
            std::memcpy(v_, t.data(), 32);

            const U256 k = U256::from_be_bytes({v_, 32});
            if (!k.is_zero() && u256_less(k, kGroupOrder)) return k;

            // k = HMAC(k, V || 0x00); V = HMAC(k, V) — the retry step.
            HmacSha256 h2({k_, 32});
            h2.update({v_, 32});
            const std::uint8_t zero = 0x00;
            h2.update({&zero, 1});
            const auto nk = h2.finalize();
            std::memcpy(k_, nk.data(), 32);

            HmacSha256 h3({k_, 32});
            h3.update({v_, 32});
            const auto nv = h3.finalize();
            std::memcpy(v_, nv.data(), 32);
        }
    }

private:
    void update(std::uint8_t tag, util::ByteSpan x, util::ByteSpan h1) {
        HmacSha256 mac({k_, 32});
        mac.update({v_, 32});
        mac.update({&tag, 1});
        mac.update(x);
        mac.update(h1);
        const auto nk = mac.finalize();
        std::memcpy(k_, nk.data(), 32);

        HmacSha256 vmac({k_, 32});
        vmac.update({v_, 32});
        const auto nv = vmac.finalize();
        std::memcpy(v_, nv.data(), 32);
    }

    std::uint8_t v_[32];
    std::uint8_t k_[32];
};

/// Minimal-length unsigned big-endian encoding of a U256 for DER, with a
/// leading 0x00 if the top bit is set.
void der_put_integer(util::Bytes& out, const U256& v) {
    std::uint8_t be[32];
    v.to_be_bytes(be);
    std::size_t start = 0;
    while (start < 31 && be[start] == 0) ++start;

    const bool pad = be[start] & 0x80;
    const std::size_t len = 32 - start + (pad ? 1 : 0);
    out.push_back(0x02);
    out.push_back(static_cast<std::uint8_t>(len));
    if (pad) out.push_back(0x00);
    out.insert(out.end(), be + start, be + 32);
}

std::optional<U256> der_get_integer(util::ByteSpan der, std::size_t& pos) {
    if (pos + 2 > der.size() || der[pos] != 0x02) return std::nullopt;
    const std::size_t len = der[pos + 1];
    pos += 2;
    if (len == 0 || len > 33 || pos + len > der.size()) return std::nullopt;

    // Strictness: no negative values, no non-minimal padding.
    if (der[pos] & 0x80) return std::nullopt;
    if (len > 1 && der[pos] == 0x00 && !(der[pos + 1] & 0x80)) return std::nullopt;

    std::uint8_t be[32] = {};
    std::size_t data_len = len;
    std::size_t data_pos = pos;
    if (der[pos] == 0x00) {
        ++data_pos;
        --data_len;
    }
    if (data_len > 32) return std::nullopt;
    std::memcpy(be + (32 - data_len), der.data() + data_pos, data_len);
    pos += len;
    return U256::from_be_bytes({be, 32});
}

}  // namespace

bool Signature::is_low_s() const {
    return u256_less(s, kGroupOrder) && !Scalar(s).is_high();
}

util::Bytes Signature::to_der() const {
    util::Bytes body;
    body.reserve(72);
    der_put_integer(body, r);
    der_put_integer(body, s);

    util::Bytes out;
    out.reserve(body.size() + 2);
    out.push_back(0x30);
    out.push_back(static_cast<std::uint8_t>(body.size()));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

std::optional<Signature> Signature::from_der(util::ByteSpan der) {
    if (der.size() < 8 || der.size() > 72) return std::nullopt;
    if (der[0] != 0x30 || der[1] != der.size() - 2) return std::nullopt;

    std::size_t pos = 2;
    const auto r = der_get_integer(der, pos);
    if (!r) return std::nullopt;
    const auto s = der_get_integer(der, pos);
    if (!s) return std::nullopt;
    if (pos != der.size()) return std::nullopt;

    // Strict range check at parse time: r, s must be in [1, n-1]. verify()
    // rejects out-of-range values anyway, so this cannot change any
    // accept/reject verdict — it only moves the rejection earlier, before a
    // 33-byte zero-padded integer body could smuggle in a value >= n.
    if (r->is_zero() || s->is_zero()) return std::nullopt;
    if (!u256_less(*r, kGroupOrder) || !u256_less(*s, kGroupOrder)) return std::nullopt;

    return Signature{*r, *s};
}

util::Bytes PublicKey::serialize() const {
    EBV_EXPECTS(valid());
    util::Bytes out(33);
    secp256k1::serialize_compressed(point_, out);
    return out;
}

std::optional<PublicKey> PublicKey::parse(util::ByteSpan bytes) {
    const auto point = secp256k1::parse_compressed(bytes);
    if (!point) return std::nullopt;
    return PublicKey(*point);
}

Hash160 PublicKey::id() const { return hash160(serialize()); }

bool PublicKey::verify(const Hash256& msg_hash, const Signature& sig) const {
    if (!valid()) return false;

    // r, s in [1, n-1].
    if (sig.r.is_zero() || sig.s.is_zero()) return false;
    if (!u256_less(sig.r, kGroupOrder) || !u256_less(sig.s, kGroupOrder)) return false;

    const Scalar z(U256::from_be_bytes(msg_hash.span()));
    const Scalar r(sig.r);
    const Scalar s_inv = Scalar(sig.s).inverse();
    return secp256k1::double_multiply_x_matches(point_, z * s_inv, r * s_inv, r);
}

std::optional<PrivateKey> PrivateKey::from_bytes(util::ByteSpan bytes32) {
    if (bytes32.size() != 32) return std::nullopt;
    const U256 secret = U256::from_be_bytes(bytes32);
    if (secret.is_zero() || !u256_less(secret, kGroupOrder)) return std::nullopt;
    return PrivateKey(secret);
}

PrivateKey PrivateKey::generate(util::Rng& rng) {
    for (;;) {
        std::uint8_t buf[32];
        rng.fill({buf, 32});
        if (auto key = from_bytes({buf, 32})) return *key;
    }
}

PublicKey PrivateKey::public_key() const {
    EBV_EXPECTS(valid());
    return PublicKey(secp256k1::multiply_generator(secret_));
}

Signature PrivateKey::sign(const Hash256& msg_hash) const {
    EBV_EXPECTS(valid());
    const Scalar z(U256::from_be_bytes(msg_hash.span()));
    const Scalar d(secret_);

    Rfc6979 nonce_gen(secret_, msg_hash);
    for (;;) {
        const U256 k = nonce_gen.next();
        const secp256k1::Point R = secp256k1::multiply_generator(k);
        if (R.infinity) continue;

        const Scalar r(R.x);
        if (r.is_zero()) continue;

        const Scalar s = Scalar(k).inverse() * (z + r * d);
        if (s.is_zero()) continue;

        // Low-s normalization: of s and n − s, emit the one <= n/2.
        return Signature{r.value(), s.is_high() ? (-s).value() : s.value()};
    }
}

}  // namespace ebv::crypto
