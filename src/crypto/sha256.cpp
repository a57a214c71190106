#include "crypto/sha256.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/endian.hpp"

namespace ebv::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace detail {

void sha256_transform(std::uint32_t state[8], const std::uint8_t* block) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = util::load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

}  // namespace detail

void Sha256::reset() {
    for (int i = 0; i < 8; ++i) state_[i] = detail::kSha256Init[i];
    total_len_ = 0;
    buffer_len_ = 0;
}

void Sha256::compress(const std::uint8_t* block) {
    detail::sha256_transform_active()(state_, block);
}

Sha256::Midstate Sha256::midstate() const {
    EBV_EXPECTS(buffer_len_ == 0);  // only whole blocks may be captured
    Midstate m;
    std::memcpy(m.state, state_, sizeof(m.state));
    m.bytes = total_len_;
    return m;
}

Sha256 Sha256::resume(const Midstate& m) {
    Sha256 h;
    std::memcpy(h.state_, m.state, sizeof(h.state_));
    h.total_len_ = m.bytes;
    h.buffer_len_ = 0;
    return h;
}

Sha256& Sha256::update(util::ByteSpan data) {
    total_len_ += data.size();
    std::size_t offset = 0;

    if (buffer_len_ > 0 && !data.empty()) {  // an empty span may carry a null data()
        const std::size_t take = std::min(data.size(), 64 - buffer_len_);
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset += take;
        if (buffer_len_ == 64) {
            compress(buffer_);
            buffer_len_ = 0;
        }
    }

    while (offset + 64 <= data.size()) {
        compress(data.data() + offset);
        offset += 64;
    }

    if (offset < data.size()) {
        buffer_len_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, buffer_len_);
    }
    return *this;
}

void Sha256::finalize(util::MutableByteSpan out) {
    // One digest per finalize: together with the batch-path message counters
    // (sha256_batch.cpp) this makes "did anything hash?" observable — the
    // Merkle proof cache's zero-rehash contract is asserted against these.
    static obs::Counter& finalizes =
        obs::Registry::global().counter("ebv.crypto.sha256_finalizes");
    finalizes.inc();
    EBV_EXPECTS(out.size() >= kDigestSize);
    const std::uint64_t bit_len = total_len_ * 8;

    // Padding: 0x80 then zeros to 56 mod 64, then 64-bit big-endian length.
    const std::uint8_t pad_byte = 0x80;
    update({&pad_byte, 1});
    const std::uint8_t zero = 0x00;
    while (buffer_len_ != 56) update({&zero, 1});

    std::uint8_t len_bytes[8];
    util::store_be64(len_bytes, bit_len);
    // Bypass update()'s length accounting for the length field itself.
    std::memcpy(buffer_ + 56, len_bytes, 8);
    compress(buffer_);
    buffer_len_ = 0;

    for (int i = 0; i < 8; ++i) util::store_be32(out.data() + 4 * i, state_[i]);
}

Sha256::Digest Sha256::finalize() {
    Digest d;
    finalize(d);
    return d;
}

Sha256::Digest Sha256::hash(util::ByteSpan data) {
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Sha256::Digest double_sha256(util::ByteSpan data) {
    const Sha256::Digest first = Sha256::hash(data);
    return Sha256::hash(util::ByteSpan{first.data(), first.size()});
}

}  // namespace ebv::crypto
