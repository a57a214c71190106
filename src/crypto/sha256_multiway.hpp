// W-lane SHA-256 core shared by the AVX2 and AVX-512 batch paths. Included
// ONLY by ISA-specific translation units compiled with the matching -m
// flags; the template instantiates against an `Ops` policy providing the
// vector primitives, so the 64-round schedule is written once.
//
// Layout contract (same as the public detail::sha256d_batch_* entry
// points): `blocks[b * W + l]` points at 64-byte block b of lane l; all
// lanes carry `nblocks` pre-padded blocks. All input is consumed before any
// output byte is stored, which is what makes in-place Merkle level
// reduction safe (see sha256d64_many).
#pragma once

#include <cstdint>
#include <cstring>

#include "crypto/sha256.hpp"
#include "util/endian.hpp"

namespace ebv::crypto::multiway {

/// One compression over a 64-byte block per lane. `state` is transposed:
/// state[k] holds word k of every lane.
template <typename Ops>
inline void transform(typename Ops::Reg state[8],
                      const std::uint8_t* const* lane_blocks) {
    using Reg = typename Ops::Reg;
    Reg w[64];
    for (int i = 0; i < 16; ++i) w[i] = Ops::load_word(lane_blocks, i);
    for (int i = 16; i < 64; ++i) {
        const Reg s0 = Ops::xor_(Ops::xor_(Ops::rotr(w[i - 15], 7), Ops::rotr(w[i - 15], 18)),
                                 Ops::shr(w[i - 15], 3));
        const Reg s1 = Ops::xor_(Ops::xor_(Ops::rotr(w[i - 2], 17), Ops::rotr(w[i - 2], 19)),
                                 Ops::shr(w[i - 2], 10));
        w[i] = Ops::add(Ops::add(w[i - 16], s0), Ops::add(w[i - 7], s1));
    }

    Reg a = state[0], b = state[1], c = state[2], d = state[3];
    Reg e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        const Reg s1 = Ops::xor_(Ops::xor_(Ops::rotr(e, 6), Ops::rotr(e, 11)), Ops::rotr(e, 25));
        // ch(e,f,g) = (e & f) ^ (~e & g) = g ^ (e & (f ^ g))
        const Reg ch = Ops::xor_(g, Ops::and_(e, Ops::xor_(f, g)));
        const Reg t1 = Ops::add(Ops::add(Ops::add(h, s1), Ops::add(ch, Ops::set1(detail::kSha256K[i]))),
                                w[i]);
        const Reg s0 = Ops::xor_(Ops::xor_(Ops::rotr(a, 2), Ops::rotr(a, 13)), Ops::rotr(a, 22));
        // maj(a,b,c) = (a & b) | (c & (a | b))
        const Reg maj = Ops::or_(Ops::and_(a, b), Ops::and_(c, Ops::or_(a, b)));
        const Reg t2 = Ops::add(s0, maj);
        h = g;
        g = f;
        f = e;
        e = Ops::add(d, t1);
        d = c;
        c = b;
        b = a;
        a = Ops::add(t1, t2);
    }

    state[0] = Ops::add(state[0], a);
    state[1] = Ops::add(state[1], b);
    state[2] = Ops::add(state[2], c);
    state[3] = Ops::add(state[3], d);
    state[4] = Ops::add(state[4], e);
    state[5] = Ops::add(state[5], f);
    state[6] = Ops::add(state[6], g);
    state[7] = Ops::add(state[7], h);
}

/// Double-SHA256 of W pre-padded messages; see the layout contract above.
template <typename Ops>
inline void sha256d_batch(std::uint8_t* out, const std::uint8_t* const* blocks,
                          std::size_t nblocks) {
    using Reg = typename Ops::Reg;
    constexpr std::size_t W = Ops::kLanes;

    Reg state[8];
    for (int k = 0; k < 8; ++k) state[k] = Ops::set1(detail::kSha256Init[k]);
    for (std::size_t b = 0; b < nblocks; ++b) transform<Ops>(state, blocks + b * W);

    // First-hash digests become the (single, fixed-padding) second-hash
    // block per lane: 32 digest bytes, 0x80, zeros, bit length 256.
    std::uint8_t second[W][64];
    std::uint32_t lane_words[W];
    for (int k = 0; k < 8; ++k) {
        Ops::store(lane_words, state[k]);
        for (std::size_t l = 0; l < W; ++l)
            util::store_be32(second[l] + 4 * k, lane_words[l]);
    }
    for (std::size_t l = 0; l < W; ++l) {
        second[l][32] = 0x80;
        std::memset(second[l] + 33, 0, 29);
        second[l][62] = 0x01;  // 256 bits, big-endian
        second[l][63] = 0x00;
    }

    const std::uint8_t* second_ptrs[W];
    for (std::size_t l = 0; l < W; ++l) second_ptrs[l] = second[l];
    for (int k = 0; k < 8; ++k) state[k] = Ops::set1(detail::kSha256Init[k]);
    transform<Ops>(state, second_ptrs);

    for (int k = 0; k < 8; ++k) {
        Ops::store(lane_words, state[k]);
        for (std::size_t l = 0; l < W; ++l)
            util::store_be32(out + 32 * l + 4 * k, lane_words[l]);
    }
}

}  // namespace ebv::crypto::multiway
