// SHA-256 (FIPS 180-4), implemented from scratch. Streaming interface plus
// one-shot helpers; the chain layer builds double-SHA256 on top. Batched
// double-SHA256 entry points (8-way AVX2 / 16-way AVX-512, picked by the
// CPU at startup, with a one-stream fallback) feed the Merkle layer's hot
// paths, and a SHA-NI single-stream transform accelerates the streaming
// hasher (and thereby sha256/hash256) on CPUs with the SHA extensions.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/span.hpp"

namespace ebv::crypto {

class Sha256 {
public:
    static constexpr std::size_t kDigestSize = 32;
    using Digest = std::array<std::uint8_t, kDigestSize>;

    Sha256() { reset(); }

    void reset();
    Sha256& update(util::ByteSpan data);
    /// Finalizes into out; the object must be reset() before reuse.
    void finalize(util::MutableByteSpan out);
    Digest finalize();

    /// One-shot convenience.
    static Digest hash(util::ByteSpan data);

    /// Captured compression state after a whole number of 64-byte blocks.
    /// Cloning a hasher from a midstate skips re-hashing the shared prefix —
    /// the sighash template cache (chain/sighash_template.hpp) stores one
    /// per input.
    struct Midstate {
        std::uint32_t state[8];
        std::uint64_t bytes = 0;  ///< prefix length; always a multiple of 64
    };

    /// Snapshot the current state. Only valid when no partial block is
    /// buffered (total bytes fed so far is a multiple of 64).
    [[nodiscard]] Midstate midstate() const;
    /// A hasher that behaves as if `m.bytes` prefix bytes were already fed.
    static Sha256 resume(const Midstate& m);

private:
    void compress(const std::uint8_t* block);

    std::uint32_t state_[8];
    std::uint64_t total_len_ = 0;
    std::uint8_t buffer_[64];
    std::size_t buffer_len_ = 0;
};

/// SHA-256(SHA-256(data)) — the chain's canonical hash.
Sha256::Digest double_sha256(util::ByteSpan data);

// Every digest this library produces is counted in the obs registry:
//   ebv.crypto.sha256_finalizes   streaming digests (Sha256::finalize; a
//                                 double_sha256 call counts two)
//   ebv.crypto.sha256d64_msgs     messages through sha256d64_many
//   ebv.crypto.sha256d_msgs       messages through sha256d_many (its scalar
//                                 stragglers additionally count finalizes)
// The categories overlap by design — they answer "did this code path hash
// at all?", which is how MerkleTreeCache's zero-rehash branch extraction
// is asserted (tests/crypto_merkle_cache_test.cpp).

// ---- Batched double-SHA256 ---------------------------------------------

/// Double-SHA256 of `n` independent 64-byte messages (the Merkle
/// interior-node case): reads n*64 bytes at `in`, writes n*32 bytes at
/// `out`. In-place operation (out == in) is supported: each lane group
/// reads all of its input before storing any output, and an output never
/// overtakes a later group's input.
void sha256d64_many(std::uint8_t* out, const std::uint8_t* in, std::size_t n);

/// Double-SHA256 of `n` variable-length messages (the Merkle leaf case).
/// Messages with equal padded block counts are batched through the SIMD
/// transform; stragglers take the scalar path. Output i is byte-identical
/// to double_sha256(inputs[i]).
void sha256d_many(const util::ByteSpan* inputs, Sha256::Digest* outputs,
                  std::size_t n);

/// Name of the active batch (multi-lane) row: "scalar", "avx2", or
/// "avx512". The CPU alone picks it, once per process. Orthogonal to the
/// single-stream transform — see sha256_impl().
[[nodiscard]] const char* sha256_batch_impl();

/// Full name of the active selection, combining the batch row and the
/// single-stream transform: e.g. "avx2", "sha-ni", or "avx512+sha-ni" when
/// auto-detection pairs the 16-way batch row with the SHA-NI stream.
[[nodiscard]] const char* sha256_impl();

/// Stable numeric id of the active selection for the ebv.crypto.sha256_impl
/// gauge: 0 scalar, 2 avx2, 3 avx512, 4 sha-ni, 6 avx2+sha-ni,
/// 7 avx512+sha-ni. Ids 1 and 5 (the retired SSE2 rows) are never reused.
[[nodiscard]] int sha256_impl_index();

/// Test hook: force one row ("scalar", "avx2", "avx512", "sha-ni",
/// "avx2+sha-ni", "avx512+sha-ni", or "auto" to re-detect). Returns false —
/// leaving the selection unchanged — when the CPU or build lacks support.
/// Not thread-safe against in-flight hashing; parity tests and benches
/// only.
bool sha256_force_batch_impl(std::string_view name);

namespace detail {

inline constexpr std::uint32_t kSha256Init[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

/// One compression round over a single 64-byte block — the portable scalar
/// core (shared by the streaming hasher and the one-stream batch fallback).
void sha256_transform(std::uint32_t state[8], const std::uint8_t* block);

/// Single-stream transform selected by the dispatch table: the SHA-NI core
/// when the active row carries it, the scalar core otherwise. The streaming
/// hasher compresses through this pointer.
using TransformFn = void (*)(std::uint32_t state[8], const std::uint8_t* block);
[[nodiscard]] TransformFn sha256_transform_active();

// Per-ISA batch cores over *pre-padded* messages. `blocks[b * lanes + l]`
// points at 64-byte block b of lane l; every lane has exactly `nblocks`
// blocks (padding included). Writes `lanes` 32-byte double-SHA256 digests
// to `out`.
inline constexpr std::size_t kAvx2Lanes = 8;
inline constexpr std::size_t kAvx512Lanes = 16;
[[nodiscard]] bool have_avx2();
[[nodiscard]] bool have_avx512();  ///< AVX-512F (incl. OS zmm state support)
[[nodiscard]] bool have_shani();   ///< SHA-NI (sha256msg1/2, sha256rnds2)
void sha256d_batch_avx2(std::uint8_t* out, const std::uint8_t* const* blocks,
                        std::size_t nblocks);  ///< 8 lanes; only if have_avx2()
void sha256d_batch_avx512(std::uint8_t* out, const std::uint8_t* const* blocks,
                          std::size_t nblocks);  ///< 16 lanes; only if have_avx512()
/// SHA-NI single-stream compression; only if have_shani().
void sha256_transform_shani(std::uint32_t state[8], const std::uint8_t* block);

}  // namespace detail

}  // namespace ebv::crypto
