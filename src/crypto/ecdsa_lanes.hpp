// Eight ECDSA verifications at a time. verify_lanes runs up to eight
// independent (pubkey, signature, digest) checks through one lockstep
// double-multiply (ecdsa_lanes_kernel.hpp) and returns the verdicts as a
// bitmask, each bit equal to what PublicKey::verify says for its job.
//
// Backends: "ifma" (AVX-512 IFMA, chosen at run time when the CPU has it),
// "portable" (the same kernel over plain u64 loops; only a test hook picks
// it) and "none", where verify_lanes calls PublicKey::verify per job and
// callers keep their scalar path (lanes_enabled() is false). See
// docs/CRYPTO.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/ecdsa.hpp"

namespace ebv::crypto {

inline constexpr std::size_t kVerifyLanes = 8;

/// Verdicts of up to kVerifyLanes jobs: bit i is
/// jobs[i].key.verify(jobs[i].digest, jobs[i].sig). A lane whose sum hits
/// an exceptional addition is redone by that scalar call
/// (ebv.crypto.lane_fallbacks). A single job always takes the scalar call:
/// the kernel costs the same for one lane as for eight. Only groups that
/// run the kernel count in ebv.crypto.lane_groups.
[[nodiscard]] std::uint8_t verify_lanes(std::span<const VerifyJob> jobs);

/// PublicKey::parse of up to kVerifyLanes encodings: bit i set when
/// keys[i] holds encodings[i]'s key. Two or more well-formed ones take
/// their square roots in one lane chain (ebv.crypto.lane_decompressions);
/// a lone one, or any under backend "none", takes PublicKey::parse.
[[nodiscard]] std::uint8_t parse_keys_lanes(std::span<const util::ByteSpan> encodings,
                                            std::span<PublicKey> keys);

/// The active backend: "ifma", "portable" or "none".
[[nodiscard]] const char* lanes_impl();
/// Whether a lane backend is active; callers that batch jobs for
/// verify_lanes check this and otherwise verify inline.
[[nodiscard]] bool lanes_enabled();

/// Test hook: force "ifma", "portable" or "none", or "auto" to re-detect
/// ("ifma" when the CPU has it, else "none"). Returns false, leaving the
/// selection unchanged, when the CPU or build lacks the backend. Not
/// thread-safe against in-flight verification.
bool lanes_force_impl(std::string_view name);

namespace detail {

/// Whether this build and CPU can run the IFMA backend.
bool have_ifma();

/// a[l] = a[l]·b[l] mod p for the eight field elements a[·][lane], `count`
/// times, in the active backend (portable when none is active). Limbs are
/// FieldElement's, carried: 0–3 below 2^52, 4 below 2^49.
void field_mul_lanes(std::uint64_t (&a)[5][kVerifyLanes],
                     const std::uint64_t (&b)[5][kVerifyLanes], std::size_t count);

}  // namespace detail

}  // namespace ebv::crypto
