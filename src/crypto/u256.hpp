// 256-bit unsigned integers (4×64-bit little-endian limbs): the raw carrier
// for hashes, targets and the secp256k1 field and scalar types
// (crypto/field.hpp, crypto/scalar.hpp), which own all modular arithmetic.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/span.hpp"

namespace ebv::crypto {

struct U256 {
    // limbs[0] is the least significant 64 bits.
    std::array<std::uint64_t, 4> limbs{};

    static constexpr U256 zero() { return {}; }
    static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }
    static U256 from_u64(std::uint64_t v) { return U256{{v, 0, 0, 0}}; }

    /// Big-endian 32-byte decoding (the natural byte order of hashes/keys).
    static U256 from_be_bytes(util::ByteSpan bytes32);
    void to_be_bytes(util::MutableByteSpan out32) const;

    /// Parse exactly 64 hex characters (big-endian). Aborts on bad input;
    /// intended for compile-time-known constants.
    static U256 from_hex(std::string_view hex64);

    [[nodiscard]] bool is_zero() const {
        return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
    }
    [[nodiscard]] bool is_odd() const { return limbs[0] & 1; }
    [[nodiscard]] bool bit(unsigned i) const { return (limbs[i / 64] >> (i % 64)) & 1; }

    friend bool operator==(const U256&, const U256&) = default;
};

/// a < b, a <= b as unsigned 256-bit integers.
inline bool u256_less(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        if (a.limbs[i] != b.limbs[i]) return a.limbs[i] < b.limbs[i];
    }
    return false;
}
inline bool u256_less_equal(const U256& a, const U256& b) { return !u256_less(b, a); }

/// a + b, returning the carry-out bit.
inline std::uint64_t u256_add(const U256& a, const U256& b, U256& out) {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        carry += static_cast<unsigned __int128>(a.limbs[i]) + b.limbs[i];
        out.limbs[i] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
    }
    return static_cast<std::uint64_t>(carry);
}

/// a - b, returning the borrow-out bit.
inline std::uint64_t u256_sub(const U256& a, const U256& b, U256& out) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
        const unsigned __int128 diff =
            static_cast<unsigned __int128>(a.limbs[i]) - b.limbs[i] - borrow;
        out.limbs[i] = static_cast<std::uint64_t>(diff);
        borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
    }
    return borrow;
}

/// Full 512-bit product as 8 limbs (little-endian).
inline void u256_mul_wide(const U256& a, const U256& b, std::uint64_t out[8]) {
    for (int i = 0; i < 4; ++i) {
        unsigned __int128 carry = 0;
        for (int j = 0; j < 4; ++j) {
            carry += static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[j] +
                     (i == 0 ? 0 : out[i + j]);
            out[i + j] = static_cast<std::uint64_t>(carry);
            carry >>= 64;
        }
        out[i + 4] = static_cast<std::uint64_t>(carry);
    }
}

}  // namespace ebv::crypto
