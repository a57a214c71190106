#include "crypto/u256.hpp"

#include "util/assert.hpp"
#include "util/endian.hpp"

namespace ebv::crypto {

U256 U256::from_be_bytes(util::ByteSpan bytes32) {
    EBV_EXPECTS(bytes32.size() == 32);
    U256 v;
    for (int i = 0; i < 4; ++i) v.limbs[3 - i] = util::load_be64(bytes32.data() + 8 * i);
    return v;
}

void U256::to_be_bytes(util::MutableByteSpan out32) const {
    EBV_EXPECTS(out32.size() == 32);
    for (int i = 0; i < 4; ++i) util::store_be64(out32.data() + 8 * i, limbs[3 - i]);
}

U256 U256::from_hex(std::string_view hex64) {
    EBV_EXPECTS(hex64.size() == 64);
    auto nibble = [](char c) -> std::uint64_t {
        if (c >= '0' && c <= '9') return static_cast<std::uint64_t>(c - '0');
        if (c >= 'a' && c <= 'f') return static_cast<std::uint64_t>(c - 'a' + 10);
        if (c >= 'A' && c <= 'F') return static_cast<std::uint64_t>(c - 'A' + 10);
        EBV_EXPECTS(false && "invalid hex digit");
        return 0;
    };
    U256 v;
    for (int limb = 0; limb < 4; ++limb) {
        std::uint64_t acc = 0;
        for (int i = 0; i < 16; ++i) acc = acc << 4 | nibble(hex64[16 * limb + i]);
        v.limbs[3 - limb] = acc;
    }
    return v;
}

}  // namespace ebv::crypto
