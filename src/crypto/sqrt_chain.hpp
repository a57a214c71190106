// a^((p+1)/4) in the secp256k1 field for FieldElement::sqrt and the lane
// kernel: a template only, so no ISA-specific inline function is emitted.
#pragma once

namespace ebv::crypto::secp256k1 {

/// (p + 1)/4 = [223 ones] 0 [22 ones] 00001100: the runs of ones by an
/// addition chain over a^(2^k − 1), 253 squarings and 13 products, with
/// the field's `sqr(x)` and `mul(x, y)`. The square root of a square.
template <typename F, typename Sqr, typename Mul>
F sqrt_chain(const F& a, Sqr sqr, Mul mul) {
    const auto sqr_n = [&](F t, int n) {
        while (n-- > 0) t = sqr(t);
        return t;
    };
    const F x2 = mul(sqr(a), a);
    const F x3 = mul(sqr(x2), a);
    const F x6 = mul(sqr_n(x3, 3), x3);
    const F x9 = mul(sqr_n(x6, 3), x3);
    const F x11 = mul(sqr_n(x9, 2), x2);
    const F x22 = mul(sqr_n(x11, 11), x11);
    const F x44 = mul(sqr_n(x22, 22), x22);
    const F x88 = mul(sqr_n(x44, 44), x44);
    const F x176 = mul(sqr_n(x88, 88), x88);
    const F x220 = mul(sqr_n(x176, 44), x44);
    const F x223 = mul(sqr_n(x220, 3), x3);
    return sqr_n(mul(sqr_n(mul(sqr_n(x223, 23), x22), 6), x2), 2);
}

}  // namespace ebv::crypto::secp256k1
