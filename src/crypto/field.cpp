#include "crypto/field.hpp"

namespace ebv::crypto::secp256k1 {

namespace {

using Fe = FieldElement;

Fe sqr_n(Fe a, int n) {
    for (int i = 0; i < n; ++i) a = a.sqr();
    return a;
}

/// The shared prefix of the inverse and square-root chains: returns
/// a^(2^223 − 1) and, through the out-parameters, a^(2^k − 1) for k = 1, 2, 22.
/// Both exponents p − 2 and (p + 1)/4 open with 223 one bits, a zero, and 22
/// one bits.
Fe ones_223(const Fe& a, Fe& x2, Fe& x22) {
    x2 = a.sqr() * a;
    const Fe x3 = x2.sqr() * a;
    const Fe x6 = sqr_n(x3, 3) * x3;
    const Fe x9 = sqr_n(x6, 3) * x3;
    const Fe x11 = sqr_n(x9, 2) * x2;
    x22 = sqr_n(x11, 11) * x11;
    const Fe x44 = sqr_n(x22, 22) * x22;
    const Fe x88 = sqr_n(x44, 44) * x44;
    const Fe x176 = sqr_n(x88, 88) * x88;
    const Fe x220 = sqr_n(x176, 44) * x44;
    return sqr_n(x220, 3) * x3;
}

}  // namespace

FieldElement FieldElement::inverse() const {
    // p − 2 = [223 ones] 0 [22 ones] 0000101101: 255 squarings, 15 products.
    Fe x2, x22;
    Fe t = ones_223(*this, x2, x22);
    t = sqr_n(t, 23) * x22;
    t = sqr_n(t, 5) * *this;
    t = sqr_n(t, 3) * x2;
    return sqr_n(t, 2) * *this;
}

std::optional<FieldElement> FieldElement::sqrt() const {
    // (p + 1)/4 = [223 ones] 0 [22 ones] 00001100.
    Fe x2, x22;
    Fe t = ones_223(*this, x2, x22);
    t = sqr_n(t, 23) * x22;
    t = sqr_n(t, 6) * x2;
    const Fe root = sqr_n(t, 2);
    if (root.sqr() != *this) return std::nullopt;
    return root;
}

}  // namespace ebv::crypto::secp256k1
