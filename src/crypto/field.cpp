#include "crypto/field.hpp"

#include "crypto/modinv.hpp"

namespace ebv::crypto::secp256k1 {

namespace {

using Fe = FieldElement;

Fe sqr_n(Fe a, int n) {
    for (int i = 0; i < n; ++i) a = a.sqr();
    return a;
}

}  // namespace

FieldElement FieldElement::inverse() const { return Fe(modinv(value(), kFieldPrime)); }

std::optional<FieldElement> FieldElement::sqrt() const {
    // (p + 1)/4 = [223 ones] 0 [22 ones] 00001100: the runs of ones by an
    // addition chain over a^(2^k − 1), 253 squarings and 13 products.
    const Fe& a = *this;
    const Fe x2 = a.sqr() * a;
    const Fe x3 = x2.sqr() * a;
    const Fe x6 = sqr_n(x3, 3) * x3;
    const Fe x9 = sqr_n(x6, 3) * x3;
    const Fe x11 = sqr_n(x9, 2) * x2;
    const Fe x22 = sqr_n(x11, 11) * x11;
    const Fe x44 = sqr_n(x22, 22) * x22;
    const Fe x88 = sqr_n(x44, 44) * x44;
    const Fe x176 = sqr_n(x88, 88) * x88;
    const Fe x220 = sqr_n(x176, 44) * x44;
    const Fe x223 = sqr_n(x220, 3) * x3;
    Fe t = sqr_n(x223, 23) * x22;
    t = sqr_n(t, 6) * x2;
    const Fe root = sqr_n(t, 2);
    if (root.sqr() != *this) return std::nullopt;
    return root;
}

}  // namespace ebv::crypto::secp256k1
