#include "crypto/field.hpp"

#include "crypto/modinv.hpp"
#include "crypto/sqrt_chain.hpp"

namespace ebv::crypto::secp256k1 {

FieldElement FieldElement::inverse() const { return FieldElement(modinv(value(), kFieldPrime)); }

std::optional<FieldElement> FieldElement::sqrt() const {
    const FieldElement root = sqrt_chain(
        *this, [](const FieldElement& x) { return x.sqr(); },
        [](const FieldElement& x, const FieldElement& y) { return x * y; });
    if (root.sqr() != *this) return std::nullopt;
    return root;
}

}  // namespace ebv::crypto::secp256k1
