#include "crypto/modinv.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/assert.hpp"

namespace ebv::crypto {

namespace {

using i128 = __int128;
constexpr std::uint64_t kM62 = ~0ULL >> 2;

/// A signed integer in base 2^62: sum(v[i]·2^(62·i)), limbs 0..3 in
/// (−2^62, 2^62) and the top limb signed.
struct Signed62 {
    std::int64_t v[5];
};

/// The matrix [u v; q r] of a batch of 62 divsteps, scaled by 2^62:
/// (f, g) after the batch is (u·f + v·g, q·f + r·g) / 2^62.
struct Trans2x2 {
    std::int64_t u, v, q, r;
};

Signed62 to_signed62(const U256& a) {
    const auto& l = a.limbs;
    return Signed62{{static_cast<std::int64_t>(l[0] & kM62),
                     static_cast<std::int64_t>((l[0] >> 62 | l[1] << 2) & kM62),
                     static_cast<std::int64_t>((l[1] >> 60 | l[2] << 4) & kM62),
                     static_cast<std::int64_t>((l[2] >> 58 | l[3] << 6) & kM62),
                     static_cast<std::int64_t>(l[3] >> 56)}};
}

/// Inverse of to_signed62 for a value in [0, 2^256) with limbs in [0, 2^62).
U256 from_signed62(const Signed62& a) {
    const auto v = [&](int i) { return static_cast<std::uint64_t>(a.v[i]); };
    return U256{{v(0) | v(1) << 62, v(1) >> 2 | v(2) << 60, v(2) >> 4 | v(3) << 58,
                 v(3) >> 6 | v(4) << 56}};
}

/// 62 divsteps on the low 64 bits of f and g (f odd), variable time: runs
/// of zero bits in g are skipped at once, and each step that keeps f
/// cancels up to 4 (or, after a swap, 6) low bits of g in one addition.
/// eta is −delta of the divstep definition. Returns the new eta.
std::int64_t divsteps_62(std::int64_t eta, std::uint64_t f, std::uint64_t g, Trans2x2& t) {
    std::uint64_t u = 1, v = 0, q = 0, r = 1;
    int i = 62;
    for (;;) {
        // The sentinel bit at position i caps the count at the steps left.
        const int zeros = std::countr_zero(g | (~0ULL << i));
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros;
        i -= zeros;
        if (i == 0) break;
        // f and g are odd here. On eta < 0 the step swaps to (g, −f) and
        // flips eta's sign; then up to 6 low bits of g cancel in one addition
        // of a multiple of f, otherwise up to 4. No more than eta + 1 bits
        // may go at once, nor more than the steps left.
        std::uint64_t w;
        if (eta < 0) {
            eta = -eta;
            std::uint64_t tmp = f;
            f = g;
            g = 0 - tmp;
            tmp = u;
            u = q;
            q = 0 - tmp;
            tmp = v;
            v = r;
            r = 0 - tmp;
            const int limit = std::min(static_cast<int>(eta) + 1, i);
            // f·(f² − 2) ≡ −f⁻¹ (mod 64) for odd f.
            w = (f * g * (f * f - 2)) & (~0ULL >> (64 - limit)) & 63U;
        } else {
            const int limit = std::min(static_cast<int>(eta) + 1, i);
            // f + (((f + 1) & 4) << 1) ≡ f⁻¹ (mod 16) for odd f.
            w = (0 - (f + (((f + 1) & 4) << 1)) * g) & (~0ULL >> (64 - limit)) & 15U;
        }
        g += f * w;
        q += u * w;
        r += v * w;
    }
    t = Trans2x2{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
    return eta;
}

/// (d, e) ← (t·(d, e) + m·(md, me)) / 2^62 with md, me chosen so the low 62
/// bits vanish: d and e track the Bézout coefficient of g modulo m, and
/// stay in (−2m, m).
void update_de(Signed62& d, Signed62& e, const Trans2x2& t, const Signed62& m,
               std::uint64_t m_inv62) {
    const std::int64_t sd = d.v[4] >> 63;
    const std::int64_t se = e.v[4] >> 63;
    std::int64_t md = (t.u & sd) + (t.v & se);
    std::int64_t me = (t.q & sd) + (t.r & se);
    i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
    i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
    md -= static_cast<std::int64_t>(
        (m_inv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) & kM62);
    me -= static_cast<std::int64_t>(
        (m_inv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) & kM62);
    cd += static_cast<i128>(m.v[0]) * md;
    ce += static_cast<i128>(m.v[0]) * me;
    cd >>= 62;
    ce >>= 62;
    for (int i = 1; i < 5; ++i) {
        cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i] +
              static_cast<i128>(m.v[i]) * md;
        ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i] +
              static_cast<i128>(m.v[i]) * me;
        d.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
        e.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
        cd >>= 62;
        ce >>= 62;
    }
    d.v[4] = static_cast<std::int64_t>(cd);
    e.v[4] = static_cast<std::int64_t>(ce);
}

/// (f, g) ← t·(f, g) / 2^62 over the low len limbs (the rest are sign
/// extension); the division is exact by construction of t.
void update_fg(int len, Signed62& f, Signed62& g, const Trans2x2& t) {
    i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
    i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
    cf >>= 62;
    cg >>= 62;
    for (int i = 1; i < len; ++i) {
        cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
        cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
        f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kM62);
        g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kM62);
        cf >>= 62;
        cg >>= 62;
    }
    f.v[len - 1] = static_cast<std::int64_t>(cf);
    g.v[len - 1] = static_cast<std::int64_t>(cg);
}

/// Brings d from (−2m, m) to [0, m), negating it first when sign < 0.
/// Limbs 0..3 of d are in [0, 2^62) on entry and exit, so the top limb
/// carries the sign.
void normalize(Signed62& d, std::int64_t sign, const Signed62& m) {
    const auto add_if_negative = [&] {
        const std::int64_t negative = d.v[4] >> 63;
        for (int i = 0; i < 5; ++i) d.v[i] += m.v[i] & negative;
    };
    const auto carry = [&] {
        for (int i = 0; i < 4; ++i) {
            d.v[i + 1] += d.v[i] >> 62;
            d.v[i] &= static_cast<std::int64_t>(kM62);
        }
    };
    add_if_negative();  // now in (−m, m)
    const std::int64_t flip = sign >> 63;
    for (auto& limb : d.v) limb = (limb ^ flip) - flip;
    carry();
    add_if_negative();  // now in [0, m)
    carry();
}

}  // namespace

U256 modinv(const U256& x, const U256& modulus) {
    EBV_EXPECTS(modulus.is_odd());
    const Signed62 m = to_signed62(modulus);
    // m⁻¹ mod 2^64 by Newton's iteration: m·m ≡ 1 (mod 8) for odd m, and
    // each step doubles the number of correct low bits (3 → 96).
    std::uint64_t inv = modulus.limbs[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - modulus.limbs[0] * inv;
    const std::uint64_t m_inv62 = inv & kM62;

    // Invariants: f odd, d·x ≡ f and e·x ≡ g (mod m). The divsteps drive g
    // to 0, leaving f = ±gcd(m, x) = ±1, so ±d is the inverse.
    Signed62 d{{0, 0, 0, 0, 0}};
    Signed62 e{{1, 0, 0, 0, 0}};
    Signed62 f = m;
    Signed62 g = to_signed62(x);
    int len = 5;
    std::int64_t eta = -1;
    for (;;) {
        Trans2x2 t;
        eta = divsteps_62(eta, static_cast<std::uint64_t>(f.v[0]),
                          static_cast<std::uint64_t>(g.v[0]), t);
        update_de(d, e, t, m, m_inv62);
        update_fg(len, f, g, t);
        if (g.v[0] == 0) {
            std::int64_t rest = 0;
            for (int j = 1; j < len; ++j) rest |= g.v[j];
            if (rest == 0) break;
        }
        // Shorten f and g once both top limbs are pure sign (0 or −1).
        const std::int64_t fn = f.v[len - 1];
        const std::int64_t gn = g.v[len - 1];
        if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
            f.v[len - 2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(f.v[len - 2]) |
                                                     static_cast<std::uint64_t>(fn) << 62);
            g.v[len - 2] = static_cast<std::int64_t>(static_cast<std::uint64_t>(g.v[len - 2]) |
                                                     static_cast<std::uint64_t>(gn) << 62);
            --len;
        }
    }

    normalize(d, f.v[len - 1], m);
    return from_signed62(d);
}

}  // namespace ebv::crypto
