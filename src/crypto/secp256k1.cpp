#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "crypto/jacobian.hpp"
#include "util/assert.hpp"

namespace ebv::crypto::secp256k1 {

using Fe = FieldElement;

Jacobian to_jacobian(const Point& p) {
    if (p.infinity) return {};
    return Jacobian{Fe(p.x), Fe(p.y), Fe::from_u64(1), false};
}

Point to_affine(const Jacobian& j) {
    if (j.infinity) return Point::at_infinity();
    const Fe zinv = j.z.inverse();
    const Fe zinv2 = zinv.sqr();
    return Point{(j.x * zinv2).value(), (j.y * zinv2 * zinv).value(), false};
}

/// 2·A in 3 products and 4 squarings (a = 0): with L = 3/2·X², S = Y² and
/// T = −X·S, X3 = L² + 2T, Y3 = −(L·(X3 + T) + S²), Z3 = Y·Z. This is the
/// textbook doubling (Z3 = 2·Y·Z) with the point scaled by 1/2. Y is never
/// zero: secp256k1 has no point of order 2.
Jacobian dbl(const Jacobian& a) {
    if (a.infinity) return a;
    Jacobian r;
    r.infinity = false;
    r.z = a.z * a.y;                            // Z3 = Y·Z [1]
    const Fe s = a.y.sqr();                     // S = Y² [1]
    const Fe l = a.x.sqr().mul_int(3).half();   // L = 3/2·X² [3 → 2]
    Fe t = s.negate(1) * a.x;                   // T = −X·S [1]
    r.x = l.sqr() + t + t;                      // X3 = L² + 2T [3]
    t = t + r.x;                                // X3 + T [4]
    r.y = (t * l + s.sqr()).negate(2);          // Y3 = −(L·(X3 + T) + S²) [3]
    return r;
}

/// A + B for B = (bx, by) affine and finite, bx of magnitude 1 and by <= 2:
/// 8 products and 3 squarings. With U2 = bx·Z², S2 = by·Z³, H = U2 − X and
/// I = Y − S2: X3 = I² − H³ − 2·X·H², Y3 = I·(X3 − X·H²) − Y·H³, Z3 = Z·H.
Jacobian add_affine(const Jacobian& a, const Fe& bx, const Fe& by) {
    if (a.infinity) return Jacobian{bx, by, Fe::from_u64(1), false};
    const Fe zz = a.z.sqr();                            // Z² [1]
    const Fe h = a.x.negate(kMaxMagX) + bx * zz;        // H = U2 − X [6]
    const Fe i = a.y + (by * zz * a.z).negate(1);       // I = Y − S2 [6]
    if (h.is_zero()) return i.is_zero() ? dbl(a) : Jacobian{};
    Jacobian r;
    r.infinity = false;
    r.z = a.z * h;                                      // Z3 = Z·H [1]
    const Fe h2 = h.sqr().negate(1);                    // −H² [2]
    const Fe h3 = h2 * h;                               // −H³ [1]
    const Fe t = a.x * h2;                              // −X·H² [1]
    r.x = i.sqr() + h3 + t + t;                         // X3 [4]
    r.y = (t + r.x) * i + h3 * a.y;                     // Y3 [2]
    return r;
}

/// A + B, both Jacobian: 12 products and 4 squarings, add_affine's formulas
/// with U1 = X1·Z2² and S1 = Y1·Z2³ in place of X and Y.
Jacobian add(const Jacobian& a, const Jacobian& b) {
    if (a.infinity) return b;
    if (b.infinity) return a;
    const Fe z1z1 = a.z.sqr();                          // [1]
    const Fe z2z2 = b.z.sqr();                          // [1]
    const Fe u1 = a.x * z2z2;                           // U1 [1]
    const Fe s1 = a.y * z2z2 * b.z;                     // S1 [1]
    const Fe h = u1.negate(1) + b.x * z1z1;             // H = U2 − U1 [3]
    const Fe i = s1 + (b.y * z1z1 * a.z).negate(1);     // I = S1 − S2 [3]
    if (h.is_zero()) return i.is_zero() ? dbl(a) : Jacobian{};
    Jacobian r;
    r.infinity = false;
    r.z = a.z * b.z * h;                                // Z3 = Z1·Z2·H [1]
    const Fe h2 = h.sqr().negate(1);                    // −H² [2]
    const Fe h3 = h2 * h;                               // −H³ [1]
    const Fe t = u1 * h2;                               // −U1·H² [1]
    r.x = i.sqr() + h3 + t + t;                         // X3 [4]
    r.y = (t + r.x) * i + h3 * s1;                      // Y3 [2]
    return r;
}

namespace {

constexpr U256 kGx{{0x59f2815b16f81798ULL, 0x029bfcdb2dce28d9ULL, 0x55a06295ce870b07ULL,
                    0x79be667ef9dcbbacULL}};
constexpr U256 kGy{{0x9c47d08ffb10d4b8ULL, 0xfd17b448a6855419ULL, 0x5da4fbfc0e1108a8ULL,
                    0x483ada7726a3c465ULL}};
/// β, the cube root of unity mod p with λ·(x, y) = (β·x, y).
constexpr U256 kBeta{{0xc1396c28719501eeULL, 0x9cf0497512f58995ULL, 0x6e64479eac3434e9ULL,
                      0x7ae96a2b657c0710ULL}};

// ---- GLV-split interleaved wNAF ----------------------------------------------
// u1·G + u2·P = a1·G + a2·(λG) + b1·P + b2·(λP) with a1, a2, b1, b2 about
// 128 bits each (split_lambda), so one shared chain of ~128 doublings serves
// all four terms. Each term is recoded in width-w NAF: signed odd digits,
// at most one nonzero digit per w consecutive positions. λ costs nothing
// extra on the curve: λ·(X, Y, Z) = (β·X, Y, Z).

constexpr int kWindowP = 5;                          // per-call table for P
constexpr int kTableSizeP = 1 << (kWindowP - 2);     // P, 3P, ..., 15P
constexpr int kWindowG = 12;                         // process-wide table for G
constexpr int kTableSizeG = 1 << (kWindowG - 2);     // G, 3G, ..., 2047G
constexpr int kMaxDigits = 257;                      // any 256-bit magnitude

std::uint64_t bits_at(const U256& k, int bit, int count) {
    const int limb = bit / 64;
    const int offset = bit % 64;
    if (limb >= 4) return 0;
    std::uint64_t v = k.limbs[limb] >> offset;
    if (offset + count > 64 && limb + 1 < 4) v |= k.limbs[limb + 1] << (64 - offset);
    return v & ((std::uint64_t{1} << count) - 1);
}

/// Width-w NAF of ±k, choosing the sign so the recoded magnitude is the
/// shorter of k and n − k: sum(digits[i]·2^i) ≡ k (mod n), every nonzero
/// digit odd with |digit| < 2^(w−1). Returns the number of positions used.
int wnaf(const Scalar& k, int w, std::int16_t digits[kMaxDigits]) {
    std::fill(digits, digits + kMaxDigits, std::int16_t{0});
    const bool negate = k.is_high();
    const U256 m = negate ? (-k).value() : k.value();
    int len = 0;
    int carry = 0;
    for (int bit = 0; bit < kMaxDigits;) {
        if (static_cast<int>(bits_at(m, bit, 1)) == carry) {
            ++bit;
            continue;
        }
        const int count = std::min(w, kMaxDigits - bit);
        int word = static_cast<int>(bits_at(m, bit, count)) + carry;
        carry = (word >> (w - 1)) & 1;
        word -= carry << w;
        digits[bit] = static_cast<std::int16_t>(negate ? -word : word);
        len = bit + 1;
        bit += count;
    }
    EBV_ASSERT(carry == 0);
    return len;
}

/// Odd multiples of G and of λG in affine form, built once per process:
/// entry i is (2i+1)·G = (x[i], y[i]) and (2i+1)·λG = (beta_x[i], y[i]).
struct GeneratorTable {
    Fe x[kTableSizeG];
    Fe y[kTableSizeG];
    Fe beta_x[kTableSizeG];

    GeneratorTable() {
        const Jacobian g{Fe(kGx), Fe(kGy), Fe::from_u64(1), false};
        const Jacobian g2 = dbl(g);
        const Fe beta(kBeta);
        Jacobian cur = g;
        for (int i = 0; i < kTableSizeG; ++i) {
            const Point p = to_affine(cur);
            x[i] = Fe(p.x);
            y[i] = Fe(p.y);
            beta_x[i] = beta * x[i];
            cur = add(cur, g2);
        }
    }
};

const GeneratorTable& generator_table() {
    static const GeneratorTable table;
    return table;
}

/// The shared core: u1·G + u2·P in Jacobian coordinates.
Jacobian ecmult(const Point& p, const Scalar& u1, const Scalar& u2) {
    const GeneratorTable& gt = generator_table();
    const LambdaSplit a = split_lambda(u1);
    std::int16_t da1[kMaxDigits];
    std::int16_t da2[kMaxDigits];
    int len = std::max(wnaf(a.k1, kWindowG, da1), wnaf(a.k2, kWindowG, da2));

    const bool use_p = !p.infinity && !u2.is_zero();
    std::int16_t db1[kMaxDigits];
    std::int16_t db2[kMaxDigits];
    Jacobian table_p[kTableSizeP];
    Jacobian table_lp[kTableSizeP];
    if (use_p) {
        const LambdaSplit b = split_lambda(u2);
        len = std::max({len, wnaf(b.k1, kWindowP, db1), wnaf(b.k2, kWindowP, db2)});
        table_p[0] = to_jacobian(p);
        const Jacobian p2 = dbl(table_p[0]);
        for (int i = 1; i < kTableSizeP; ++i) table_p[i] = add(table_p[i - 1], p2);
        const Fe beta(kBeta);
        for (int i = 0; i < kTableSizeP; ++i) {
            table_lp[i] = Jacobian{beta * table_p[i].x, table_p[i].y, table_p[i].z, false};
        }
    }

    // G table entries have magnitude 1, so a negated y has 2. P table
    // entries have Y <= 3 (to_jacobian 1, add 2, dbl 3), so a negated Y
    // has <= 4 = kMaxMagY.
    auto add_g = [](const Jacobian& acc, const Fe* xs, const Fe* ys, int d) {
        const int i = (std::abs(d) - 1) / 2;
        return add_affine(acc, xs[i], d > 0 ? ys[i] : ys[i].negate(1));
    };
    auto add_p = [](const Jacobian& acc, const Jacobian* table, int d) {
        const Jacobian& e = table[(std::abs(d) - 1) / 2];
        return add(acc, d > 0 ? e : Jacobian{e.x, e.y.negate(3), e.z, false});
    };

    Jacobian acc;
    for (int i = len - 1; i >= 0; --i) {
        acc = dbl(acc);
        if (da1[i] != 0) acc = add_g(acc, gt.x, gt.y, da1[i]);
        if (da2[i] != 0) acc = add_g(acc, gt.beta_x, gt.y, da2[i]);
        if (use_p) {
            if (db1[i] != 0) acc = add_p(acc, table_p, db1[i]);
            if (db2[i] != 0) acc = add_p(acc, table_lp, db2[i]);
        }
    }
    return acc;
}

}  // namespace

const Point& generator() {
    static const Point g{kGx, kGy, false};
    return g;
}

bool Point::on_curve() const {
    if (infinity) return false;
    const Fe fx(x);
    return Fe(y).sqr() == fx.sqr() * fx + Fe::from_u64(7);
}

Point add(const Point& a, const Point& b) {
    return to_affine(add(to_jacobian(a), to_jacobian(b)));
}

Point negate(const Point& a) {
    if (a.infinity) return a;
    return Point{a.x, Fe(a.y).negate(1).value(), false};
}

Point multiply(const Point& p, const U256& k) {
    return to_affine(ecmult(p, Scalar(), Scalar(k)));
}

Point multiply_generator(const U256& k) {
    return to_affine(ecmult(Point::at_infinity(), Scalar(k), Scalar()));
}

Point multiply_double_generator(const Point& p, const U256& u1, const U256& u2) {
    return to_affine(ecmult(p, Scalar(u1), Scalar(u2)));
}

bool double_multiply_x_matches(const Point& p, const Scalar& u1, const Scalar& u2,
                               const Scalar& r) {
    return x_matches(ecmult(p, u1, u2), r);
}

bool x_matches(const Jacobian& R, const Scalar& r) {
    if (R.infinity) return false;
    const Fe zz = R.z.sqr();
    if (Fe(r.value()) * zz == R.x) return true;
    U256 wrapped;  // r + n, a candidate only while it stays below p
    if (u256_add(r.value(), kGroupOrder, wrapped) || !u256_less(wrapped, kFieldPrime)) {
        return false;
    }
    return Fe(wrapped) * zz == R.x;
}

void serialize_compressed(const Point& p, util::MutableByteSpan out33) {
    EBV_EXPECTS(out33.size() == 33);
    EBV_EXPECTS(!p.infinity);
    out33[0] = p.y.is_odd() ? 0x03 : 0x02;
    p.x.to_be_bytes(out33.subspan(1));
}

std::optional<U256> compressed_x(util::ByteSpan in33) {
    if (in33.size() != 33) return std::nullopt;
    if (in33[0] != 0x02 && in33[0] != 0x03) return std::nullopt;
    const U256 raw_x = U256::from_be_bytes(in33.subspan(1));
    if (!u256_less(raw_x, kFieldPrime)) return std::nullopt;
    return raw_x;
}

std::optional<Point> parse_compressed(util::ByteSpan in33) {
    const std::optional<U256> raw_x = compressed_x(in33);
    if (!raw_x) return std::nullopt;

    const Fe x(*raw_x);
    const std::optional<Fe> root = (x.sqr() * x + Fe::from_u64(7)).sqrt();
    if (!root) return std::nullopt;  // x³ + 7 is not a square: no such point

    const bool want_odd = in33[0] == 0x03;
    const Fe y = root->is_odd() == want_odd ? *root : root->negate(1);
    Point p{*raw_x, y.value(), false};
    EBV_ENSURES(p.on_curve());
    return p;
}

}  // namespace ebv::crypto::secp256k1
