// The 8-lane core of crypto::verify_lanes: R = u1·G + u2·P for eight
// independent (P, u1, u2) in lockstep, written once against an `Ops`
// policy over a vector of eight u64 lanes (see ecdsa_lanes.cpp for the
// portable policy, ecdsa_lanes_ifma.cpp for AVX-512 IFMA).
//
// Included by the ISA-specific translation unit, so this header holds
// only templates and constants: no inline function here may be emitted
// with AVX-512 instructions and then picked by the linker for a caller on
// a CPU without them. The scalar work around the kernel (range checks,
// s⁻¹, the GLV split, the recoding and the final x-check) lives in
// ecdsa_lanes.cpp.
//
// Field elements are secp256k1's five 52-bit limbs (field.hpp), one limb
// per vector. vpmadd52luq/huq read only the low 52 bits of each factor,
// so every product input must be *carried*: limbs 0–3 below 2^52 and
// limb 4 below 2^49. Products and `carry` return that form; sums and
// negations exceed it and go through `carry` before the next product.
//
// Scalar multiplication. u1 = a1 + a2·λ and u2 = b1 + b2·λ (GLV), each
// part below 2^129 in magnitude, recoded in fixed signed windows: width 5
// for the two P terms (per-lane tables P..16P and λP..16λP) and width 10
// for the two G terms (a process-wide table G..512G with λ via β·x). One
// chain of doublings serves all four terms; every lane adds at every
// window, a zero digit blends the sum away, and table lookups are
// gathers, so control flow never depends on a lane.
//
// Exceptional additions. The addition formulas are wrong only when H = 0
// (the summands share x: a doubling or a sum at infinity), and then they
// return Z = 0, which every later doubling and addition keeps. So a lane
// whose final Z is 0 went through an exceptional addition somewhere (or
// ended at infinity); the caller redoes it on the scalar path. A lane
// with final Z ≠ 0 holds the exact sum.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sqrt_chain.hpp"

namespace ebv::crypto::lanes {

inline constexpr int kLanes = 8;
inline constexpr int kWindowP = 5;
inline constexpr int kTableSizeP = 1 << (kWindowP - 1);  // P, 2P, ..., 16P
inline constexpr int kWindowG = 10;
inline constexpr int kTableSizeG = 1 << (kWindowG - 1);  // G, 2G, ..., 512G
/// Recoded magnitudes are below 2^129; 130 bits leave room for the top
/// window's carry.
inline constexpr int kBits = 130;
inline constexpr int kWindowsP = (kBits + kWindowP - 1) / kWindowP;  // 26
inline constexpr int kWindowsG = (kBits + kWindowG - 1) / kWindowG;  // 13

/// G table: entry e holds (e + 1)·G as x, y and β·x, five limbs each.
inline constexpr int kGEntryWords = 15;
/// Per-lane P table: entry e, coordinate c (X, β·X, Y, Z), limb l, lane.
inline constexpr int kPEntryWords = 4 * 5 * kLanes;

/// β, the cube root of unity mod p (λ·(x, y) = (β·x, y)), in carried limbs.
inline constexpr std::uint64_t kBetaLimbs[5] = {0x96c28719501eeULL, 0x7512f58995c13ULL,
                                               0xc3434e99cf049ULL, 0x7106e64479eaULL,
                                               0x7ae96a2b657cULL};

/// One term's digit at one window, across the lanes.
struct Window {
    std::uint64_t index[kLanes];  ///< gather index of |digit|'s table entry
    std::uint8_t negative = 0;    ///< lanes whose digit is < 0
    std::uint8_t nonzero = 0;     ///< lanes whose digit is ≠ 0
};

struct Batch {
    std::uint64_t px[5][kLanes];  ///< P's affine x, carried limbs
    std::uint64_t py[5][kLanes];
    Window p[2][kWindowsP];  ///< b1 on P, b2 on λP
    Window g[2][kWindowsG];  ///< a1 on G, a2 on λG
};

struct Result {
    std::uint64_t x[5][kLanes];  ///< Jacobian X and Z of R, carried limbs
    std::uint64_t z[5][kLanes];
    std::uint8_t infinity = 0;  ///< lanes whose every digit was zero
};

/// Kernel<IfmaOps>::run, ::mul_chain and ::sqrt, in ecdsa_lanes_ifma.cpp;
/// call only when detail::have_ifma() (crypto/ecdsa_lanes.hpp) holds.
void run_ifma(const Batch& in, const std::uint64_t* g_table, Result& out);
void mul_chain_ifma(std::uint64_t (&a)[5][kLanes], const std::uint64_t (&b)[5][kLanes],
                    std::size_t count);
void sqrt_ifma(std::uint64_t (&a)[5][kLanes]);

// -O2 keeps the limb loops as loops over arrays in memory; fully unrolled,
// every limb stays in a register.
#define EBV_LANES_UNROLL _Pragma("GCC unroll 25")

template <typename Ops>
struct Kernel {
    using V = typename Ops::V;
    using Mask = std::uint8_t;

    struct Fe {
        V n[5];
    };
    struct Jac {
        Fe x, y, z;
    };

    static constexpr std::uint64_t kM52 = 0xfffffffffffffULL;
    static constexpr std::uint64_t kM48 = 0xffffffffffffULL;
    static constexpr std::uint64_t kP0 = 0xffffefffffc2fULL;  // p's low limb
    static constexpr std::uint64_t kR = 0x1000003d10ULL;      // 2^260 mod p
    static constexpr std::uint64_t kC = 0x1000003d1ULL;       // 2^256 mod p

    // ---- field --------------------------------------------------------------

    static Fe constant(const std::uint64_t (&limbs)[5]) {
        Fe r;
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) r.n[i] = Ops::set1(limbs[i]);
        return r;
    }
    static Fe load(const std::uint64_t (&limbs)[5][kLanes]) {
        Fe r;
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) r.n[i] = Ops::load(limbs[i]);
        return r;
    }
    static void store(const Fe& a, std::uint64_t (&limbs)[5][kLanes]) {
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) Ops::store(limbs[i], a.n[i]);
    }

    /// Carried form of any element whose limbs are below 2^63.
    static Fe carry(V t0, V t1, V t2, V t3, V t4) {
        const V m52 = Ops::set1(kM52);
        const V x = Ops::template shr<48>(t4);  // the part at or above 2^256
        t4 = Ops::and_(t4, Ops::set1(kM48));
        t0 = Ops::madd_lo(t0, x, Ops::set1(kC));
        t1 = Ops::add(t1, Ops::template shr<52>(t0));
        t0 = Ops::and_(t0, m52);
        t2 = Ops::add(t2, Ops::template shr<52>(t1));
        t1 = Ops::and_(t1, m52);
        t3 = Ops::add(t3, Ops::template shr<52>(t2));
        t2 = Ops::and_(t2, m52);
        t4 = Ops::add(t4, Ops::template shr<52>(t3));
        t3 = Ops::and_(t3, m52);
        return Fe{{t0, t1, t2, t3, t4}};
    }
    static Fe carry(const Fe& a) { return carry(a.n[0], a.n[1], a.n[2], a.n[3], a.n[4]); }

    /// Folds product columns 5..9 (weights 2^260.. ≡ R·2^(52k)) into 0..4.
    /// Columns are below 2^57: each splits into a 52-bit part, multiplied
    /// by R through both halves, and a small top part whose product with R
    /// fits one low half. Column 9's overflow lands at position 5 again and
    /// folds once more.
    static Fe reduce(V (&t)[10]) {
        const V m52 = Ops::set1(kM52);
        const V r = Ops::set1(kR);
        V top = Ops::set1(0);
        EBV_LANES_UNROLL
        for (int k = 0; k < 5; ++k) {
            const V lo = Ops::and_(t[5 + k], m52);
            const V hi = Ops::template shr<52>(t[5 + k]);
            V& up = k < 4 ? t[k + 1] : top;
            t[k] = Ops::madd_lo(t[k], lo, r);
            up = Ops::madd_hi(up, lo, r);
            up = Ops::madd_lo(up, hi, r);
        }
        t[0] = Ops::madd_lo(t[0], top, r);
        t[1] = Ops::madd_hi(t[1], top, r);
        return carry(t[0], t[1], t[2], t[3], t[4]);
    }

    static Fe mul(const Fe& a, const Fe& b) {
        V t[10];
        EBV_LANES_UNROLL
        for (auto& v : t) v = Ops::set1(0);
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) {
            EBV_LANES_UNROLL
            for (int j = 0; j < 5; ++j) {
                t[i + j] = Ops::madd_lo(t[i + j], a.n[i], b.n[j]);
                t[i + j + 1] = Ops::madd_hi(t[i + j + 1], a.n[i], b.n[j]);
            }
        }
        return reduce(t);
    }

    static Fe sqr(const Fe& a) {
        // Cross products once, the columns doubled, then the squares.
        V t[10];
        EBV_LANES_UNROLL
        for (auto& v : t) v = Ops::set1(0);
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) {
            EBV_LANES_UNROLL
            for (int j = i + 1; j < 5; ++j) {
                t[i + j] = Ops::madd_lo(t[i + j], a.n[i], a.n[j]);
                t[i + j + 1] = Ops::madd_hi(t[i + j + 1], a.n[i], a.n[j]);
            }
        }
        EBV_LANES_UNROLL
        for (auto& v : t) v = Ops::add(v, v);
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) {
            t[2 * i] = Ops::madd_lo(t[2 * i], a.n[i], a.n[i]);
            t[2 * i + 1] = Ops::madd_hi(t[2 * i + 1], a.n[i], a.n[i]);
        }
        return reduce(t);
    }

    static Fe add(const Fe& a, const Fe& b) {
        Fe r;
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) r.n[i] = Ops::add(a.n[i], b.n[i]);
        return r;
    }

    /// 2m·p − a, limb by limb, for a no larger than m carried elements.
    static Fe neg(const Fe& a, std::uint64_t m) {
        const std::uint64_t k = 2 * m;
        Fe r;
        r.n[0] = Ops::sub(Ops::set1(kP0 * k), a.n[0]);
        EBV_LANES_UNROLL
        for (int i = 1; i < 4; ++i) r.n[i] = Ops::sub(Ops::set1(kM52 * k), a.n[i]);
        r.n[4] = Ops::sub(Ops::set1(kM48 * k), a.n[4]);
        return r;
    }

    /// a/2 as in FieldElement::half: add p when a is odd, shift right.
    static Fe half(const Fe& a) {
        const V mask =
            Ops::template shr<12>(Ops::sub(Ops::set1(0), Ops::and_(a.n[0], Ops::set1(1))));
        const V t0 = Ops::add(a.n[0], Ops::and_(mask, Ops::set1(kP0)));
        const V t1 = Ops::add(a.n[1], mask);
        const V t2 = Ops::add(a.n[2], mask);
        const V t3 = Ops::add(a.n[3], mask);
        const V t4 = Ops::add(a.n[4], Ops::template shr<4>(mask));
        const V one = Ops::set1(1);
        const auto low_bit = [&](V t) { return Ops::template shl<51>(Ops::and_(t, one)); };
        Fe r;
        r.n[0] = Ops::add(Ops::template shr<1>(t0), low_bit(t1));
        r.n[1] = Ops::add(Ops::template shr<1>(t1), low_bit(t2));
        r.n[2] = Ops::add(Ops::template shr<1>(t2), low_bit(t3));
        r.n[3] = Ops::add(Ops::template shr<1>(t3), low_bit(t4));
        r.n[4] = Ops::template shr<1>(t4);
        return r;
    }

    static Fe select(Mask m, const Fe& a, const Fe& b) {
        Fe r;
        EBV_LANES_UNROLL
        for (int i = 0; i < 5; ++i) r.n[i] = Ops::select(m, a.n[i], b.n[i]);
        return r;
    }
    static Jac select(Mask m, const Jac& a, const Jac& b) {
        return Jac{select(m, a.x, b.x), select(m, a.y, b.y), select(m, a.z, b.z)};
    }

    // ---- group law (secp256k1.cpp's formulas, carried before each product)

    /// 2·A in 3 products and 4 squarings (see secp256k1::dbl).
    static Jac dbl(const Jac& a) {
        Jac r;
        r.z = mul(a.z, a.y);                                         // Z3 = Y·Z
        const Fe s = sqr(a.y);                                       // S = Y²
        const Fe x2 = sqr(a.x);
        const Fe l = carry(half(add(add(x2, x2), x2)));              // L = 3/2·X²
        const Fe t = mul(a.x, s);                                    // T = X·S
        const Fe nt = neg(t, 1);
        r.x = carry(add(sqr(l), add(nt, nt)));                       // X3 = L² − 2T
        const Fe u = carry(add(r.x, nt));                            // X3 − T
        r.y = carry(neg(add(mul(u, l), sqr(s)), 2));                 // −(L·(X3 − T) + S²)
        return r;
    }

    /// The tail both additions share, from H, I (= Y1 − S2), U1 (= X1 for
    /// an affine B) and S1 (= Y1).
    static Jac add_tail(const Fe& h, const Fe& i, const Fe& u1, const Fe& s1, const Fe& z3) {
        Jac r;
        r.z = z3;
        const Fe h2 = sqr(h);
        const Fe h3 = mul(h2, h);
        const Fe nv = neg(mul(u1, h2), 1);                           // −U1·H²
        r.x = carry(add(add(sqr(i), neg(h3, 1)), add(nv, nv)));     // I² − H³ − 2·U1·H²
        // Y3 = (X3 − U1·H²)·I − S1·H³
        r.y = carry(add(mul(carry(add(r.x, nv)), i), neg(mul(h3, s1), 1)));
        return r;
    }

    /// A + (±B) for B = (bx, by) affine: 8 products and 3 squarings. Lanes
    /// in `negative` add −B.
    static Jac add_affine(const Jac& a, const Fe& bx, const Fe& by, Mask negative) {
        const Fe zz = sqr(a.z);
        const Fe h = carry(add(mul(bx, zz), neg(a.x, 1)));           // H = U2 − X1
        const Fe s2 = mul(mul(by, zz), a.z);                          // S2 = by·Z³
        const Fe i = carry(add(a.y, select(negative, s2, neg(s2, 1))));  // Y1 ∓ S2
        return add_tail(h, i, a.x, a.y, mul(a.z, h));
    }

    /// A + (±B), both Jacobian: 12 products and 4 squarings.
    static Jac add_jacobian(const Jac& a, const Jac& b, Mask negative) {
        const Fe z1z1 = sqr(a.z);
        const Fe z2z2 = sqr(b.z);
        const Fe u1 = mul(a.x, z2z2);
        const Fe s1 = mul(mul(a.y, z2z2), b.z);
        const Fe h = carry(add(mul(b.x, z1z1), neg(u1, 1)));         // H = U2 − U1
        const Fe s2 = mul(mul(b.y, z1z1), a.z);
        const Fe i = carry(add(s1, select(negative, s2, neg(s2, 1))));  // S1 ∓ S2
        return add_tail(h, i, u1, s1, mul(mul(a.z, b.z), h));
    }

    // ---- the lockstep double-multiply ------------------------------------------

    /// Folds one window's digit into the accumulator: lanes with a zero
    /// digit keep it, lanes still at infinity take ±B itself.
    static void accumulate(Jac& acc, Mask& infinity, const Jac& sum, const Window& w,
                           const Jac& b) {
        acc = select(w.nonzero, sum, acc);
        const Mask take = infinity & w.nonzero;
        if (take != 0) {
            const Fe y = select(w.negative, carry(neg(b.y, 1)), b.y);
            acc = select(take, Jac{b.x, y, b.z}, acc);
        }
        infinity = static_cast<Mask>(infinity & ~w.nonzero);
    }

    static void run(const Batch& in, const std::uint64_t* g_table, Result& out) {
        // Per-lane table of P..16P (and β·X for λP), built by one doubling
        // and 14 affine additions of P: kP + P never meets an exceptional
        // case, since P has prime order n > 17.
        alignas(64) std::uint64_t p_table[kTableSizeP * kPEntryWords];
        const Fe px = load(in.px);
        const Fe py = load(in.py);
        const Fe beta = constant(kBetaLimbs);
        const auto put = [&](int e, const Jac& j) {
            std::uint64_t* base = p_table + e * kPEntryWords;
            const Fe bx = mul(beta, j.x);
            const Fe* coords[4] = {&j.x, &bx, &j.y, &j.z};
            EBV_LANES_UNROLL
            for (int c = 0; c < 4; ++c) {
                EBV_LANES_UNROLL
                for (int l = 0; l < 5; ++l)
                    Ops::store(base + (c * 5 + l) * kLanes, coords[c]->n[l]);
            }
        };
        Fe one;
        one.n[0] = Ops::set1(1);
        EBV_LANES_UNROLL
        for (int l = 1; l < 5; ++l) one.n[l] = Ops::set1(0);
        Jac cur{px, py, one};
        put(0, cur);
        cur = dbl(cur);
        put(1, cur);
        for (int e = 2; e < kTableSizeP; ++e) {
            cur = add_affine(cur, px, py, 0);
            put(e, cur);
        }

        // A field element from each lane's table entry: limb l of the entry
        // at `index` sits `offset + l·stride` words further on.
        const auto gather_fe = [](const std::uint64_t* table, V index, int offset, int stride) {
            Fe r;
            EBV_LANES_UNROLL
            for (int l = 0; l < 5; ++l) {
                const auto words = static_cast<std::uint64_t>(offset + l * stride);
                r.n[l] = Ops::gather(table, Ops::add(index, Ops::set1(words)));
            }
            return r;
        };
        const auto add_p = [&](Jac& acc, Mask& infinity, const Window& w, int term) {
            if (w.nonzero == 0) return;
            const V index = Ops::load(w.index);
            const Jac b{gather_fe(p_table, index, term * 5 * kLanes, kLanes),
                        gather_fe(p_table, index, 2 * 5 * kLanes, kLanes),
                        gather_fe(p_table, index, 3 * 5 * kLanes, kLanes)};
            accumulate(acc, infinity, add_jacobian(acc, b, w.negative), w, b);
        };
        const auto add_g = [&](Jac& acc, Mask& infinity, const Window& w, int term) {
            if (w.nonzero == 0) return;
            const V index = Ops::load(w.index);
            const Fe bx = gather_fe(g_table, index, term == 0 ? 0 : 10, 1);
            const Fe by = gather_fe(g_table, index, 5, 1);
            accumulate(acc, infinity, add_affine(acc, bx, by, w.negative), w, Jac{bx, by, one});
        };

        constexpr int kTopP = (kWindowsP - 1) * kWindowP;
        constexpr int kTopG = (kWindowsG - 1) * kWindowG;
        constexpr int kTop = kTopP > kTopG ? kTopP : kTopG;
        Jac acc{one, one, one};  // any carried value: every lane starts at infinity
        Mask infinity = 0xff;
        for (int bit = kTop; bit >= 0; --bit) {
            if (bit != kTop) acc = dbl(acc);
            if (bit % kWindowP == 0) {
                add_p(acc, infinity, in.p[0][bit / kWindowP], 0);
                add_p(acc, infinity, in.p[1][bit / kWindowP], 1);
            }
            if (bit % kWindowG == 0) {
                add_g(acc, infinity, in.g[0][bit / kWindowG], 0);
                add_g(acc, infinity, in.g[1][bit / kWindowG], 1);
            }
        }
        store(acc.x, out.x);
        store(acc.z, out.z);
        out.infinity = infinity;
    }

    /// a = a^((p+1)/4) per lane (crypto::parse_keys_lanes).
    static void sqrt(std::uint64_t (&a)[5][kLanes]) {
        store(secp256k1::sqrt_chain(load(a), [](const Fe& x) { return sqr(x); },
                                    [](const Fe& x, const Fe& y) { return mul(x, y); }),
              a);
    }

    /// a = a·b, `count` times (micro_crypto's BM_FieldMulLanes).
    static void mul_chain(std::uint64_t (&a)[5][kLanes], const std::uint64_t (&b)[5][kLanes],
                          std::size_t count) {
        Fe x = load(a);
        const Fe y = load(b);
        for (std::size_t i = 0; i < count; ++i) x = mul(x, y);
        store(x, a);
    }
};

#undef EBV_LANES_UNROLL

}  // namespace ebv::crypto::lanes
