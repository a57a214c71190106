// A frozen copy of src/crypto's ECDSA verify path (see yardstick.hpp). It
// keeps that code's algorithms and data layout so it loads the machine the
// way the program's verifies do, and must not be changed to follow them.
#include "yardstick.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace perfbench {

namespace {

using u128 = unsigned __int128;
using U256 = std::array<std::uint64_t, 4>;

constexpr U256 kP = {0xfffffffefffffc2fULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                     0xffffffffffffffffULL};
constexpr U256 kN = {0xbfd25e8cd0364141ULL, 0xbaaedce6af48a03bULL, 0xfffffffffffffffeULL,
                     0xffffffffffffffffULL};
constexpr U256 kGx = {0x59f2815b16f81798ULL, 0x029bfcdb2dce28d9ULL, 0x55a06295ce870b07ULL,
                      0x79be667ef9dcbbacULL};
constexpr U256 kGy = {0x9c47d08ffb10d4b8ULL, 0xfd17b448a6855419ULL, 0x5da4fbfc0e1108a8ULL,
                      0x483ada7726a3c465ULL};
constexpr U256 kOne = {1, 0, 0, 0};

bool is_zero(const U256& a) { return (a[0] | a[1] | a[2] | a[3]) == 0; }

bool less(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
}

std::uint64_t add(const U256& a, const U256& b, U256& out) {
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        const u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
        out[i] = static_cast<std::uint64_t>(sum);
        carry = sum >> 64;
    }
    return static_cast<std::uint64_t>(carry);
}

std::uint64_t sub(const U256& a, const U256& b, U256& out) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
        const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
        out[i] = static_cast<std::uint64_t>(diff);
        borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
    }
    return borrow;
}

void mul_wide(const U256& a, const U256& b, std::uint64_t out[8]) {
    for (int i = 0; i < 8; ++i) out[i] = 0;
    for (int i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 4; ++j) {
            const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
            out[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
        out[i + 4] = static_cast<std::uint64_t>(carry);
    }
}

/// Arithmetic mod m, where 2^256 - m is small: hi·2^256 + lo ≡ hi·C + lo.
class Mod {
public:
    explicit Mod(const U256& m) : m_(m) {
        U256 not_m;
        for (int i = 0; i < 4; ++i) not_m[i] = ~m[i];
        add(not_m, kOne, c_);
    }

    [[nodiscard]] const U256& modulus() const { return m_; }

    [[nodiscard]] U256 reduce(U256 a) const {
        while (!less(a, m_)) sub(a, m_, a);
        return a;
    }
    [[nodiscard]] U256 sub_mod(const U256& a, const U256& b) const {
        U256 d;
        if (sub(a, b, d) != 0) add(d, m_, d);
        return reduce(d);
    }
    [[nodiscard]] U256 neg(const U256& a) const {
        if (is_zero(a)) return a;
        U256 out;
        sub(m_, reduce(a), out);
        return out;
    }
    [[nodiscard]] U256 mul(const U256& a, const U256& b) const {
        std::uint64_t acc[8];
        mul_wide(a, b, acc);
        while ((acc[4] | acc[5] | acc[6] | acc[7]) != 0) {
            const U256 hi = {acc[4], acc[5], acc[6], acc[7]};
            const U256 lo = {acc[0], acc[1], acc[2], acc[3]};
            std::uint64_t prod[8];
            mul_wide(hi, c_, prod);
            u128 carry = 0;
            for (int i = 0; i < 8; ++i) {
                const u128 sum = static_cast<u128>(prod[i]) + (i < 4 ? lo[i] : 0) + carry;
                acc[i] = static_cast<std::uint64_t>(sum);
                carry = sum >> 64;
            }
        }
        return reduce({acc[0], acc[1], acc[2], acc[3]});
    }
    [[nodiscard]] U256 sqr(const U256& a) const { return mul(a, a); }
    /// a^(m-2): the inverse of a nonzero a, m prime.
    [[nodiscard]] U256 inverse(const U256& a) const {
        U256 e;
        sub(m_, {2, 0, 0, 0}, e);
        U256 result = kOne;
        const U256 b = reduce(a);
        bool started = false;
        for (int i = 255; i >= 0; --i) {
            if (started) result = sqr(result);
            if ((e[i / 64] >> (i % 64)) & 1) {
                result = started ? mul(result, b) : b;
                started = true;
            }
        }
        return result;
    }

private:
    U256 m_;
    U256 c_{};  ///< 2^256 - m
};

const Mod& field() {
    static const Mod f(kP);
    return f;
}

const Mod& order() {
    static const Mod n(kN);
    return n;
}

U256 small(std::uint64_t v) { return {v, 0, 0, 0}; }

/// (X/Z², Y/Z³); Z = 0 is the point at infinity.
struct Jacobian {
    U256 x{}, y{}, z{};
    [[nodiscard]] bool infinity() const { return is_zero(z); }
};

Jacobian jdouble(const Jacobian& a) {
    const Mod& f = field();
    if (a.infinity() || is_zero(a.y)) return {};
    const U256 y2 = f.sqr(a.y);
    const U256 s = f.mul(f.mul(small(4), a.x), y2);
    const U256 m = f.mul(small(3), f.sqr(a.x));
    const U256 x3 = f.sub_mod(f.sqr(m), f.mul(small(2), s));
    const U256 y3 = f.sub_mod(f.mul(m, f.sub_mod(s, x3)), f.mul(small(8), f.sqr(y2)));
    return {x3, y3, f.mul(f.mul(small(2), a.y), a.z)};
}

Jacobian jadd(const Jacobian& a, const Jacobian& b) {
    if (a.infinity()) return b;
    if (b.infinity()) return a;
    const Mod& f = field();
    const U256 z1z1 = f.sqr(a.z);
    const U256 z2z2 = f.sqr(b.z);
    const U256 u1 = f.mul(a.x, z2z2);
    const U256 u2 = f.mul(b.x, z1z1);
    const U256 s1 = f.mul(a.y, f.mul(z2z2, b.z));
    const U256 s2 = f.mul(b.y, f.mul(z1z1, a.z));
    if (u1 == u2) return s1 == s2 ? jdouble(a) : Jacobian{};
    const U256 h = f.sub_mod(u2, u1);
    const U256 r = f.sub_mod(s2, s1);
    const U256 h2 = f.sqr(h);
    const U256 h3 = f.mul(h2, h);
    const U256 u1h2 = f.mul(u1, h2);
    const U256 x3 = f.sub_mod(f.sub_mod(f.sqr(r), h3), f.mul(small(2), u1h2));
    const U256 y3 = f.sub_mod(f.mul(r, f.sub_mod(u1h2, x3)), f.mul(s1, h3));
    return {x3, y3, f.mul(h, f.mul(a.z, b.z))};
}

Jacobian jnegate(const Jacobian& a) {
    return a.infinity() ? a : Jacobian{a.x, field().neg(a.y), a.z};
}

constexpr int kWidth = 5;
constexpr int kTable = 1 << (kWidth - 2);  // odd multiples P, 3P, ..., 15P
constexpr int kMaxDigits = 260;

void odd_multiples(const Jacobian& p, Jacobian table[kTable]) {
    table[0] = p;
    const Jacobian p2 = jdouble(p);
    for (int i = 1; i < kTable; ++i) table[i] = jadd(table[i - 1], p2);
}

/// Width-5 NAF digits of k, least significant first; returns their count.
int wnaf(U256 k, std::int8_t digits[kMaxDigits]) {
    int len = 0;
    while (!is_zero(k) && len < kMaxDigits) {
        int d = 0;
        if (k[0] & 1) {
            d = static_cast<int>(k[0] & ((1u << kWidth) - 1));
            if (d >= (1 << (kWidth - 1))) d -= 1 << kWidth;
            if (d > 0) sub(k, small(static_cast<std::uint64_t>(d)), k);
            else add(k, small(static_cast<std::uint64_t>(-d)), k);
        }
        digits[len++] = static_cast<std::int8_t>(d);
        for (int i = 0; i < 4; ++i) k[i] = (k[i] >> 1) | (i < 3 ? k[i + 1] << 63 : 0);
    }
    return len;
}

/// u1·G + u2·P over one shared doubling chain.
Jacobian double_multiply(const Jacobian& p, const U256& u1, const U256& u2) {
    static const struct GTable {
        Jacobian t[kTable];
        GTable() { odd_multiples({kGx, kGy, kOne}, t); }
    } g;
    std::int8_t dg[kMaxDigits], dp[kMaxDigits];
    const int lg = wnaf(order().reduce(u1), dg);
    const int lp = wnaf(order().reduce(u2), dp);
    Jacobian tp[kTable];
    odd_multiples(p, tp);
    Jacobian acc;
    for (int i = std::max(lg, lp) - 1; i >= 0; --i) {
        acc = jdouble(acc);
        if (i < lg && dg[i] != 0) {
            const Jacobian& e = g.t[(std::abs(dg[i]) - 1) / 2];
            acc = jadd(acc, dg[i] > 0 ? e : jnegate(e));
        }
        if (i < lp && dp[i] != 0) {
            const Jacobian& e = tp[(std::abs(dp[i]) - 1) / 2];
            acc = jadd(acc, dp[i] > 0 ? e : jnegate(e));
        }
    }
    return acc;
}

}  // namespace

bool yardstick_verify(const YardstickJob& job) {
    const Mod& n = order();
    if (is_zero(job.r) || is_zero(job.s) || !less(job.r, n.modulus()) ||
        !less(job.s, n.modulus()))
        return false;
    const U256 s_inv = n.inverse(job.s);
    const U256 u1 = n.mul(n.reduce(job.z), s_inv);
    const U256 u2 = n.mul(job.r, s_inv);
    const Jacobian r = double_multiply({job.x, job.y, kOne}, u1, u2);
    if (r.infinity()) return false;
    const Mod& f = field();
    const U256 zinv = f.inverse(r.z);
    return n.reduce(f.mul(r.x, f.sqr(zinv))) == job.r;
}

YardstickSample measure_yardstick(std::span<const YardstickJob> jobs, std::size_t threads,
                                  std::size_t verifies) {
    std::atomic<bool> sound{true};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            bool ok = true;
            for (std::size_t i = 0; i < verifies; ++i)
                ok = yardstick_verify(jobs[(i * threads + t) % jobs.size()]) && ok;
            if (!ok) sound = false;
        });
    }
    for (std::thread& w : workers) w.join();
    const std::chrono::duration<double, std::micro> us = std::chrono::steady_clock::now() - start;
    return {us.count(), sound.load()};
}

}  // namespace perfbench
