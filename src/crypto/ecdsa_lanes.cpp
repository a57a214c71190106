#include "crypto/ecdsa_lanes.hpp"

#include <algorithm>
#include <optional>
#include <cstring>

#include "crypto/ecdsa_lanes_kernel.hpp"
#include "crypto/jacobian.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

static_assert(ebv::crypto::kVerifyLanes == ebv::crypto::lanes::kLanes);

namespace ebv::crypto {

namespace {

using secp256k1::FieldElement;
using secp256k1::kGroupOrder;
using secp256k1::Scalar;

/// Registry handles, resolved once (values survive Registry::reset()).
struct LaneMetrics {
    obs::Counter& groups;
    obs::Counter& fallbacks;
    obs::Counter& decompressions;

    static LaneMetrics& get() {
        static LaneMetrics m{
            obs::Registry::global().counter("ebv.crypto.lane_groups"),
            obs::Registry::global().counter("ebv.crypto.lane_fallbacks"),
            obs::Registry::global().counter("ebv.crypto.lane_decompressions"),
        };
        return m;
    }
};

/// The portable lane type: eight u64 and a loop per operation. The
/// operations stay out of line: inlined into the fully unrolled kernel,
/// they take an -O3 build minutes to compile.
struct PortableOps {
    struct V {
        std::uint64_t v[lanes::kLanes];
    };
    static constexpr std::uint64_t kM52 = 0xfffffffffffffULL;

    template <typename F>
    static V map(F f) {
        V r;
        for (int i = 0; i < lanes::kLanes; ++i) r.v[i] = f(i);
        return r;
    }
    static V set1(std::uint64_t x) {
        return map([&](int) { return x; });
    }
    [[gnu::noinline]] static V load(const std::uint64_t* p) {
        V r;
        std::memcpy(r.v, p, sizeof r.v);
        return r;
    }
    [[gnu::noinline]] static void store(std::uint64_t* p, const V& a) {
        std::memcpy(p, a.v, sizeof a.v);
    }
    [[gnu::noinline]] static V add(const V& a, const V& b) {
        return map([&](int i) { return a.v[i] + b.v[i]; });
    }
    [[gnu::noinline]] static V sub(const V& a, const V& b) {
        return map([&](int i) { return a.v[i] - b.v[i]; });
    }
    [[gnu::noinline]] static V and_(const V& a, const V& b) {
        return map([&](int i) { return a.v[i] & b.v[i]; });
    }
    template <unsigned N>
    [[gnu::noinline]] static V shr(const V& a) {
        return map([&](int i) { return a.v[i] >> N; });
    }
    template <unsigned N>
    [[gnu::noinline]] static V shl(const V& a) {
        return map([&](int i) { return a.v[i] << N; });
    }
    /// acc + the low (madd_lo) or high (madd_hi) 52 bits of the 104-bit
    /// product of the low 52 bits of a and b, as vpmadd52{lo,hi}uq.
    [[gnu::noinline]] static V madd_lo(const V& acc, const V& a, const V& b) {
        return map([&](int i) {
            const unsigned __int128 p =
                static_cast<unsigned __int128>(a.v[i] & kM52) * (b.v[i] & kM52);
            return acc.v[i] + (static_cast<std::uint64_t>(p) & kM52);
        });
    }
    [[gnu::noinline]] static V madd_hi(const V& acc, const V& a, const V& b) {
        return map([&](int i) {
            const unsigned __int128 p =
                static_cast<unsigned __int128>(a.v[i] & kM52) * (b.v[i] & kM52);
            return acc.v[i] + static_cast<std::uint64_t>(p >> 52);
        });
    }
    [[gnu::noinline]] static V select(std::uint8_t m, const V& a, const V& b) {
        return map([&](int i) { return (m >> i & 1) != 0 ? a.v[i] : b.v[i]; });
    }
    [[gnu::noinline]] static V gather(const std::uint64_t* base, const V& index) {
        return map([&](int i) { return base[index.v[i]]; });
    }
};

/// (e + 1)·G for e < kTableSizeG as x, y, β·x in carried limbs, built once
/// per process (61,440 bytes).
struct GeneratorTable {
    std::uint64_t words[lanes::kTableSizeG * lanes::kGEntryWords];

    GeneratorTable() {
        const secp256k1::Jacobian g = secp256k1::to_jacobian(secp256k1::generator());
        const FieldElement beta = FieldElement::from_limbs(
            {lanes::kBetaLimbs[0], lanes::kBetaLimbs[1], lanes::kBetaLimbs[2],
             lanes::kBetaLimbs[3], lanes::kBetaLimbs[4]});
        secp256k1::Jacobian cur = g;
        for (int e = 0; e < lanes::kTableSizeG; ++e) {
            const secp256k1::Point p = secp256k1::to_affine(cur);
            const FieldElement x(p.x);
            const FieldElement coords[3] = {x, FieldElement(p.y), (beta * x).normalized()};
            std::uint64_t* entry = words + e * lanes::kGEntryWords;
            for (int c = 0; c < 3; ++c)
                for (int l = 0; l < 5; ++l) entry[c * 5 + l] = coords[c].limbs()[l];
            cur = secp256k1::add(cur, g);
        }
    }
};

const std::uint64_t* generator_table() {
    static const GeneratorTable table;
    return table.words;
}

enum class Impl { kNone, kPortable, kIfma };

Impl detect_impl() { return detail::have_ifma() ? Impl::kIfma : Impl::kNone; }

Impl& active_impl() {
    static Impl impl = detect_impl();
    return impl;
}

/// Fixed signed-window recoding of k ∈ [0, n) as ±m with m the shorter of
/// k and n − k: |digits[i]| ≤ 2^(w−1) with sum(digits[i]·2^(w·i)) ≡ k
/// (mod n). False when m ≥ 2^129, which the windows cannot hold.
bool recode(const Scalar& k, int width, int windows, int* digits) {
    const bool negative = k.is_high();
    const U256 m = negative ? (-k).value() : k.value();
    if (m.limbs[3] != 0 || m.limbs[2] > 1) return false;
    const int half = 1 << (width - 1);
    int carry = 0;
    for (int i = 0; i < windows; ++i) {
        const int limb = i * width / 64;
        const int shift = i * width % 64;
        std::uint64_t bits = m.limbs[limb] >> shift;
        if (shift + width > 64 && limb + 1 < 4) bits |= m.limbs[limb + 1] << (64 - shift);
        int v = static_cast<int>(bits & ((std::uint64_t{1} << width) - 1)) + carry;
        carry = v > half ? 1 : 0;
        v -= carry << width;
        digits[i] = negative ? -v : v;
    }
    EBV_ASSERT(carry == 0);
    return true;
}

/// Writes one lane's digits into a term's windows; entry e of the table
/// is at gather index e·stride + offset.
void fill(lanes::Window* windows, const int* digits, int count, int lane, std::uint64_t stride,
          std::uint64_t offset) {
    const auto bit = static_cast<std::uint8_t>(1u << lane);
    for (int i = 0; i < count; ++i) {
        const int d = digits[i];
        const int magnitude = d < 0 ? -d : d;
        windows[i].index[lane] = (magnitude == 0 ? 0 : magnitude - 1) * stride + offset;
        if (d != 0) windows[i].nonzero |= bit;
        if (d < 0) windows[i].negative |= bit;
    }
}

}  // namespace

std::uint8_t verify_lanes(std::span<const VerifyJob> jobs) {
    EBV_EXPECTS(jobs.size() <= kVerifyLanes);
    const Impl impl = active_impl();
    std::uint8_t verdicts = 0;
    // One job costs more in the kernel than in the scalar verify: the
    // kernel's time is per group, not per lane.
    if (impl == Impl::kNone || jobs.size() == 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (jobs[i].key.verify(jobs[i].digest, jobs[i].sig)) verdicts |= 1u << i;
        return verdicts;
    }
    if (jobs.empty()) return 0;
    LaneMetrics& metrics = LaneMetrics::get();
    metrics.groups.inc();

    // PublicKey::verify's range checks; a lane that fails them is false
    // and runs the kernel on a dummy (G, zero digits).
    std::uint8_t kernel_lanes = 0;
    std::uint8_t scalar_lanes = 0;
    Scalar r[kVerifyLanes];
    Scalar s[kVerifyLanes];
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Signature& sig = jobs[i].sig;
        if (!jobs[i].key.valid() || sig.r.is_zero() || sig.s.is_zero() ||
            !u256_less(sig.r, kGroupOrder) || !u256_less(sig.s, kGroupOrder))
            continue;
        kernel_lanes |= 1u << i;
        r[i] = Scalar(sig.r);
        s[i] = Scalar(sig.s);
    }

    // Every s⁻¹ from one inversion (Montgomery's trick).
    Scalar s_inv[kVerifyLanes];
    {
        Scalar prefix[kVerifyLanes];
        Scalar acc(U256::from_u64(1));
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if ((kernel_lanes >> i & 1) == 0) continue;
            prefix[i] = acc;
            acc = acc * s[i];
        }
        Scalar inv = acc.inverse();
        for (std::size_t i = jobs.size(); i-- > 0;) {
            if ((kernel_lanes >> i & 1) == 0) continue;
            s_inv[i] = inv * prefix[i];
            inv = inv * s[i];
        }
    }

    lanes::Batch batch;
    for (int lane = 0; lane < lanes::kLanes; ++lane) {
        int g_digits[2][lanes::kWindowsG] = {};
        int p_digits[2][lanes::kWindowsP] = {};
        const secp256k1::Point* point = &secp256k1::generator();
        if ((kernel_lanes >> lane & 1) != 0) {
            const VerifyJob& job = jobs[lane];
            const Scalar z(U256::from_be_bytes(job.digest.span()));
            const secp256k1::LambdaSplit a = secp256k1::split_lambda(z * s_inv[lane]);
            const secp256k1::LambdaSplit b = secp256k1::split_lambda(r[lane] * s_inv[lane]);
            if (recode(a.k1, lanes::kWindowG, lanes::kWindowsG, g_digits[0]) &&
                recode(a.k2, lanes::kWindowG, lanes::kWindowsG, g_digits[1]) &&
                recode(b.k1, lanes::kWindowP, lanes::kWindowsP, p_digits[0]) &&
                recode(b.k2, lanes::kWindowP, lanes::kWindowsP, p_digits[1])) {
                point = &job.key.point();
            } else {
                kernel_lanes &= ~(1u << lane);
                scalar_lanes |= 1u << lane;
                for (auto& d : g_digits) std::fill(d, d + lanes::kWindowsG, 0);
                for (auto& d : p_digits) std::fill(d, d + lanes::kWindowsP, 0);
            }
        }
        const FieldElement px(point->x);
        const FieldElement py(point->y);
        for (int l = 0; l < 5; ++l) {
            batch.px[l][lane] = px.limbs()[l];
            batch.py[l][lane] = py.limbs()[l];
        }
        for (int t = 0; t < 2; ++t) {
            fill(batch.g[t], g_digits[t], lanes::kWindowsG, lane, lanes::kGEntryWords, 0);
            fill(batch.p[t], p_digits[t], lanes::kWindowsP, lane, lanes::kPEntryWords,
                 static_cast<std::uint64_t>(lane));
        }
    }

    lanes::Result result;
    if (impl == Impl::kIfma) {
        lanes::run_ifma(batch, generator_table(), result);
    } else {
        lanes::Kernel<PortableOps>::run(batch, generator_table(), result);
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if ((kernel_lanes >> i & 1) == 0) continue;
        FieldElement::Limbs x{};
        FieldElement::Limbs z{};
        for (int l = 0; l < 5; ++l) {
            x[l] = result.x[l][i];
            z[l] = result.z[l][i];
        }
        const secp256k1::Jacobian sum{FieldElement::from_limbs(x), FieldElement(),
                                      FieldElement::from_limbs(z), false};
        if ((result.infinity >> i & 1) != 0 || sum.z.is_zero()) {
            scalar_lanes |= 1u << i;
        } else if (secp256k1::x_matches(sum, r[i])) {
            verdicts |= 1u << i;
        }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if ((scalar_lanes >> i & 1) == 0) continue;
        metrics.fallbacks.inc();
        if (jobs[i].key.verify(jobs[i].digest, jobs[i].sig)) verdicts |= 1u << i;
    }
    return verdicts;
}

std::uint8_t parse_keys_lanes(std::span<const util::ByteSpan> encodings,
                              std::span<PublicKey> keys) {
    EBV_EXPECTS(encodings.size() <= kVerifyLanes && keys.size() == encodings.size());
    std::optional<U256> x[kVerifyLanes];
    FieldElement rhs[kVerifyLanes];  // x³ + 7
    std::uint64_t root[5][kVerifyLanes] = {};
    int chained = 0;
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        if (!(x[i] = secp256k1::compressed_x(encodings[i]))) continue;
        const FieldElement fx(*x[i]);
        rhs[i] = (fx.sqr() * fx + FieldElement::from_u64(7)).normalized();
        for (int l = 0; l < 5; ++l) root[l][i] = rhs[i].limbs()[l];
        ++chained;
    }
    std::uint8_t parsed = 0;
    if (active_impl() == Impl::kNone || chained < 2) {
        for (std::size_t i = 0; i < encodings.size(); ++i) {
            const auto key = PublicKey::parse(encodings[i]);
            if (key) keys[i] = *key;
            parsed |= static_cast<std::uint8_t>(key.has_value()) << i;
        }
        return parsed;
    }
    LaneMetrics::get().decompressions.inc(static_cast<std::uint64_t>(chained));
    active_impl() == Impl::kIfma ? lanes::sqrt_ifma(root) : lanes::Kernel<PortableOps>::sqrt(root);
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        FieldElement y = FieldElement::from_limbs(
            {root[0][i], root[1][i], root[2][i], root[3][i], root[4][i]});
        if (!x[i] || y.sqr() != rhs[i]) continue;  // x³ + 7 is not a square
        if (y.is_odd() != (encodings[i][0] == 0x03)) y = y.normalized().negate(1);
        keys[i] = PublicKey(secp256k1::Point{*x[i], y.value(), false});
        parsed |= 1u << i;
    }
    return parsed;
}

void detail::field_mul_lanes(std::uint64_t (&a)[5][kVerifyLanes],
                             const std::uint64_t (&b)[5][kVerifyLanes], std::size_t count) {
    if (active_impl() == Impl::kIfma) {
        lanes::mul_chain_ifma(a, b, count);
    } else {
        lanes::Kernel<PortableOps>::mul_chain(a, b, count);
    }
}

const char* lanes_impl() {
    switch (active_impl()) {
        case Impl::kIfma: return "ifma";
        case Impl::kPortable: return "portable";
        case Impl::kNone: break;
    }
    return "none";
}

bool lanes_enabled() { return active_impl() != Impl::kNone; }

bool lanes_force_impl(std::string_view name) {
    if (name == "auto") {
        active_impl() = detect_impl();
    } else if (name == "none") {
        active_impl() = Impl::kNone;
    } else if (name == "portable") {
        active_impl() = Impl::kPortable;
    } else if (name == "ifma" && detail::have_ifma()) {
        active_impl() = Impl::kIfma;
    } else {
        return false;
    }
    return true;
}

}  // namespace ebv::crypto
