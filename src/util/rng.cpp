#include "util/rng.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace ebv::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
    EBV_EXPECTS(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold) return r % bound;
    }
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
    EBV_EXPECTS(lo <= hi);
    if (lo == 0 && hi == ~0ULL) return next();
    return lo + below(hi - lo + 1);
}

double Rng::uniform01() {
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
}

std::uint64_t Rng::geometric_at_least_one(double mean) {
    if (mean <= 1.0) return 1;
    // Geometric on {1,2,...} with success probability 1/mean.
    const double p = 1.0 / mean;
    const double u = uniform01();
    const double v = std::log1p(-u) / std::log1p(-p);
    const auto n = static_cast<std::uint64_t>(std::floor(v)) + 1;
    return n == 0 ? 1 : n;
}

void Rng::fill(MutableByteSpan out) {
    std::size_t i = 0;
    while (i + 8 <= out.size()) {
        const std::uint64_t v = next();
        for (int b = 0; b < 8; ++b) out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
        i += 8;
    }
    if (i < out.size()) {
        const std::uint64_t v = next();
        for (int b = 0; i < out.size(); ++i, ++b) out[i] = static_cast<std::uint8_t>(v >> (8 * b));
    }
}

}  // namespace ebv::util
