// Deterministic pseudo-random generator (xoshiro256**). Every stochastic
// component of the library (workload generator, latency model, network
// simulator) draws from an explicitly seeded Rng so experiments reproduce
// bit-for-bit across runs.
#pragma once

#include <cstdint>

#include "util/span.hpp"

namespace ebv::util {

class Rng {
public:
    /// Seeded via splitmix64 expansion of a single 64-bit seed.
    explicit Rng(std::uint64_t seed);

    /// Uniform 64-bit value.
    std::uint64_t next();

    /// Uniform in [0, bound) without modulo bias; bound must be > 0.
    std::uint64_t below(std::uint64_t bound);

    /// Uniform in [lo, hi] inclusive; requires lo <= hi.
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /// Uniform double in [0, 1).
    double uniform01();

    /// Bernoulli trial with probability p (clamped to [0,1]).
    bool chance(double p);

    /// Geometric-ish positive integer with the given mean (>= 1); used for
    /// count distributions (inputs per transaction, etc.).
    std::uint64_t geometric_at_least_one(double mean);

    /// Fill a buffer with random bytes.
    void fill(MutableByteSpan out);

private:
    std::uint64_t s_[4];
};

}  // namespace ebv::util
