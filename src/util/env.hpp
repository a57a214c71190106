// Small pure helpers behind environment-driven configuration, split out of
// the bench harness so they can be unit-tested without touching the real
// environment.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <vector>

namespace ebv::util {

/// A byte budget read from an environment value: the whole of `value`
/// must be decimal digits (no sign, space or suffix) that fit a size_t.
/// Anything else, a null or an empty value included, yields `fallback`.
inline std::size_t parse_bytes(const char* value, std::size_t fallback) {
    if (value == nullptr) return fallback;
    const std::string_view text(value);
    std::size_t bytes = 0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), bytes);
    if (error != std::errc{} || end != text.data() + text.size()) return fallback;
    return bytes;
}

/// parse_bytes over the environment variable `name`.
inline std::size_t env_bytes(const char* name, std::size_t fallback) {
    return parse_bytes(std::getenv(name), fallback);
}

/// Thread counts for a parallel-validation sweep: the fixed {1, 2, 4} base,
/// plus `hardware` (hardware_concurrency; ignored when 0), plus `extra`
/// (the EBV_THREADS override; ignored when 0) — ascending and deduplicated,
/// so a sweep's JSON report never carries two rows for one thread count
/// even when the overrides collide with a base entry.
inline std::vector<std::size_t> thread_sweep_counts(std::size_t hardware,
                                                    std::uint64_t extra) {
    std::vector<std::size_t> counts{1, 2, 4};
    if (hardware > 0) counts.push_back(hardware);
    if (extra > 0) counts.push_back(static_cast<std::size_t>(extra));
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    return counts;
}

}  // namespace ebv::util
