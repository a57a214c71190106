// Perf-regression comparison for EBV_BENCH_JSON artifacts: diff a fresh
// bench run against a committed baseline (bench/artifacts/) and decide
// whether any gated metric moved in the bad direction beyond a tolerance.
// Library form of the tools/bench_compare CLI, so the decision logic is
// unit-testable without subprocesses; CI runs the CLI on the fig16/fig17
// smoke sweeps (see .github/workflows/ci.yml, job `bench-gate`).
//
// Model: a report is {"bench", "provenance", "rows":[...], "aborted",
// "metrics"}. Rows are matched by *identity* — every string/bool field
// plus the numeric fields that parameterize a row (threads, window,
// height, period, ...) — and the remaining numeric fields are metrics.
// A metric's gating direction comes from its name: duration/size suffixes
// (_ms/_ns/_us/_bytes) gate lower-is-better, speedup/reduction metrics
// gate higher-is-better, anything else is reported but never fails the
// comparison. The registry snapshot under "metrics" is informational only.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ebv::bench {

enum class Direction {
    kLowerBetter,   ///< durations, byte counts — gated
    kHigherBetter,  ///< speedups, reduction percentages, hit rates — gated
    kInfo,          ///< workload descriptors — reported, never gated
};

/// Gating direction for a metric field name (see file comment).
[[nodiscard]] Direction metric_direction(std::string_view name);

struct MetricDelta {
    std::string row;     ///< identity of the row the metric belongs to
    std::string metric;  ///< field name
    double baseline = 0;
    double current = 0;
    Direction direction = Direction::kInfo;
    bool regression = false;  ///< beyond tolerance in the bad direction
};

struct CompareOptions {
    /// Allowed relative move in the bad direction before a gated metric
    /// counts as a regression (0.10 = 10 %).
    double tolerance = 0.10;
    /// Provenance mismatches (build type, SHA-256 backend, hardware
    /// threads, ECDSA-lane backend) are warnings by default; strict mode makes them errors so
    /// CI cannot accidentally gate an apples-to-oranges diff.
    bool strict_provenance = false;
    /// Regex-free metric filter: when non-empty, only metric names
    /// containing this substring are *gated* (all are still reported).
    /// CI uses this to gate ratio metrics that are stable across machines.
    std::string gate_only;
};

struct CompareResult {
    bool ok = true;  ///< no errors and no regressions
    std::vector<std::string> errors;    ///< aborted runs, bench mismatch, parse failures
    std::vector<std::string> warnings;  ///< missing rows/metrics, provenance drift
    std::vector<MetricDelta> deltas;    ///< every metric present in both reports
    std::size_t regressions = 0;
};

/// Compare two parsed EBV_BENCH_JSON documents.
[[nodiscard]] CompareResult compare_reports(const util::json::Value& baseline,
                                            const util::json::Value& current,
                                            const CompareOptions& options = {});

/// Parse + compare two files; unreadable/invalid input lands in errors.
[[nodiscard]] CompareResult compare_files(const std::string& baseline_path,
                                          const std::string& current_path,
                                          const CompareOptions& options = {});

/// Human-readable multi-line summary (errors, warnings, per-metric table).
[[nodiscard]] std::string format_report(const CompareResult& result);

}  // namespace ebv::bench
