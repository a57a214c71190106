// Unit tests for the bench_compare decision logic (src/bench/compare.hpp):
// improvements pass, regressions beyond tolerance fail, missing metrics
// warn, aborted runs refuse to gate, and provenance drift warns (or fails
// under --strict-provenance).
#include "bench/compare.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ebv::bench {
namespace {

util::json::Value doc(const std::string& text) {
    auto parsed = util::json::parse(text);
    EXPECT_TRUE(parsed.has_value()) << text;
    return parsed.value_or(util::json::Value{});
}

const char* kBaseline =
    R"({"bench":"fig17_ibd_compare",)"
    R"("provenance":{"git_sha":"aaa111","build_type":"Release","hw_threads":8,)"
    R"("sha256_impl":"sha-ni","lanes":"ifma"},)"
    R"("rows":[{"mode":"pipelined","threads":4,"window":8,"ibd_ms":1000.0,)"
    R"("speedup":2.0,"inputs":500}],"aborted":false,"metrics":{}})";

std::string current_with(const std::string& rows, const char* aborted = "false") {
    return std::string(R"({"bench":"fig17_ibd_compare",)") +
           R"("provenance":{"git_sha":"bbb222","build_type":"Release",)" +
           R"("hw_threads":8,"sha256_impl":"sha-ni","lanes":"ifma"},"rows":[)" + rows +
           R"(],"aborted":)" + aborted + R"(,"metrics":{}})";
}

TEST(BenchCompare, ImprovementPasses) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":800.0,"speedup":2.5,"inputs":500})")));
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.regressions, 0u);
    EXPECT_TRUE(result.errors.empty());
    // ibd_ms, speedup, and the informational `inputs` all compared.
    EXPECT_EQ(result.deltas.size(), 3u);
}

TEST(BenchCompare, RegressionBeyondToleranceFails) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1200.0,"speedup":2.0,"inputs":500})")));
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.regressions, 1u);
    bool found = false;
    for (const MetricDelta& d : result.deltas) {
        if (d.metric == "ibd_ms") {
            found = true;
            EXPECT_TRUE(d.regression);
            EXPECT_EQ(d.direction, Direction::kLowerBetter);
        }
    }
    EXPECT_TRUE(found);
}

TEST(BenchCompare, RegressionWithinToleranceIsOk) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1090.0,"speedup":1.95,"inputs":500})")));
    EXPECT_TRUE(result.ok) << format_report(result);
}

TEST(BenchCompare, SpeedupDropGatesHigherIsBetter) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1000.0,"speedup":1.0,"inputs":500})")));
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.regressions, 1u);
}

TEST(BenchCompare, InfoMetricsNeverGate) {
    // `inputs` doubling is workload drift, not a perf regression.
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1000.0,"speedup":2.0,"inputs":1000})")));
    EXPECT_TRUE(result.ok);
}

TEST(BenchCompare, MissingMetricWarnsWithoutFailing) {
    const auto result = compare_reports(
        doc(kBaseline), doc(current_with(R"({"mode":"pipelined","threads":4,)"
                                         R"("window":8,"ibd_ms":1000.0,"inputs":500})")));
    EXPECT_TRUE(result.ok);
    ASSERT_FALSE(result.warnings.empty());
    EXPECT_NE(result.warnings[0].find("speedup"), std::string::npos);
}

TEST(BenchCompare, MissingRowWarnsWithoutFailing) {
    const auto result = compare_reports(
        doc(kBaseline), doc(current_with(R"({"mode":"serial","threads":4,"window":8,)"
                                         R"("ibd_ms":900.0,"speedup":2.0,"inputs":500})")));
    EXPECT_TRUE(result.ok);
    ASSERT_FALSE(result.warnings.empty());
    EXPECT_NE(result.warnings[0].find("missing"), std::string::npos);
}

TEST(BenchCompare, AbortedCurrentRunIsFatal) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":10.0,"speedup":9.0,"inputs":5})",
                         "true")));
    EXPECT_FALSE(result.ok);
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("aborted"), std::string::npos);
    // A partial run's suspiciously good numbers must not be compared.
    EXPECT_TRUE(result.deltas.empty());
}

TEST(BenchCompare, AbortedBaselineIsFatal) {
    std::string aborted_baseline = kBaseline;
    const auto pos = aborted_baseline.find("\"aborted\":false");
    ASSERT_NE(pos, std::string::npos);
    aborted_baseline.replace(pos, 15, "\"aborted\":true");
    const auto result = compare_reports(
        doc(aborted_baseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1000.0,"speedup":2.0,"inputs":500})")));
    EXPECT_FALSE(result.ok);
}

TEST(BenchCompare, BenchNameMismatchIsFatal) {
    const auto result = compare_reports(
        doc(kBaseline),
        doc(R"({"bench":"fig16_validation_compare","rows":[],"aborted":false})"));
    EXPECT_FALSE(result.ok);
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("mismatch"), std::string::npos);
}

TEST(BenchCompare, ProvenanceDriftWarnsByDefaultFailsStrict) {
    const std::string current =
        std::string(R"({"bench":"fig17_ibd_compare",)") +
        R"("provenance":{"git_sha":"bbb","build_type":"Debug","hw_threads":8,)" +
        R"("sha256_impl":"sha-ni"},)" +
        R"("rows":[{"mode":"pipelined","threads":4,"window":8,"ibd_ms":1000.0,)" +
        R"("speedup":2.0,"inputs":500}],"aborted":false,"metrics":{}})";

    const auto lax = compare_reports(doc(kBaseline), doc(current));
    EXPECT_TRUE(lax.ok);
    ASSERT_FALSE(lax.warnings.empty());
    EXPECT_NE(lax.warnings[0].find("build_type"), std::string::npos);

    CompareOptions strict;
    strict.strict_provenance = true;
    const auto refused = compare_reports(doc(kBaseline), doc(current), strict);
    EXPECT_FALSE(refused.ok);
    EXPECT_TRUE(refused.deltas.empty());
}

// A laned run against a scalar baseline (the fig20 cache-hit ratio moves
// several-fold with the backend): a warning by default, an error under
// --strict-provenance.
TEST(BenchCompare, LanesDriftWarnsByDefaultFailsStrict) {
    std::string current = current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                                       R"("ibd_ms":1000.0,"speedup":2.0,"inputs":500})");
    current.replace(current.find(R"("lanes":"ifma")"), 14, R"("lanes":"none")");

    const auto lax = compare_reports(doc(kBaseline), doc(current));
    EXPECT_TRUE(lax.ok);
    ASSERT_EQ(lax.warnings.size(), 1u);
    EXPECT_NE(lax.warnings[0].find("lanes"), std::string::npos);

    CompareOptions strict;
    strict.strict_provenance = true;
    const auto refused = compare_reports(doc(kBaseline), doc(current), strict);
    EXPECT_FALSE(refused.ok);
    ASSERT_EQ(refused.errors.size(), 1u);
    EXPECT_NE(refused.errors[0].find("lanes"), std::string::npos);
    EXPECT_TRUE(refused.deltas.empty());
}

TEST(BenchCompare, GateOnlyFilterLimitsGatingNotReporting) {
    CompareOptions options;
    options.gate_only = "speedup";
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":5000.0,"speedup":2.0,"inputs":500})")),
        options);
    // ibd_ms quintupled but only speedup metrics gate.
    EXPECT_TRUE(result.ok) << format_report(result);
    EXPECT_EQ(result.deltas.size(), 3u);  // still all reported
}

TEST(BenchCompare, ToleranceIsConfigurable) {
    CompareOptions tight;
    tight.tolerance = 0.01;
    const auto result = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":1050.0,"speedup":2.0,"inputs":500})")),
        tight);
    EXPECT_FALSE(result.ok);  // +5 % fails a 1 % gate
}

TEST(BenchCompare, ArrivalIsIdentityNotMetric) {
    // The fig20 mempool sweep keys rows by {threads, arrival}; `arrival`
    // (admission burst size) parameterizes identity, it is never gated.
    const char* base =
        R"({"bench":"fig20_mempool","provenance":{},)"
        R"("rows":[{"threads":4,"arrival":32,)"
        R"("warm_connect_ms":1.0,"cache_hit_speedup":60.0}],"aborted":false})";

    // Same threads at a different burst size: no matching row, warn.
    const auto mismatched = compare_reports(
        doc(base),
        doc(R"({"bench":"fig20_mempool","provenance":{},)"
            R"("rows":[{"threads":4,"arrival":256,)"
            R"("warm_connect_ms":0.5,"cache_hit_speedup":90.0}],"aborted":false})"));
    EXPECT_TRUE(mismatched.ok);
    ASSERT_FALSE(mismatched.warnings.empty());
    EXPECT_NE(mismatched.warnings.back().find("arrival=32"), std::string::npos);
    EXPECT_TRUE(mismatched.deltas.empty());

    // Matching burst size compares the metrics, never "arrival" itself.
    const auto matched = compare_reports(
        doc(base),
        doc(R"({"bench":"fig20_mempool","provenance":{},)"
            R"("rows":[{"threads":4,"arrival":32,)"
            R"("warm_connect_ms":1.1,"cache_hit_speedup":55.0}],"aborted":false})"));
    EXPECT_TRUE(matched.ok) << format_report(matched);
    EXPECT_EQ(matched.deltas.size(), 2u);
    for (const MetricDelta& d : matched.deltas) EXPECT_NE(d.metric, "arrival");
}

TEST(BenchCompare, SighashPhaseInputsIsIdentityNotMetric) {
    // The fig16 sighash-phase rows differ only in `sighash_phase_inputs`
    // (their string fields are the same ISA names), so each must compare
    // against its own baseline row rather than all against the first.
    const auto row = [](int inputs, double speedup) {
        return std::string(R"({"sighash_phase_inputs":)") + std::to_string(inputs) +
               R"(,"txs":64,"naive_ms":1.0,"template_ms":1.0,"speedup":)" +
               std::to_string(speedup) + R"(,"sha256_impl":"sha-ni"})";
    };
    const auto report = [&](double s1, double s16) {
        return doc(R"({"bench":"fig16_validation_compare","provenance":{},"rows":[)" +
                   row(1, s1) + "," + row(16, s16) + R"(],"aborted":false})");
    };
    // The 16-input row keeps its 2.4× while the 1-input row stays at 1.0×.
    const auto result = compare_reports(report(1.0, 2.4), report(1.0, 2.4));
    EXPECT_TRUE(result.ok) << format_report(result);
    EXPECT_EQ(result.deltas.size(), 8u);  // 4 numeric fields on each of 2 rows
    for (const MetricDelta& d : result.deltas) {
        EXPECT_NE(d.metric, "sighash_phase_inputs");
        EXPECT_NEAR(d.current, d.baseline, 1e-9) << d.row << " " << d.metric;
    }
    // A real drop on the 16-input row is caught on that row.
    const auto dropped = compare_reports(report(1.0, 2.4), report(1.0, 1.0));
    EXPECT_FALSE(dropped.ok) << format_report(dropped);
}

TEST(BenchCompare, MetricDirectionTable) {
    EXPECT_EQ(metric_direction("ibd_ms"), Direction::kLowerBetter);
    EXPECT_EQ(metric_direction("ev_ns"), Direction::kLowerBetter);
    EXPECT_EQ(metric_direction("wakeup_us"), Direction::kLowerBetter);
    EXPECT_EQ(metric_direction("proof_bytes"), Direction::kLowerBetter);
    EXPECT_EQ(metric_direction("speedup"), Direction::kHigherBetter);
    EXPECT_EQ(metric_direction("proof_reduction_pct"), Direction::kHigherBetter);
    EXPECT_EQ(metric_direction("sighash_bytes_saved"), Direction::kHigherBetter);
    EXPECT_EQ(metric_direction("hit_rate_pct"), Direction::kHigherBetter);
    EXPECT_EQ(metric_direction("serving_speedup"), Direction::kHigherBetter);
    EXPECT_EQ(metric_direction("inputs"), Direction::kInfo);
    EXPECT_EQ(metric_direction("height"), Direction::kInfo);
}

TEST(BenchCompare, FormatReportMentionsVerdict) {
    const auto pass = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":900.0,"speedup":2.2,"inputs":500})")));
    EXPECT_NE(format_report(pass).find("PASS"), std::string::npos);

    const auto fail = compare_reports(
        doc(kBaseline),
        doc(current_with(R"({"mode":"pipelined","threads":4,"window":8,)"
                         R"("ibd_ms":2000.0,"speedup":2.0,"inputs":500})")));
    const std::string report = format_report(fail);
    EXPECT_NE(report.find("FAIL"), std::string::npos);
    EXPECT_NE(report.find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace ebv::bench
