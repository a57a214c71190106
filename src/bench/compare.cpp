#include "bench/compare.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace ebv::bench {

namespace {

using util::json::Value;

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Numeric fields that parameterize a row rather than measure it. String
/// and bool fields are always identity.
bool is_identity_key(std::string_view key) {
    static constexpr std::string_view kKeys[] = {
        "threads", "window", "height", "period", "blocks", "seed", "reps",
        "mode", "clients", "queries_per_block", "arrival", "sighash_phase_inputs",
    };
    for (const std::string_view k : kKeys) {
        if (key == k) return true;
    }
    return false;
}

std::string to_compact(double v) {
    char buf[48];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%g", v);
    }
    return buf;
}

/// Stable row identity: "k=v" pairs of identity fields in appearance order.
std::string row_identity(const Value& row) {
    std::string id;
    for (const auto& [key, value] : row.as_object()) {
        std::string rendered;
        if (value.is_string()) {
            rendered = value.as_string();
        } else if (value.is_bool()) {
            rendered = value.as_bool() ? "true" : "false";
        } else if (value.is_number() && is_identity_key(key)) {
            rendered = to_compact(value.as_number());
        } else {
            continue;
        }
        if (!id.empty()) id += ' ';
        id += key + "=" + rendered;
    }
    return id.empty() ? "(row)" : id;
}

const Value* report_rows(const Value& report) {
    const Value* rows = report.get("rows");
    return rows != nullptr && rows->is_array() ? rows : nullptr;
}

std::string provenance_field(const Value& report, std::string_view key) {
    const Value* prov = report.get("provenance");
    if (prov == nullptr) return {};
    const Value* field = prov->get(key);
    if (field == nullptr) return {};
    if (field->is_string()) return field->as_string();
    if (field->is_number()) return to_compact(field->as_number());
    return {};
}

}  // namespace

Direction metric_direction(std::string_view name) {
    if (name.find("speedup") != std::string_view::npos ||
        ends_with(name, "reduction_pct") || ends_with(name, "saved") ||
        ends_with(name, "hit_rate_pct"))
        return Direction::kHigherBetter;
    if (ends_with(name, "_ms") || ends_with(name, "_ns") || ends_with(name, "_us") ||
        ends_with(name, "_bytes"))
        return Direction::kLowerBetter;
    return Direction::kInfo;
}

CompareResult compare_reports(const Value& baseline, const Value& current,
                              const CompareOptions& options) {
    CompareResult result;
    const auto error = [&](std::string msg) {
        result.errors.push_back(std::move(msg));
        result.ok = false;
    };

    if (!baseline.is_object() || !current.is_object()) {
        error("reports must be JSON objects");
        return result;
    }

    const Value* base_bench = baseline.get("bench");
    const Value* cur_bench = current.get("bench");
    if (base_bench == nullptr || cur_bench == nullptr || !base_bench->is_string() ||
        !cur_bench->is_string()) {
        error("missing \"bench\" name");
        return result;
    }
    if (base_bench->as_string() != cur_bench->as_string()) {
        error("bench mismatch: baseline is \"" + base_bench->as_string() +
              "\", current is \"" + cur_bench->as_string() + "\"");
        return result;
    }

    // A partial run must never gate (in either role): the missing tail
    // would masquerade as a speedup.
    for (const auto& [report, who] :
         {std::pair{&baseline, "baseline"}, std::pair{&current, "current"}}) {
        const Value* aborted = report->get("aborted");
        if (aborted != nullptr && aborted->is_bool() && aborted->as_bool()) {
            std::string msg = std::string(who) + " run is marked aborted";
            const Value* reason = report->get("abort_reason");
            if (reason != nullptr && reason->is_string())
                msg += " (" + reason->as_string() + ")";
            error(std::move(msg));
        }
    }
    if (!result.ok) return result;

    // Provenance: refuse (or warn about) apples-to-oranges diffs. The git
    // SHA is *expected* to differ — that is the point of the comparison.
    for (const char* key : {"build_type", "sha256_impl", "hw_threads", "lanes"}) {
        const std::string base_v = provenance_field(baseline, key);
        const std::string cur_v = provenance_field(current, key);
        if (base_v.empty() || cur_v.empty()) {
            result.warnings.push_back(std::string("provenance field \"") + key +
                                      "\" missing from " +
                                      (base_v.empty() ? "baseline" : "current"));
            continue;
        }
        if (base_v != cur_v) {
            std::string msg = std::string("provenance mismatch on ") + key + ": \"" +
                              base_v + "\" vs \"" + cur_v + "\"";
            if (options.strict_provenance) {
                error(std::move(msg));
            } else {
                result.warnings.push_back(std::move(msg));
            }
        }
    }
    if (!result.ok) return result;

    const Value* base_rows = report_rows(baseline);
    const Value* cur_rows = report_rows(current);
    if (base_rows == nullptr || cur_rows == nullptr) {
        error("missing \"rows\" array");
        return result;
    }

    // First row with a given identity wins on duplicates (mirrors the
    // first-wins rule the JSON parser applies to duplicate keys).
    std::map<std::string, const Value*> current_by_id;
    for (const Value& row : cur_rows->as_array()) {
        if (row.is_object()) current_by_id.emplace(row_identity(row), &row);
    }

    for (const Value& row : base_rows->as_array()) {
        if (!row.is_object()) continue;
        const std::string id = row_identity(row);
        const auto match = current_by_id.find(id);
        if (match == current_by_id.end()) {
            result.warnings.push_back("row [" + id + "] missing from current run");
            continue;
        }
        for (const auto& [key, value] : row.as_object()) {
            if (!value.is_number() || is_identity_key(key)) continue;
            const Value* cur_value = match->second->get(key);
            if (cur_value == nullptr || !cur_value->is_number()) {
                result.warnings.push_back("metric \"" + key + "\" in row [" + id +
                                          "] missing from current run");
                continue;
            }
            MetricDelta delta;
            delta.row = id;
            delta.metric = key;
            delta.baseline = value.as_number();
            delta.current = cur_value->as_number();
            delta.direction = metric_direction(key);
            const bool gated =
                delta.direction != Direction::kInfo && delta.baseline > 0 &&
                (options.gate_only.empty() ||
                 key.find(options.gate_only) != std::string::npos);
            if (gated) {
                const double ratio = delta.current / delta.baseline;
                delta.regression = delta.direction == Direction::kLowerBetter
                                       ? ratio > 1.0 + options.tolerance
                                       : ratio < 1.0 - options.tolerance;
            }
            if (delta.regression) ++result.regressions;
            result.deltas.push_back(std::move(delta));
        }
    }

    if (result.regressions > 0) result.ok = false;
    return result;
}

CompareResult compare_files(const std::string& baseline_path,
                            const std::string& current_path,
                            const CompareOptions& options) {
    const auto read = [](const std::string& path) -> std::optional<Value> {
        std::ifstream in(path);
        if (!in) return std::nullopt;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return util::json::parse(buffer.str());
    };

    CompareResult result;
    const auto baseline = read(baseline_path);
    if (!baseline) {
        result.ok = false;
        result.errors.push_back("cannot read/parse baseline: " + baseline_path);
    }
    const auto current = read(current_path);
    if (!current) {
        result.ok = false;
        result.errors.push_back("cannot read/parse current: " + current_path);
    }
    if (!baseline || !current) return result;
    return compare_reports(*baseline, *current, options);
}

std::string format_report(const CompareResult& result) {
    std::string out;
    char line[512];
    for (const std::string& e : result.errors) out += "error: " + e + "\n";
    for (const std::string& w : result.warnings) out += "warning: " + w + "\n";
    for (const MetricDelta& d : result.deltas) {
        const double pct =
            d.baseline != 0 ? 100.0 * (d.current - d.baseline) / d.baseline : 0.0;
        const char* tag = d.regression
                              ? "REGRESSION"
                              : (d.direction == Direction::kInfo ? "info" : "ok");
        std::snprintf(line, sizeof line, "%-10s %-28s [%s]  %.4g -> %.4g (%+.1f%%)\n",
                      tag, d.metric.c_str(), d.row.c_str(), d.baseline, d.current,
                      pct);
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "%zu metrics compared, %zu regression(s), %zu warning(s): %s\n",
                  result.deltas.size(), result.regressions, result.warnings.size(),
                  result.ok ? "PASS" : "FAIL");
    out += line;
    return out;
}

}  // namespace ebv::bench
