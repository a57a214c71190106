// Shared harness for the figure-reproduction benches: chain building,
// node construction, IBD driving, and table printing. Every bench accepts
// environment knobs so the laptop-sized defaults can be scaled up:
//   EBV_BLOCKS     total generated blocks
//   EBV_REPS       repetitions for boxplot-style figures
//   EBV_SEED       workload seed
//   EBV_MEM_FRACTION  status-DB cache budget as a fraction of the final
//                     UTXO payload (default mirrors the paper's
//                     500 MB : 4.3 GB ≈ 0.116)
//   EBV_DEVICE     hdd | ssd | none  (disk latency model for the baseline)
//   EBV_THREADS    extra thread count for parallel-validation sweeps
//   EBV_BENCH_JSON <path>  write machine-readable telemetry: per-period rows
//                  the bench reports plus a final obs-registry snapshot, as
//                  one JSON document (see docs/OBSERVABILITY.md)
//   EBV_TRACE_JSON <path>  write the causal span trace as Chrome
//                  trace-event JSON (Perfetto-loadable); also turns on
//                  detail spans and widens the ring
//   EBV_TRACE_FOLDED <path>  write the trace as folded flamegraph stacks
//   EBV_TRACE_CAPACITY <spans>  override the trace ring size (default
//                  262144 when an exporter is active, 8192 otherwise)
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "chain/coin.hpp"
#include "chain/node.hpp"
#include "core/node.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/sha256.hpp"
#include "intermediary/converter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/affinity.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"
#include "workload/stats.hpp"

namespace ebv::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 10) : fallback;
}

inline double env_double(const char* name, double fallback) {
    const char* v = std::getenv(name);
    return v ? std::strtod(v, nullptr) : fallback;
}

/// Thread counts for a parallel-validation sweep: 1/2/4 plus the machine's
/// hardware concurrency, plus EBV_THREADS when set — deduplicated and
/// ascending (the pure logic lives in util::thread_sweep_counts so the
/// dedupe guarantee is unit-tested).
inline std::vector<std::size_t> env_thread_sweep() {
    return util::thread_sweep_counts(std::thread::hardware_concurrency(),
                                     env_u64("EBV_THREADS", 0));
}

inline storage::DeviceProfile env_device() {
    const char* v = std::getenv("EBV_DEVICE");
    const std::string device = v ? v : "hdd";
    if (device == "ssd") return storage::DeviceProfile::ssd();
    if (device == "none") return storage::DeviceProfile::none();
    return storage::DeviceProfile::hdd();
}

class TempDir {
public:
    explicit TempDir(const std::string& tag) {
        path_ = std::filesystem::temp_directory_path() /
                ("ebv_bench_" + tag + "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    std::filesystem::path path_;
};

/// A fully generated chain plus the statistics needed to size node caches.
struct ChainData {
    std::vector<chain::Block> blocks;
    std::uint64_t final_utxo_count = 0;
    std::uint64_t final_utxo_payload = 0;  ///< bytes of the final UTXO set
    workload::GeneratorOptions options;
};

/// Generate `count` blocks and track the exact UTXO-set payload the
/// baseline node will hold at the end (so cache budgets can be expressed
/// as a fraction of it, mirroring the paper's 500 MB vs 4.3 GB setup).
inline ChainData build_chain(const workload::GeneratorOptions& options,
                             std::uint32_t count) {
    ChainData data;
    data.options = options;
    data.blocks.reserve(count);

    workload::ChainGenerator generator(options);
    std::unordered_map<chain::OutPoint, std::uint64_t, chain::OutPointHasher> entry_size;
    for (std::uint32_t i = 0; i < count; ++i) {
        data.blocks.push_back(generator.next_block());
        const chain::Block& block = data.blocks.back();
        for (const auto& tx : block.txs) {
            if (!tx.is_coinbase()) {
                for (const auto& in : tx.vin) {
                    const auto it = entry_size.find(in.prevout);
                    if (it != entry_size.end()) {
                        data.final_utxo_payload -= it->second;
                        entry_size.erase(it);
                    }
                }
            }
            for (std::uint32_t o = 0; o < tx.vout.size(); ++o) {
                const chain::Coin coin{tx.vout[o].value, i, tx.is_coinbase(),
                                       tx.vout[o].lock_script};
                const std::uint64_t size = 36 + coin.encode().size();
                entry_size.emplace(chain::OutPoint{tx.txid(), o}, size);
                data.final_utxo_payload += size;
            }
        }
        if ((i + 1) % 500 == 0) {
            std::fprintf(stderr, "  generated %u/%u blocks (pool %zu)\n", i + 1, count,
                         generator.utxo_pool_size());
        }
    }
    data.final_utxo_count = entry_size.size();
    return data;
}

/// Baseline node sized like the paper's memory-restricted validator.
inline chain::BitcoinNodeOptions baseline_options(const ChainData& chain,
                                                  const TempDir& dir,
                                                  bool verify_scripts) {
    chain::BitcoinNodeOptions options;
    options.params = chain.options.params;
    options.data_dir = dir.str();
    const double fraction = env_double("EBV_MEM_FRACTION", 500.0 / (4.3 * 1024));
    options.memory_limit_bytes = static_cast<std::size_t>(
        std::max<double>(static_cast<double>(chain.final_utxo_payload) * fraction,
                         32.0 * storage::PagedFile::kPageSize));
    options.device = env_device();
    options.validator.verify_scripts = verify_scripts;
    return options;
}

/// Convert an entire chain through the intermediary.
inline std::vector<core::EbvBlock> convert_chain(const ChainData& chain) {
    intermediary::Converter converter;
    std::vector<core::EbvBlock> out;
    out.reserve(chain.blocks.size());
    for (const auto& block : chain.blocks) {
        auto converted = converter.convert_block(block);
        if (!converted) {
            std::fprintf(stderr, "conversion failed: %s\n", to_string(converted.error()));
            std::abort();
        }
        out.push_back(std::move(*converted));
    }
    return out;
}

inline double ms(util::TimeCost cost) { return util::to_ms(cost.total_ns()); }

// Build-time provenance, overridable per-run via same-named env vars (CI
// sets EBV_GIT_SHA on shallow checkouts where the build-time stamp may be
// "unknown"). bench/CMakeLists.txt generates git_sha.hpp at every build and
// defines EBV_BUILD_TYPE.
#if __has_include("git_sha.hpp")
#include "git_sha.hpp"
#endif
#ifndef EBV_GIT_SHA
#define EBV_GIT_SHA "unknown"
#endif
#ifndef EBV_BUILD_TYPE
#define EBV_BUILD_TYPE "unknown"
#endif

inline std::string env_or(const char* name, const char* fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : fallback;
}

/// Provenance header recorded in every EBV_BENCH_JSON document so
/// bench_compare can refuse apples-to-oranges diffs (different build type,
/// different SHA-256 or ECDSA-lane backend, different machine width). Also
/// records the pool topology knobs (default scheduler, affinity request,
/// CPUs visible to the process) so scheduler A/B runs stay attributable.
inline std::string provenance_json() {
    char buf[352];
    std::snprintf(buf, sizeof buf,
                  "{\"git_sha\":\"%s\",\"build_type\":\"%s\",\"hw_threads\":%u,"
                  "\"sha256_impl\":\"%s\",\"lanes\":\"%s\",\"scheduler\":\"%s\","
                  "\"affinity\":%s,\"cpus\":%u}",
                  env_or("EBV_GIT_SHA", EBV_GIT_SHA).c_str(),
                  env_or("EBV_BUILD_TYPE", EBV_BUILD_TYPE).c_str(),
                  std::thread::hardware_concurrency(), crypto::sha256_impl(),
                  crypto::lanes_impl(), util::to_string(util::default_scheduler_mode()),
                  util::default_affinity() ? "true" : "false",
                  util::affinity_cpu_count());
    return buf;
}

/// RAII wiring for the trace exporters: reading EBV_TRACE_JSON /
/// EBV_TRACE_FOLDED at construction turns on detail spans and widens the
/// ring (EBV_TRACE_CAPACITY overrides); destruction writes the files.
/// Embedded in JsonReport so every bench gets the knobs for free.
class TraceExport {
public:
    TraceExport() {
        if (const char* path = std::getenv("EBV_TRACE_JSON")) chrome_path_ = path;
        if (const char* path = std::getenv("EBV_TRACE_FOLDED")) folded_path_ = path;
        const bool active = !chrome_path_.empty() || !folded_path_.empty();
        const std::uint64_t capacity =
            env_u64("EBV_TRACE_CAPACITY", active ? 262144 : 0);
        obs::Tracer& tracer = obs::Tracer::global();
        if (capacity > 0) tracer.set_capacity(static_cast<std::size_t>(capacity));
        if (active) tracer.set_detail(true);
    }
    TraceExport(const TraceExport&) = delete;
    TraceExport& operator=(const TraceExport&) = delete;
    ~TraceExport() { write(); }

    void write() {
        if (written_) return;
        written_ = true;
        if (!chrome_path_.empty()) {
            if (obs::write_chrome_trace(chrome_path_)) {
                EBV_LOG_INFO("EBV_TRACE_JSON: wrote Chrome trace to %s",
                             chrome_path_.c_str());
            } else {
                EBV_LOG_ERROR("EBV_TRACE_JSON: cannot open %s", chrome_path_.c_str());
            }
        }
        if (!folded_path_.empty()) {
            if (obs::write_folded_stacks(folded_path_)) {
                EBV_LOG_INFO("EBV_TRACE_FOLDED: wrote folded stacks to %s",
                             folded_path_.c_str());
            } else {
                EBV_LOG_ERROR("EBV_TRACE_FOLDED: cannot open %s",
                              folded_path_.c_str());
            }
        }
    }

private:
    std::string chrome_path_;
    std::string folded_path_;
    bool written_ = false;
};

/// Machine-readable bench telemetry, activated by EBV_BENCH_JSON=<path>.
/// Benches append per-period rows (small JSON objects they format
/// themselves); on destruction (or an explicit write()) one JSON document
/// lands at the path:
///   {"bench":"<name>","provenance":{...},"rows":[...],
///    "aborted":false,"metrics":<registry snapshot>}
/// so CI can archive a perf trajectory across PRs (BENCH_<name>.json) and
/// tools/bench_compare can gate on it. Constructing a JsonReport also arms
/// the trace exporters (EBV_TRACE_JSON / EBV_TRACE_FOLDED), flushed
/// alongside the report.
class JsonReport {
public:
    explicit JsonReport(std::string bench) : bench_(std::move(bench)) {
        if (const char* path = std::getenv("EBV_BENCH_JSON")) path_ = path;
    }
    JsonReport(const JsonReport&) = delete;
    JsonReport& operator=(const JsonReport&) = delete;
    ~JsonReport() { write(); }

    [[nodiscard]] bool enabled() const { return !path_.empty(); }

    /// Append one row; `fmt` must produce a complete JSON object.
    void row(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
        if (!enabled()) return;
        char buffer[512];
        va_list args;
        va_start(args, fmt);
        const int n = std::vsnprintf(buffer, sizeof buffer, fmt, args);
        va_end(args);
        if (n > 0) rows_.emplace_back(buffer, std::min<std::size_t>(n, sizeof buffer - 1));
    }

    /// Mark the run as stopped early (block rejection, setup failure) and
    /// flush immediately: CI still gets the rows produced so far, flagged
    /// "aborted" so trend tooling won't mistake a partial run for a full one.
    /// `reason` must not contain characters needing JSON escaping.
    void aborted(std::string reason) {
        aborted_ = true;
        abort_reason_ = std::move(reason);
        write();
    }

    void write() {
        trace_export_.write();  // flush traces even without EBV_BENCH_JSON
        if (!enabled() || written_) return;
        written_ = true;
        std::FILE* f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            EBV_LOG_ERROR("EBV_BENCH_JSON: cannot open %s", path_.c_str());
            return;
        }
        std::fprintf(f, "{\"bench\":\"%s\",\"provenance\":%s,\"rows\":[",
                     bench_.c_str(), provenance_json().c_str());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s%s", i ? "," : "", rows_[i].c_str());
        }
        std::fprintf(f, "],\"aborted\":%s", aborted_ ? "true" : "false");
        if (aborted_) std::fprintf(f, ",\"abort_reason\":\"%s\"", abort_reason_.c_str());
        std::fprintf(f, ",\"metrics\":%s}\n",
                     obs::Registry::global().to_json().c_str());
        std::fclose(f);
        EBV_LOG_INFO("EBV_BENCH_JSON: wrote %zu rows + registry snapshot to %s",
                     rows_.size(), path_.c_str());
    }

private:
    std::string bench_;
    std::string path_;
    std::vector<std::string> rows_;
    bool written_ = false;
    bool aborted_ = false;
    std::string abort_reason_;
    TraceExport trace_export_;
};

inline void print_rule(int width = 100) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

}  // namespace ebv::bench
