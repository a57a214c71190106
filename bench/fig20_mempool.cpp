// Fig 20 (extension): heavy-traffic mempool admission and signature-cache
// validation reuse (docs/MEMPOOL.md).
//
// A miner-side node ingests a burst workload of standalone transactions
// through TxPool::submit_batch — EV proof folds, sighash templates, and SV
// fanned over a util::ThreadPool — then packages the pool into a block
// template and validates it. With a shared chain::SigCache, every signature
// verified at admission short-circuits SV when the template connects, so
// block validation approaches UV-only cost; without it the node pays the
// full curve work twice.
//
// The sweep crosses worker threads x admission burst size (arrival), each
// point run cold (no cache) and warm (pool and validator share one cache),
// reporting admission throughput, template-connect latency, and the
// connect-time speedup the cache buys. `cache_hit_speedup` is the CI-gated
// headline: warm-pool block validation must stay well ahead of cold.
//
// Knobs: EBV_BLOCKS (funding chain length; spendable outputs scale with
// it), EBV_SEED, EBV_SIGCACHE_BYTES / EBV_MEMPOOL_BYTES (budgets).
#include <algorithm>
#include <cstdio>
#include <optional>

#include "chain/sig_cache.hpp"
#include "core/chain_archive.hpp"
#include "core/tx_pool.hpp"
#include "harness.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace ebv;

namespace {

constexpr std::size_t kOutputsPerCoinbase = 8;

struct Workload {
    chain::ChainParams params;
    crypto::PrivateKey key;
    std::vector<core::EbvBlock> chain;
    std::vector<core::EbvTransaction> txs;

    [[nodiscard]] script::Script lock() const {
        return script::make_p2pkh(key.public_key().id());
    }
};

/// Self-mined funding chain: every coinbase splits the subsidy across
/// kOutputsPerCoinbase outputs paying one key, so each mature block funds
/// that many independent single-input spends (shuffled, varied fees).
Workload build_workload(std::uint32_t blocks, std::uint64_t seed) {
    util::Rng rng(seed);
    Workload w{chain::ChainParams::simnet(), crypto::PrivateKey::generate(rng), {}, {}};
    w.params.coinbase_maturity = 1;

    core::EbvNodeOptions options;
    options.params = w.params;
    core::EbvNode scratch(options);
    core::ChainArchive archive;
    for (std::uint32_t h = 0; h < blocks; ++h) {
        core::EbvBlock block;
        core::EbvTransaction coinbase;
        coinbase.coinbase_data = {static_cast<std::uint8_t>(h),
                                  static_cast<std::uint8_t>(h >> 8), 0x20};
        const chain::Amount subsidy = w.params.subsidy_at(h);
        const chain::Amount per_out = subsidy / kOutputsPerCoinbase;
        for (std::size_t k = 0; k < kOutputsPerCoinbase; ++k) {
            const chain::Amount value =
                k == 0 ? per_out + subsidy % kOutputsPerCoinbase : per_out;
            coinbase.outputs.push_back(chain::TxOut{value, w.lock()});
        }
        block.txs.push_back(std::move(coinbase));
        block.header.prev_hash =
            scratch.headers().empty() ? crypto::Hash256{} : scratch.headers().tip_hash();
        block.assign_stake_positions();
        const auto result = scratch.submit_block(block);
        if (!result) {
            std::fprintf(stderr, "fig20: funding chain rejected: %s\n",
                         result.error().describe().c_str());
            std::abort();
        }
        archive.add_block(block);
        w.chain.push_back(std::move(block));
    }

    // Only heights <= tip - maturity are spendable when the template lands.
    for (std::uint32_t h = 0; h + w.params.coinbase_maturity < blocks; ++h) {
        const chain::Amount subsidy = w.params.subsidy_at(h);
        const chain::Amount per_out = subsidy / kOutputsPerCoinbase;
        for (std::size_t k = 0; k < kOutputsPerCoinbase; ++k) {
            core::EbvTransaction tx;
            tx.inputs.push_back(
                archive.make_input(h, 0, static_cast<std::uint16_t>(k)));
            // make_input leaves the legacy outpoint zeroed; give each spend
            // a distinct one so equal-fee spends don't share a sighash (and
            // thus a signature) — that would let admission hit its own
            // cache and flatter the warm numbers.
            tx.inputs[0].prevout.index =
                h * static_cast<std::uint32_t>(kOutputsPerCoinbase) +
                static_cast<std::uint32_t>(k);
            const chain::Amount in_value =
                k == 0 ? per_out + subsidy % kOutputsPerCoinbase : per_out;
            const chain::Amount fee =
                1'000'000 + static_cast<chain::Amount>(rng.below(64)) * 250'000;
            tx.outputs.push_back(chain::TxOut{in_value - fee, w.lock()});
            const crypto::Hash256 digest =
                core::ebv_signature_hash(tx, 0, w.lock(), 0x01);
            util::Bytes sig = w.key.sign(digest).to_der();
            sig.push_back(0x01);
            tx.inputs[0].unlock_script =
                script::make_p2pkh_unlock(sig, w.key.public_key());
            w.txs.push_back(std::move(tx));
        }
    }
    // Shuffle so bursts interleave feerates and funding heights.
    for (std::size_t i = w.txs.size(); i > 1; --i)
        std::swap(w.txs[i - 1], w.txs[rng.below(i)]);
    return w;
}

struct RunResult {
    double admit_ms = 0;    ///< total submit_batch wall time across bursts
    double admit_tx_us = 0; ///< admit_ms amortized per transaction
    double connect_ms = 0;  ///< template submit_block wall time
    double e2e_ms = 0;      ///< first submit -> template block validated
    double hit_rate_pct = 0;  ///< connect-time SV cache hit rate
    std::size_t accepted = 0;
};

/// One sweep point: admit every transaction in bursts of `arrival`, build
/// one template holding the whole pool, validate it on the same node.
std::optional<RunResult> run_point(const Workload& w, std::size_t threads,
                                   std::size_t arrival, bool use_cache) {
    const auto& hits = obs::Registry::global().counter("ebv.sigcache.hits");
    const auto& misses = obs::Registry::global().counter("ebv.sigcache.misses");

    chain::SigCache cache;  // fresh per point so earlier runs can't pre-warm it
    std::optional<util::ThreadPool> workers;
    if (threads > 1) workers.emplace(threads);

    core::EbvNodeOptions options;
    options.params = w.params;
    options.validator.sigcache = use_cache ? &cache : nullptr;
    if (workers) options.validator.script_pool = &*workers;
    core::EbvNode node(options);
    for (const auto& block : w.chain) {
        if (!node.submit_block(block)) return std::nullopt;
    }

    core::TxPoolOptions pool_options = core::TxPoolOptions::from_env();
    pool_options.pool = workers ? &*workers : nullptr;
    pool_options.sigcache = use_cache ? &cache : nullptr;
    core::TxPool pool(w.params, node.headers(), node.status(), pool_options);

    RunResult out;
    util::Stopwatch watch;
    for (std::size_t i = 0; i < w.txs.size(); i += arrival) {
        const std::size_t n = std::min(arrival, w.txs.size() - i);
        const auto verdicts = pool.submit_batch({w.txs.data() + i, n});
        for (const core::TxAdmission v : verdicts)
            out.accepted += v == core::TxAdmission::kAccepted;
    }
    out.admit_ms = static_cast<double>(watch.elapsed_ns()) / 1e6;
    out.admit_tx_us = w.txs.empty()
                          ? 0
                          : out.admit_ms * 1e3 / static_cast<double>(w.txs.size());
    if (out.accepted != w.txs.size()) return std::nullopt;

    const core::EbvBlock block = pool.build_template(w.lock(), w.txs.size());
    const std::uint64_t hits0 = hits.value(), misses0 = misses.value();
    util::Stopwatch connect_watch;
    if (!node.submit_block(block)) return std::nullopt;
    out.connect_ms = static_cast<double>(connect_watch.elapsed_ns()) / 1e6;
    out.e2e_ms = static_cast<double>(watch.elapsed_ns()) / 1e6;
    const std::uint64_t h = hits.value() - hits0, m = misses.value() - misses0;
    out.hit_rate_pct =
        (h + m) == 0 ? 0 : 100.0 * static_cast<double>(h) / static_cast<double>(h + m);
    return out;
}

}  // namespace

int main() {
    bench::JsonReport report("fig20_mempool");
    const auto blocks = static_cast<std::uint32_t>(bench::env_u64("EBV_BLOCKS", 24));
    const std::uint64_t seed = bench::env_u64("EBV_SEED", 42);

    std::fprintf(stderr, "fig20: building %u funding blocks...\n", blocks);
    const Workload w = build_workload(blocks, seed);

    const std::size_t thread_sweep[] = {1, 2, 4};
    const std::size_t arrival_sweep[] = {32, 256};

    std::printf("Fig 20 — mempool admission + sigcache reuse, %zu txs over %u "
                "blocks:\nsubmit->block-validated latency, cold (no cache) vs warm "
                "(admission-shared sigcache)\n", w.txs.size(), blocks);
    std::printf("%-8s %-8s %12s %12s %14s %14s %12s %10s %9s\n", "threads", "arrival",
                "cold-admit", "warm-admit", "cold-connect", "warm-connect", "warm-e2e",
                "hit-rate", "speedup");
    bench::print_rule(106);

    double speedup_at4 = 0;
    for (const std::size_t threads : thread_sweep) {
        for (const std::size_t arrival : arrival_sweep) {
            const auto cold = run_point(w, threads, arrival, /*use_cache=*/false);
            const auto warm = run_point(w, threads, arrival, /*use_cache=*/true);
            if (!cold || !warm) {
                report.aborted("admission or template validation failed");
                std::fprintf(stderr, "fig20: sweep point %zu/%zu failed\n", threads,
                             arrival);
                return 1;
            }
            const double speedup =
                warm->connect_ms > 0 ? cold->connect_ms / warm->connect_ms : 0;
            if (threads == 4) speedup_at4 = std::max(speedup_at4, speedup);
            std::printf("%-8zu %-8zu %10.1fms %10.1fms %12.2fms %12.2fms %10.1fms "
                        "%9.1f%% %8.2fx\n",
                        threads, arrival, cold->admit_ms, warm->admit_ms,
                        cold->connect_ms, warm->connect_ms, warm->e2e_ms,
                        warm->hit_rate_pct, speedup);
            report.row(
                "{\"threads\":%zu,\"arrival\":%zu,\"txs\":%zu,"
                "\"cold_admit_ms\":%.2f,\"warm_admit_ms\":%.2f,"
                "\"admit_tx_us\":%.2f,\"cold_connect_ms\":%.2f,"
                "\"warm_connect_ms\":%.2f,\"cold_e2e_ms\":%.2f,\"warm_e2e_ms\":%.2f,"
                "\"hit_rate_pct\":%.1f,\"cache_hit_speedup\":%.3f}",
                threads, arrival, w.txs.size(), cold->admit_ms, warm->admit_ms,
                warm->admit_tx_us, cold->connect_ms, warm->connect_ms, cold->e2e_ms,
                warm->e2e_ms, warm->hit_rate_pct, speedup);
        }
    }

    bench::print_rule(106);
    std::printf("connect-time speedup from admission-verified signatures at 4 "
                "threads: %.2fx\n(the warm pool's template validates without "
                "re-running ECDSA: every admission-verified\nsignature is a sigcache "
                "hit, so block validation approaches UV-only cost).\n",
                speedup_at4);
    return 0;
}
