// Reproduces Fig 16a/16b: per-block validation time, baseline vs EBV, for
// ten consecutive blocks, plus EBV's EV/UV/SV/others breakdown.
//
// Paper findings to reproduce: EBV cuts validation time by up to 93.5 %;
// inside EBV, EV and UV are negligible and SV dominates.
#include <chrono>
#include <cstdio>

#include "core/sighash_cache.hpp"
#include "crypto/sha256.hpp"
#include "harness.hpp"

using namespace ebv;

namespace {

// Transactions for the sighash-phase isolation rows: P2PKH-shaped 25-byte
// scripts, one ELs output per input, two outputs — the sizes set the
// serialization volume the template amortizes, nothing else matters here.
constexpr std::size_t kPhaseTxs = 64;

core::EbvTransaction sighash_phase_tx(util::Rng& rng, std::size_t inputs) {
    core::EbvTransaction tx;
    tx.version = 2;
    tx.locktime = 0;
    tx.inputs.resize(inputs);
    for (auto& in : tx.inputs) {
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.prevout.index = static_cast<std::uint32_t>(rng.next());
        in.sequence = 0xffffffff;
        in.els.outputs.resize(1);
        in.els.outputs[0].value = 50'000;
        in.els.outputs[0].lock_script.resize(25);
        rng.fill(in.els.outputs[0].lock_script);
        in.out_index = 0;
    }
    tx.outputs.resize(2);
    for (auto& out : tx.outputs) {
        out.value = 25'000;
        out.lock_script.resize(25);
        rng.fill(out.lock_script);
    }
    return tx;
}

}  // namespace

int main() {
    bench::JsonReport report("fig16_validation_compare");
    const auto blocks = static_cast<std::uint32_t>(bench::env_u64("EBV_BLOCKS", 1000));
    const std::uint32_t measured = 10;

    workload::GeneratorOptions gen_options;
    gen_options.seed = bench::env_u64("EBV_SEED", 42);
    gen_options.signed_mode = true;
    gen_options.height_scale = 600'000.0 / blocks;
    gen_options.intensity = bench::env_double("EBV_INTENSITY", 0.25);

    std::fprintf(stderr, "fig16: generating %u signed blocks...\n", blocks);
    const bench::ChainData chain = bench::build_chain(gen_options, blocks);
    std::fprintf(stderr, "fig16: converting...\n");
    const auto ebv_chain = bench::convert_chain(chain);

    bench::TempDir dir("fig16");
    chain::BitcoinNode btc_node(
        bench::baseline_options(chain, dir, /*verify_scripts=*/true));
    core::EbvNodeOptions ebv_options;
    ebv_options.params = gen_options.params;
    core::EbvNode ebv_node(ebv_options);

    for (std::uint32_t i = 0; i + measured < blocks; ++i) {
        if (!btc_node.submit_block(chain.blocks[i]) ||
            !ebv_node.submit_block(ebv_chain[i])) {
            report.aborted("block rejected during warm-up");
            return 1;
        }
    }

    std::printf("Fig 16a — per-block validation time (ms), baseline vs EBV\n");
    std::printf("%-8s %8s %12s %12s %12s\n", "height", "inputs", "bitcoin", "ebv",
                "reduction");
    bench::print_rule(58);

    std::vector<core::EbvTimings> ebv_rows;
    double best_reduction = 0;
    for (std::uint32_t i = blocks - measured; i < blocks; ++i) {
        auto rb = btc_node.submit_block(chain.blocks[i]);
        auto re = ebv_node.submit_block(ebv_chain[i]);
        if (!rb || !re) {
            report.aborted("block rejected during measurement");
            return 1;
        }
        const double btc_ms = bench::ms(rb->total());
        const double ebv_ms = bench::ms(re->total());
        const double reduction = btc_ms > 0 ? 100.0 * (1.0 - ebv_ms / btc_ms) : 0.0;
        best_reduction = std::max(best_reduction, reduction);
        std::printf("%-8u %8zu %12.2f %12.2f %11.1f%%\n", i, rb->inputs, btc_ms, ebv_ms,
                    reduction);
        report.row("{\"height\":%u,\"inputs\":%zu,\"btc_ms\":%.3f,\"ebv_ms\":%.3f,"
                   "\"ev_ms\":%.4f,\"uv_ms\":%.4f,\"sv_ms\":%.4f}",
                   i, rb->inputs, btc_ms, ebv_ms, bench::ms(re->ev),
                   bench::ms(re->uv), bench::ms(re->sv));
        ebv_rows.push_back(*re);
    }

    std::printf("\nFig 16b — EBV validation breakdown (ms)\n");
    std::printf("%-8s %10s %10s %10s %10s %10s\n", "height", "EV", "UV", "SV", "others",
                "total");
    bench::print_rule(64);
    std::uint32_t height = blocks - measured;
    for (const auto& t : ebv_rows) {
        std::printf("%-8u %10.3f %10.3f %10.2f %10.3f %10.2f\n", height++,
                    bench::ms(t.ev), bench::ms(t.uv), bench::ms(t.sv),
                    bench::ms(t.others_combined()), bench::ms(t.total()));
    }

    bench::print_rule(64);
    std::printf("best per-block reduction: %.1f%% (paper: 93.5%% on its outlier block);\n"
                "EV+UV are negligible and SV dominates EBV time, as in the paper.\n",
                best_reduction);

    // ---- Thread-count sweep: fused parallel EV+SV -------------------------
    // A fresh node per thread count replays the prefix, then the same ten
    // measured blocks; ev_sv_ms sums the proof-bound (parallelized) phases.
    std::printf("\nEBV thread-count sweep — EV+SV wall time over the measured blocks\n");
    std::printf("%-8s %12s %10s\n", "threads", "ev_sv_ms", "speedup");
    bench::print_rule(32);

    double base_ev_sv_ms = 0;
    for (const std::size_t threads : bench::env_thread_sweep()) {
        util::ThreadPool pool(threads);
        core::EbvNodeOptions sweep_options = ebv_options;
        sweep_options.validator.script_pool = &pool;
        core::EbvNode sweep_node(sweep_options);
        for (std::uint32_t i = 0; i + measured < blocks; ++i)
            if (!sweep_node.submit_block(ebv_chain[i])) {
                report.aborted("block rejected during thread sweep");
                return 1;
            }

        double ev_sv_ms = 0;
        for (std::uint32_t i = blocks - measured; i < blocks; ++i) {
            auto r = sweep_node.submit_block(ebv_chain[i]);
            if (!r) {
                report.aborted("block rejected during thread sweep");
                return 1;
            }
            ev_sv_ms += bench::ms(r->ev) + bench::ms(r->sv);
        }
        if (threads == 1) base_ev_sv_ms = ev_sv_ms;
        const double speedup = ev_sv_ms > 0 ? base_ev_sv_ms / ev_sv_ms : 0.0;
        std::printf("%-8zu %12.2f %9.2fx\n", threads, ev_sv_ms, speedup);
        report.row("{\"threads\":%zu,\"ev_sv_ms\":%.3f,\"speedup\":%.3f}", threads,
                   ev_sv_ms, speedup);
    }

    // ---- Scheduler × skew sweep: work stealing vs shared counter ----------
    // Same replay protocol over two chains: the uniform one above (skew 0)
    // and a second chain whose per-input SV cost is Zipf-skewed (1-of-M
    // multisig, signer last — see workload::GeneratorOptions::skew). Under
    // uniform cost the schedulers should tie; under skew the stealing
    // scheduler's finer splits bound the straggler tail the shared counter
    // pays in barrier_wait. Speedup is relative to the counter/1-thread row
    // of the same skew level, so steal-vs-counter is a direct ratio within a
    // level.
    const double skew = bench::env_double("EBV_SKEW", 1.0);
    std::printf("\nScheduler sweep — EV+SV wall time, uniform vs skewed cost "
                "(EBV_SKEW=%.2f)\n",
                skew);
    std::printf("%-10s %6s %8s %12s %10s\n", "scheduler", "skew", "threads",
                "ev_sv_ms", "speedup");
    bench::print_rule(50);

    std::vector<double> skew_levels{0.0};
    if (skew > 0.0) {
        skew_levels.push_back(skew);
        std::fprintf(stderr, "fig16: generating %u skewed blocks (skew=%.2f)...\n",
                     blocks, skew);
    }
    workload::GeneratorOptions skew_gen = gen_options;
    skew_gen.skew = skew;
    const std::vector<core::EbvBlock> skewed_chain =
        skew > 0.0 ? bench::convert_chain(bench::build_chain(skew_gen, blocks))
                   : std::vector<core::EbvBlock>{};

    for (const double level : skew_levels) {
        const auto& level_chain = level > 0.0 ? skewed_chain : ebv_chain;
        double counter_base_ms = 0;
        for (const util::SchedulerMode mode :
             {util::SchedulerMode::kCounter, util::SchedulerMode::kSteal}) {
            for (const std::size_t threads : bench::env_thread_sweep()) {
                util::ThreadPool pool(util::ThreadPool::Options{threads, mode, {}});
                core::EbvNodeOptions sched_options = ebv_options;
                sched_options.validator.script_pool = &pool;
                core::EbvNode sched_node(sched_options);
                for (std::uint32_t i = 0; i + measured < blocks; ++i)
                    if (!sched_node.submit_block(level_chain[i])) {
                        report.aborted("block rejected during scheduler sweep");
                        return 1;
                    }

                double ev_sv_ms = 0;
                for (std::uint32_t i = blocks - measured; i < blocks; ++i) {
                    auto r = sched_node.submit_block(level_chain[i]);
                    if (!r) {
                        report.aborted("block rejected during scheduler sweep");
                        return 1;
                    }
                    ev_sv_ms += bench::ms(r->ev) + bench::ms(r->sv);
                }
                if (mode == util::SchedulerMode::kCounter && threads == 1)
                    counter_base_ms = ev_sv_ms;
                const double speedup =
                    ev_sv_ms > 0 ? counter_base_ms / ev_sv_ms : 0.0;
                std::printf("%-10s %6.2f %8zu %12.2f %9.2fx\n",
                            util::to_string(mode), level, threads, ev_sv_ms, speedup);
                report.row("{\"scheduler\":\"%s\",\"skew\":%.2f,\"threads\":%zu,"
                           "\"ev_sv_ms\":%.3f,\"speedup\":%.3f}",
                           util::to_string(mode), level, threads, ev_sv_ms, speedup);
            }
        }
    }

    // ---- Sighash-phase isolation ------------------------------------------
    // The template's delta with the ECDSA floor stripped away: per input
    // count, time producing every input's standard digest via the naive
    // re-serializing ebv_signature_hash vs the one rule the validators take
    // (core::TxSighashCache: a template per transaction, with the standard
    // digests batched through sha256d_many at two or more standard inputs).
    // The single-input row builds a template and streams its one digest
    // against one naive digest, so it reads parity.
    std::printf("\nSighash-phase isolation — %zu-tx batches, min of 5 reps\n",
                kPhaseTxs);
    std::printf("%-8s %12s %12s %10s\n", "inputs", "naive_ms", "template_ms",
                "speedup");
    bench::print_rule(46);

    for (const std::size_t inputs : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
        util::Rng rng(gen_options.seed + inputs);
        std::vector<core::EbvTransaction> txs;
        txs.reserve(kPhaseTxs);
        for (std::size_t t = 0; t < kPhaseTxs; ++t)
            txs.push_back(sighash_phase_tx(rng, inputs));

        std::uint8_t sink = 0;
        double naive_ms = 0, tpl_ms = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const auto& tx : txs)
                for (std::size_t i = 0; i < tx.inputs.size(); ++i)
                    sink ^= core::ebv_signature_hash(
                                tx, i, tx.inputs[i].els.outputs[0].lock_script, 0x01)
                                .bytes()[0];
            const auto t1 = std::chrono::steady_clock::now();
            for (const auto& tx : txs) {
                const core::TxSighashCache cache(tx);
                for (std::size_t i = 0; i < tx.inputs.size(); ++i)
                    sink ^= cache.digest(i, tx.inputs[i].els.outputs[0].lock_script, 0x01)
                                .bytes()[0];
            }
            const auto t2 = std::chrono::steady_clock::now();
            const double n_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
            const double t_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
            if (rep == 0 || n_ms < naive_ms) naive_ms = n_ms;
            if (rep == 0 || t_ms < tpl_ms) tpl_ms = t_ms;
        }
        if (sink == 0x5c) std::fputc('\0', stderr);  // keep the digests live
        const double speedup = tpl_ms > 0 ? naive_ms / tpl_ms : 0.0;
        std::printf("%-8zu %12.3f %12.3f %9.2fx\n", inputs, naive_ms, tpl_ms, speedup);
        report.row("{\"sighash_phase_inputs\":%zu,\"txs\":%zu,\"naive_ms\":%.4f,"
                   "\"template_ms\":%.4f,\"speedup\":%.3f,\"sha256_impl\":\"%s\","
                   "\"sha256_batch_impl\":\"%s\"}",
                   inputs, kPhaseTxs, naive_ms, tpl_ms, speedup, crypto::sha256_impl(),
                   crypto::sha256_batch_impl());
    }
    return 0;
}
