// Reproduces Fig 17a/17b: cumulative IBD time per 50k-block period,
// baseline vs EBV, over several repetitions (the paper uses 5 and draws
// boxplots), plus EBV's EV/UV/SV/others breakdown.
//
// Paper findings to reproduce: EBV reduces IBD time (−38.5 % at 650k), the
// gap widens with chain length, repetition variance is small, and SV
// dominates EBV's IBD time.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

using namespace ebv;

int main() {
    bench::JsonReport report("fig17_ibd_compare");
    const auto blocks = static_cast<std::uint32_t>(bench::env_u64("EBV_BLOCKS", 1300));
    const auto reps = static_cast<std::uint32_t>(bench::env_u64("EBV_REPS", 3));
    if (blocks == 0) {
        std::fprintf(stderr, "fig17: EBV_BLOCKS must be >= 1\n");
        report.aborted("EBV_BLOCKS=0");
        return 1;
    }
    // Fewer blocks than the paper's 13 periods would make period_len 0 and
    // skip every block; clamp so tiny smoke runs still measure something.
    std::uint32_t periods = 13;
    if (blocks < periods) {
        std::fprintf(stderr,
                     "fig17: EBV_BLOCKS=%u < 13; clamping periods to %u "
                     "(one block per period)\n",
                     blocks, blocks);
        periods = blocks;
    }
    const std::uint32_t period_len = blocks / periods;

    workload::GeneratorOptions gen_options;
    gen_options.seed = bench::env_u64("EBV_SEED", 42);
    gen_options.signed_mode = true;
    gen_options.height_scale = 650'000.0 / blocks;
    gen_options.intensity = bench::env_double("EBV_INTENSITY", 0.2);

    std::fprintf(stderr, "fig17: generating %u signed blocks...\n", blocks);
    const bench::ChainData chain = bench::build_chain(gen_options, blocks);
    std::fprintf(stderr, "fig17: converting...\n");
    const auto ebv_chain = bench::convert_chain(chain);

    // Cumulative IBD time at each period boundary, per repetition.
    std::vector<std::vector<double>> btc_cumulative(reps), ebv_cumulative(reps);
    core::EbvTimings ebv_breakdown{};

    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        std::fprintf(stderr, "fig17: repetition %u/%u\n", rep + 1, reps);
        bench::TempDir dir("fig17_r" + std::to_string(rep));
        chain::BitcoinNode btc_node(
            bench::baseline_options(chain, dir, /*verify_scripts=*/true));
        core::EbvNodeOptions ebv_options;
        ebv_options.params = gen_options.params;
        core::EbvNode ebv_node(ebv_options);

        double btc_total = 0;
        double ebv_total = 0;
        for (std::uint32_t p = 0; p < periods; ++p) {
            for (std::uint32_t i = p * period_len;
                 i < std::min<std::uint32_t>((p + 1) * period_len, blocks); ++i) {
                auto rb = btc_node.submit_block(chain.blocks[i]);
                auto re = ebv_node.submit_block(ebv_chain[i]);
                if (!rb || !re) {
                    std::fprintf(stderr, "rejection at block %u\n", i);
                    report.aborted("block rejected during IBD replay");
                    return 1;
                }
                btc_total += bench::ms(rb->total());
                ebv_total += bench::ms(re->total());
                if (rep == 0) ebv_breakdown += *re;
            }
            btc_cumulative[rep].push_back(btc_total);
            ebv_cumulative[rep].push_back(ebv_total);
        }
    }

    auto stats = [](std::vector<std::vector<double>>& runs, std::uint32_t p) {
        std::vector<double> v;
        for (auto& run : runs) v.push_back(run[p]);
        std::sort(v.begin(), v.end());
        struct S {
            double min, median, max;
        };
        return S{v.front(), v[v.size() / 2], v.back()};
    };

    std::printf("Fig 17a — cumulative IBD time at each period boundary (ms, %u reps)\n",
                reps);
    std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "height", "btc-min",
                "btc-med", "btc-max", "ebv-min", "ebv-med", "ebv-max", "reduction");
    bench::print_rule(88);
    double final_reduction = 0;
    for (std::uint32_t p = 0; p < periods; ++p) {
        const auto b = stats(btc_cumulative, p);
        const auto e = stats(ebv_cumulative, p);
        const double reduction =
            b.median > 0 ? 100.0 * (1.0 - e.median / b.median) : 0.0;
        final_reduction = reduction;
        char label[16];
        std::snprintf(label, sizeof label, "%uk", (p + 1) * 50);
        std::printf("%-10s %10.0f %10.0f %10.0f %10.0f %10.0f %10.0f %9.1f%%\n", label,
                    b.min, b.median, b.max, e.min, e.median, e.max, reduction);
        report.row("{\"period\":\"%s\",\"btc_median_ms\":%.1f,\"ebv_median_ms\":%.1f,"
                   "\"reduction_pct\":%.1f}",
                   label, b.median, e.median, reduction);
    }

    std::printf("\nFig 17b — EBV IBD time breakdown (ms, repetition 1)\n");
    std::printf("%10s %10s %10s %10s %10s\n", "EV", "UV", "SV", "others", "total");
    bench::print_rule(56);
    std::printf("%10.1f %10.1f %10.1f %10.1f %10.1f\n", bench::ms(ebv_breakdown.ev),
                bench::ms(ebv_breakdown.uv), bench::ms(ebv_breakdown.sv),
                bench::ms(ebv_breakdown.others_combined()),
                bench::ms(ebv_breakdown.total()));

    bench::print_rule(56);
    std::printf("IBD reduction at the final height: %.1f%% (paper: 38.5%%); EV+UV are\n"
                "small fractions and SV dominates, as in the paper.\n",
                final_reduction);

    // ---- Fig 17c (extension) — inter-block pipelined IBD vs serial ---------
    // Wall-clock for the whole EBV chain: a single-threaded submit_block
    // loop (the engine at window 1) vs submit_blocks at the configured
    // window across a thread sweep. Accept/reject parity across windows and
    // threads is covered by ibd_pipeline_test; here we double-check
    // connected counts and report the measured speedup.
    const auto window =
        static_cast<std::size_t>(bench::env_u64("EBV_PIPELINE_WINDOW", 16));
    std::printf("\nFig 17c — pipelined IBD (ebv::ibd, window=%zu) vs serial loop\n",
                window);
    std::printf("%-12s %8s %8s %12s %9s\n", "mode", "threads", "window", "ibd-ms",
                "speedup");
    bench::print_rule(54);

    double serial_ms = 0;
    {
        core::EbvNodeOptions options;
        options.params = gen_options.params;
        core::EbvNode node(options);
        util::Stopwatch watch;
        for (std::uint32_t i = 0; i < blocks; ++i) {
            if (!node.submit_block(ebv_chain[i])) {
                std::fprintf(stderr, "serial rejection at block %u\n", i);
                report.aborted("block rejected in serial IBD pass");
                return 1;
            }
        }
        serial_ms = util::to_ms(watch.elapsed_ns());
        std::printf("%-12s %8u %8u %12.1f %8.2fx\n", "serial", 1, 1, serial_ms, 1.0);
        report.row("{\"mode\":\"serial\",\"threads\":1,\"window\":1,"
                   "\"ibd_ms\":%.1f,\"speedup\":1.00}",
                   serial_ms);
    }

    for (const std::size_t threads : bench::env_thread_sweep()) {
        util::ThreadPool pool(threads);
        core::EbvNodeOptions options;
        options.params = gen_options.params;
        options.validator.script_pool = &pool;
        options.pipeline.enabled = true;
        options.pipeline.window = window;
        core::EbvNode node(options);

        const ibd::BatchResult result = node.submit_blocks(ebv_chain);
        if (!result.ok() || result.connected != blocks) {
            std::fprintf(stderr, "pipelined rejection (threads=%zu): %s\n", threads,
                         result.failure ? result.failure->failure.describe().c_str()
                                        : "not every block connected");
            report.aborted("block rejected in pipelined IBD pass");
            return 1;
        }
        const double pipe_ms = util::to_ms(static_cast<util::Nanoseconds>(result.wall_ns));
        const double speedup = pipe_ms > 0 ? serial_ms / pipe_ms : 0.0;
        std::printf("%-12s %8zu %8zu %12.1f %8.2fx\n", "pipelined", threads, window,
                    pipe_ms, speedup);
        report.row("{\"mode\":\"pipelined\",\"threads\":%zu,\"window\":%zu,"
                   "\"ibd_ms\":%.1f,\"speedup\":%.2f}",
                   threads, window, pipe_ms, speedup);
    }
    return 0;
}
