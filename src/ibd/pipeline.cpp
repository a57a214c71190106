#include "ibd/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "chain/amount.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace ebv::ibd {

namespace {

using core::EbvBlock;
using core::EbvError;
using core::EbvInput;
using core::EbvTransaction;
using core::EbvValidationFailure;
using core::EvStatus;

constexpr std::size_t kNoFail = std::numeric_limits<std::size_t>::max();

/// Registry handles of every `ebv.block.*`, `ebv.pool.*` and `ebv.ibd.*`
/// instrument, resolved once (values survive Registry::reset()).
struct EngineMetrics {
    obs::Counter& connects;
    obs::Counter& rejects;
    obs::Counter& txs;
    obs::Counter& inputs;
    obs::Counter& outputs;
    obs::Counter& proof_bytes;
    obs::Histogram& ev_ns;
    obs::Histogram& uv_ns;
    obs::Histogram& sv_ns;
    obs::Histogram& update_ns;
    obs::Histogram& other_ns;
    obs::Histogram& total_ns;
    obs::Histogram& sv_parallel_ns;
    obs::Counter& pool_tasks;
    obs::Histogram& pool_barrier_wait_ns;
    obs::Histogram& pool_wakeup_ns;
    obs::Counter& windows;
    obs::Histogram& window_occupancy;
    obs::Histogram& stall_ns;
    obs::Histogram& commit_ns;
    obs::Gauge& blocks_inflight;
    obs::Gauge& sha256_impl;

    static EngineMetrics& get() {
        obs::Registry& r = obs::Registry::global();
        static EngineMetrics m{
            r.counter("ebv.block.connects"),
            r.counter("ebv.block.rejects"),
            r.counter("ebv.block.txs"),
            r.counter("ebv.block.inputs"),
            r.counter("ebv.block.outputs"),
            r.counter("ebv.block.proof_bytes"),
            r.histogram("ebv.block.ev_ns"),
            r.histogram("ebv.block.uv_ns"),
            r.histogram("ebv.block.sv_ns"),
            r.histogram("ebv.block.update_ns"),
            r.histogram("ebv.block.other_ns"),
            r.histogram("ebv.block.total_ns"),
            r.histogram("ebv.block.sv_parallel_ns"),
            r.counter("ebv.pool.tasks"),
            r.histogram("ebv.pool.barrier_wait_ns"),
            r.histogram("ebv.pool.wakeup_ns"),
            r.counter("ebv.ibd.windows"),
            r.histogram("ebv.ibd.window_occupancy",
                        obs::Histogram::exponential_bounds(1, 2.0, 10)),
            r.histogram("ebv.ibd.stall_ns"),
            r.histogram("ebv.ibd.commit_ns"),
            r.gauge("ebv.ibd.blocks_inflight"),
            r.gauge("ebv.crypto.sha256_impl"),
        };
        return m;
    }
};

std::uint64_t spent_key(std::uint32_t height, std::uint32_t position) {
    return static_cast<std::uint64_t>(height) << 32 | position;
}

/// One input's fused EV+SV job, schedulable out of block order.
struct ProofJob {
    std::uint32_t block;        ///< window-relative block index
    std::uint32_t ordinal;      ///< input ordinal within its block
    std::uint32_t tx_index;
    std::uint32_t input_index;
};

struct Verdict {
    EvStatus ev = EvStatus::kOk;
    script::ScriptError script = script::ScriptError::kOk;
};

/// CAS-min holder that can live in a vector sized at runtime.
struct AtomicMin {
    std::atomic<std::size_t> value{kNoFail};
};

}  // namespace

BatchResult Pipeline::run(std::span<const core::EbvBlock> blocks) {
    return run(blocks, [](const core::EbvBlock&, std::uint32_t) {});
}

BatchResult Pipeline::run(std::span<const core::EbvBlock> blocks, CommitHook on_commit) {
    BatchResult result;
    util::Stopwatch run_watch;
    EngineMetrics& m = EngineMetrics::get();
    m.sha256_impl.set(crypto::sha256_impl_index());

    // Causal root for the whole run: every window span nests under it,
    // blocks under their window, worker-side EV/SV spans under their block
    // (see docs/OBSERVABILITY.md).
    obs::ScopedSpan run_span("ebv.ibd.run", "ibd");
    run_span.set_value(static_cast<std::int64_t>(blocks.size()));

    util::ThreadPool* const pool = options_.script_pool;
    const std::size_t slots = pool != nullptr ? pool->thread_count() : 1;
    const bool verify_scripts = options_.verify_scripts;

    std::size_t batch_index = 0;
    while (batch_index < blocks.size()) {
        const std::uint32_t window_base = static_cast<std::uint32_t>(headers_.size());
        const std::size_t window_len = std::min(window_, blocks.size() - batch_index);
        const std::span<const EbvBlock> window = blocks.subspan(batch_index, window_len);
        // This window's stage times (core::EbvTimings). Header install and
        // the commit hook are in no stage.
        core::EbvTimings timings;

        obs::ScopedSpan window_span("ebv.ibd.window", "ibd");
        window_span.set_value(window_base);
        const std::uint64_t window_span_id = window_span.span_id();
        const std::uint64_t trace_id = obs::current_context().trace_id;
        const bool tracing = window_span_id != 0;
        const bool trace_detail = obs::Tracer::global().detail();

        // ---- Stage 1: structural pass ---------------------------------------
        // Intra-block only, so running it for the whole window up front
        // cannot change any verdict a block-at-a-time loop would reach. The
        // window is truncated at the first structural failure; its tuple is
        // reported only if every earlier block commits. Three steps keep the
        // check order of core::check_block_structure: a serial shape pass
        // (plus the link to the previous block), a parallel pass hashing
        // every input body, and a serial fold of each block's Merkle root
        // from those hashes followed by its value check.
        util::Stopwatch stall_watch;
        std::size_t accepted = window_len;
        std::optional<EbvValidationFailure> structural_failure;
        {
            util::PhaseTimer timer(timings.other);
            for (std::size_t b = 0; b < window_len; ++b) {
                const crypto::Hash256 prev =
                    b == 0 ? headers_.tip_hash() : window[b - 1].header.hash();
                std::optional<EbvValidationFailure> failure;
                if (window[b].header.prev_hash != prev) {
                    failure = EbvValidationFailure{EbvError::kBadPrevHash};
                } else {
                    failure = core::check_block_shape(window[b], params_);
                }
                if (failure) {
                    structural_failure = failure;
                    accepted = b;
                    break;
                }
            }
        }

        // One job per input across all shape-valid blocks: the hash pass
        // writes input_hashes[j] for jobs[j], the proof pass runs fused
        // EV+SV for it. The coinbase has no inputs, so a block's jobs are
        // exactly its inputs in order.
        std::vector<ProofJob> jobs;
        std::vector<std::size_t> job_begin(accepted, 0);  // per block, into jobs[]
        for (std::size_t b = 0; b < accepted; ++b) {
            job_begin[b] = jobs.size();
            const EbvBlock& block = window[b];
            for (std::size_t t = 1; t < block.txs.size(); ++t) {
                for (std::size_t i = 0; i < block.txs[t].inputs.size(); ++i) {
                    jobs.push_back(ProofJob{
                        static_cast<std::uint32_t>(b),
                        static_cast<std::uint32_t>(jobs.size() - job_begin[b]),
                        static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(i)});
                }
            }
        }

        // Hash pass, also ranking each claim. Its wall time is `other`, not stall.
        util::PoolStats pool_before{};
        if (pool != nullptr) pool_before = pool->stats();
        std::vector<crypto::Hash256> input_hashes(jobs.size());
        std::vector<std::uint32_t> ranks(jobs.size());
        util::Nanoseconds hash_wall = 0;
        if (!jobs.empty()) {
            util::Stopwatch hash_watch;
            const auto hash_body = [&](std::size_t, std::size_t j) {
                const ProofJob& job = jobs[j];
                const EbvInput& in = window[job.block].txs[job.tx_index].inputs[job.input_index];
                input_hashes[j] = in.input_hash();
                ranks[j] = chain::claim_rank(core::input_scripts(in), job.block);
            };
            if (pool != nullptr) {
                pool->parallel_for_slots(jobs.size(), hash_body);
            } else {
                for (std::size_t j = 0; j < jobs.size(); ++j) hash_body(0, j);
            }
            hash_wall = hash_watch.elapsed_ns();
            timings.other.wall_ns += hash_wall;
        }

        // Root fold, then values, serial block order.
        {
            util::PhaseTimer timer(timings.other);
            for (std::size_t b = 0; b < accepted; ++b) {
                const EbvBlock& block = window[b];
                const std::span<const crypto::Hash256> hashes(
                    input_hashes.data() + job_begin[b], block.input_count());
                std::optional<EbvValidationFailure> failure;
                if (crypto::merkle_root(block.merkle_leaves(hashes)) !=
                    block.header.merkle_root) {
                    failure = EbvValidationFailure{EbvError::kMerkleRootMismatch};
                } else {
                    failure = core::check_block_values(block);
                }
                if (failure) {
                    structural_failure = failure;
                    accepted = b;
                    jobs.resize(job_begin[b]);
                    ranks.resize(job_begin[b]);
                    job_begin.resize(b);
                    break;
                }
            }
        }

        // Stage 2 runs the proof jobs through chain::claim_all: up to `slots`
        // claimers take them one at a time, block by block and each block's
        // costliest first (chain::claim_order), which keeps the pool balanced
        // at input grain. With a lane backend, a claimer's
        // PrefetchQueue holds each input until its signature verdicts are in,
        // kVerifyLanes at a time, then runs its script once (docs/PIPELINE.md).
        std::vector<Verdict> verdicts(jobs.size());
        std::vector<AtomicMin> ev_min(accepted);
        std::vector<AtomicMin> sv_min(accepted);
        std::atomic<std::size_t> min_fail_block{kNoFail};

        // Block spans get their ids up front: worker-side detail spans
        // parent under them while the blocks are still mid-validation; the
        // spans themselves are recorded at stage-3 resolution, which is fine
        // — exporters don't require parents to be recorded first.
        std::vector<std::uint64_t> block_span_ids(tracing ? accepted : 0);
        if (tracing)
            for (auto& id : block_span_ids) id = obs::next_span_id();

        std::vector<std::uint64_t> ev_busy(slots, 0);

        // Per-transaction sighash caches (core::TxSighashCache), lazily
        // built by whichever worker first reaches one of the transaction's
        // inputs and shared by the rest across the window's parallel pass.
        std::vector<std::vector<std::optional<core::TxSighashCache>>> caches(
            verify_scripts ? accepted : 0);
        std::vector<std::unique_ptr<std::once_flag[]>> cache_once(verify_scripts ? accepted : 0);
        if (verify_scripts) {
            for (std::size_t b = 0; b < accepted; ++b) {
                caches[b].resize(window[b].txs.size());
                cache_once[b] = std::make_unique<std::once_flag[]>(window[b].txs.size());
            }
        }

        // Worker-side detail spans (per input), recorded with an
        // explicit parent because the enclosing block's span is still open
        // on the submitting thread. Gated behind the tracer's detail flag.
        const auto record_detail = [&](const char* name, const char* category,
                                       std::uint64_t parent, util::Nanoseconds ns,
                                       std::int64_t value) {
            obs::Span span;
            span.name = name;
            span.category = category;
            span.trace_id = trace_id;
            span.span_id = obs::next_span_id();
            span.parent_id = parent;
            span.wall_ns = ns;
            span.start_ns = obs::Tracer::now_ns() - ns;
            span.value = value;
            obs::Tracer::global().record(std::move(span));
        };

        // The transaction's cache from `caches`, built on first use; its
        // construction counts as SV time.
        const auto sighash_cache = [&](const ProofJob& job) -> const core::TxSighashCache& {
            std::optional<core::TxSighashCache>& cache = caches[job.block][job.tx_index];
            std::call_once(cache_once[job.block][job.tx_index],
                           [&] { cache.emplace(window[job.block].txs[job.tx_index]); });
            return *cache;
        };

        // SV for proof job j, reading `memo` once its verdicts are all in.
        const auto check_sv = [&](std::size_t j, std::span<chain::SigMemo> memos) {
            const ProofJob& job = jobs[j];
            if (job.ordinal > sv_min[job.block].value.load(std::memory_order_relaxed)) return;
            util::Stopwatch watch;
            const script::ScriptError err = core::sv_check_input(
                window[job.block].txs[job.tx_index], job.input_index, sighash_cache(job),
                options_.sigcache, memos.data());
            if (trace_detail)
                record_detail("ebv.sv.input", "sv", block_span_ids[job.block],
                              watch.elapsed_ns(), job.ordinal);
            if (err == script::ScriptError::kOk) return;
            verdicts[j].script = err;
            util::atomic_min(sv_min[job.block].value, job.ordinal);
            util::atomic_min(min_fail_block, job.block);
        };

        // EV, then SV, for proof job j, possibly out of block order. A job
        // may be skipped only when a *lower* (block, ordinal) failure is
        // already recorded: the minima only ever decrease, so every verdict
        // the resolution pass reads was fully evaluated regardless of
        // thread count. The claimer's `queue` runs the script, at once or
        // once the input's prefetched verdicts are in.
        const auto check_proof = [&](std::size_t slot, std::size_t j,
                                     chain::PrefetchQueue& queue) {
            const ProofJob& job = jobs[j];
            if (job.block > min_fail_block.load(std::memory_order_relaxed)) return;
            std::atomic<std::size_t>& block_ev_min = ev_min[job.block].value;
            if (job.ordinal > block_ev_min.load(std::memory_order_relaxed)) return;

            const EbvInput& in = window[job.block].txs[job.tx_index].inputs[job.input_index];
            const std::uint32_t spending_height =
                window_base + static_cast<std::uint32_t>(job.block);

            // Inter-block dependency: heights inside the window resolve to
            // pending (structurally-checked, not-yet-committed) headers.
            const chain::BlockHeader* header = nullptr;
            if (in.height < window_base) {
                header = headers_.at(in.height);
            } else if (in.height < spending_height) {
                header = &window[in.height - window_base].header;
            }

            util::Stopwatch watch;
            const EvStatus ev = core::ev_check_input(in, header, spending_height);
            const auto ev_ns = watch.elapsed_ns();
            ev_busy[slot] += static_cast<std::uint64_t>(ev_ns);
            if (trace_detail)
                record_detail("ebv.ev.input", "ev", block_span_ids[job.block], ev_ns,
                              job.ordinal);
            if (ev != EvStatus::kOk) {
                verdicts[j].ev = ev;
                util::atomic_min(block_ev_min, job.ordinal);
                util::atomic_min(min_fail_block, job.block);
                return;
            }

            // SV, fused into the same job while the input is cache-hot.
            if (!verify_scripts) return;
            if (job.ordinal > sv_min[job.block].value.load(std::memory_order_relaxed)) return;
            const chain::InputScripts scripts = core::input_scripts(in);
            queue.hold(j, {&scripts, 1}, job.input_index, sighash_cache(job), options_.sigcache);
        };

        // ---- Stage 2: one parallel region -----------------------------------
        m.windows.inc();
        m.window_occupancy.observe(static_cast<std::uint64_t>(accepted));
        m.blocks_inflight.set(static_cast<std::int64_t>(accepted));
        const std::int64_t stall_before_pass = stall_watch.elapsed_ns() - hash_wall;

        std::vector<std::uint64_t> slot_busy_before;
        if (pool != nullptr && tracing) slot_busy_before = pool->slot_busy_ns();
        const util::Nanoseconds pass_start_ns = tracing ? obs::Tracer::now_ns() : 0;
        util::Stopwatch pass_watch;
        std::vector<util::Nanoseconds> slot_ns;
        try {
            slot_ns = chain::claim_all(pool, chain::claim_order(ranks), check_proof, check_sv);
        } catch (...) {
            m.blocks_inflight.set(0);
            throw;
        }
        const util::Nanoseconds pass_wall = pass_watch.elapsed_ns();
        if (pool != nullptr) {
            const util::PoolStats pool_after = pool->stats();
            m.pool_tasks.inc(pool_after.tasks - pool_before.tasks);
            m.pool_barrier_wait_ns.observe(pool_after.barrier_wait_ns -
                                           pool_before.barrier_wait_ns);
            m.pool_wakeup_ns.observe(pool_after.wakeup_ns - pool_before.wakeup_ns);
            if (tracing) {
                obs::Tracer& tracer = obs::Tracer::global();
                // Dedicated counter tracks: queue latency this pass and each
                // slot's utilization (busy/wall, percent) over the pass.
                const std::uint64_t wakeups = pool_after.wakeups - pool_before.wakeups;
                if (wakeups > 0)
                    tracer.record_counter(
                        "ebv.pool.wakeup_us",
                        static_cast<std::int64_t>(
                            (pool_after.wakeup_ns - pool_before.wakeup_ns) / wakeups /
                            1000));
                const std::vector<std::uint64_t> slot_busy_after = pool->slot_busy_ns();
                for (std::size_t s = 0;
                     s < slot_busy_after.size() && s < slot_busy_before.size() &&
                     pass_wall > 0;
                     ++s) {
                    const std::uint64_t busy = slot_busy_after[s] - slot_busy_before[s];
                    char track[48];
                    std::snprintf(track, sizeof track, "ebv.pool.util_pct.slot%zu", s);
                    tracer.record_counter(
                        track, static_cast<std::int64_t>(
                                   100.0 * static_cast<double>(busy) /
                                   static_cast<double>(pass_wall)));
                }
            }
        }

        // Apportion the pass's wall time across EV / SV in proportion to
        // per-slot busy time, so EbvTimings::total() stays wall-clock. A
        // slot's SV time is its claimers' busy time less its EV time.
        {
            std::uint64_t ev_total = 0;
            std::uint64_t sv_total = 0;
            for (std::size_t s = 0; s < slots; ++s) {
                const auto busy = static_cast<std::uint64_t>(slot_ns[s]);
                const std::uint64_t sv_busy =
                    verify_scripts && busy > ev_busy[s] ? busy - ev_busy[s] : 0;
                ev_total += ev_busy[s];
                sv_total += sv_busy;
                if (sv_busy > 0) m.sv_parallel_ns.observe(sv_busy);
            }
            const std::uint64_t busy_total = ev_total + sv_total;
            if (busy_total > 0) {
                const auto ev_share = static_cast<util::Nanoseconds>(
                    static_cast<double>(pass_wall) * static_cast<double>(ev_total) /
                    static_cast<double>(busy_total));
                timings.ev.wall_ns += ev_share;
                timings.sv.wall_ns += pass_wall - ev_share;
            }
        }

        // ---- Stage 3: resolve + commit, serial block order -----------------
        // Walks each block's inputs in order, interleaving the parallel
        // pass's EV verdicts with UV, maturity and value rules, so the first
        // failure is the same at every window size.
        stall_watch.restart();
        for (std::size_t b = 0; b < accepted; ++b) {
            const EbvBlock& block = window[b];
            const std::uint32_t height = window_base + static_cast<std::uint32_t>(b);
            const std::size_t jobs_in_block =
                (b + 1 < accepted ? job_begin[b + 1] : jobs.size()) - job_begin[b];

            const auto fail = [&](EbvError error, std::size_t t, std::size_t i,
                                  script::ScriptError script = script::ScriptError::kOk) {
                result.failure = PipelineFailure{
                    batch_index + b, height, EbvValidationFailure{error, t, i, script}};
            };

            std::unordered_set<std::uint64_t> spent_in_block;
            chain::Amount total_fees = 0;
            std::size_t j = job_begin[b];
            for (std::size_t t = 1; t < block.txs.size() && !result.failure; ++t) {
                const EbvTransaction& tx = block.txs[t];
                chain::Amount value_in = 0;
                for (std::size_t i = 0; i < tx.inputs.size(); ++i, ++j) {
                    const EbvInput& in = tx.inputs[i];
                    if (verdicts[j].ev != EvStatus::kOk) {
                        fail(core::to_ebv_error(verdicts[j].ev), t, i);
                        break;
                    }
                    {
                        // UV: the bit at the authenticated absolute position
                        // must still be 1. Earlier blocks, of this window
                        // too, applied their spends at their commit.
                        util::PhaseTimer timer(timings.uv);
                        const std::uint32_t position = in.absolute_position();
                        if (!spent_in_block.insert(spent_key(in.height, position)).second) {
                            fail(EbvError::kDoubleSpendInBlock, t, i);
                            break;
                        }
                        if (!status_.check_unspent(in.height, position)) {
                            fail(EbvError::kUnspentFailed, t, i);
                            break;
                        }
                    }
                    util::PhaseTimer timer(timings.other);
                    if (in.els.is_coinbase() &&
                        height < in.height + params_.coinbase_maturity) {
                        fail(EbvError::kImmatureCoinbaseSpend, t, i);
                        break;
                    }
                    // Guarded accumulation: the referenced values are
                    // EV-authenticated, but nothing bounds their *sum* —
                    // unchecked += is the classic inflation overflow.
                    if (!chain::add_money(value_in, in.els.outputs[in.out_index].value)) {
                        fail(EbvError::kValueOutOfRange, t, i);
                        break;
                    }
                }
                if (result.failure) break;
                util::PhaseTimer timer(timings.other);
                const chain::Amount value_out = tx.total_output_value();
                if (value_in < value_out) {
                    fail(EbvError::kNegativeFee, t, 0);
                } else if (!chain::add_money(total_fees, value_in - value_out)) {
                    fail(EbvError::kValueOutOfRange, t, 0);
                }
            }
            if (result.failure) break;

            {
                util::PhaseTimer timer(timings.other);
                const chain::Amount allowed = params_.subsidy_at(height) + total_fees;
                if (block.txs[0].total_output_value() > allowed) {
                    fail(EbvError::kCoinbaseValueTooHigh, 0, 0);
                    break;
                }
            }

            // SV verdicts resolve last, as their own phase.
            if (verify_scripts) {
                const std::size_t sj = sv_min[b].value.load(std::memory_order_relaxed);
                if (sj < jobs_in_block) {
                    const ProofJob& sv_job = jobs[job_begin[b] + sj];
                    fail(EbvError::kScriptFailure, sv_job.tx_index, sv_job.input_index,
                         verdicts[job_begin[b] + sj].script);
                    break;
                }
            }

            // Commit (block storage, §IV-E): install the status vector and
            // clear the bit of every output the block spends. UV passed for
            // each, so every spend succeeds.
            {
                util::Stopwatch watch;
                status_.insert_block(height, static_cast<std::uint32_t>(block.output_count()));
                for (std::size_t t = 1; t < block.txs.size(); ++t) {
                    for (const EbvInput& in : block.txs[t].inputs) {
                        const bool spent =
                            status_.spend(in.height, in.absolute_position()).has_value();
                        EBV_ENSURES(spent);
                    }
                }
                const util::Nanoseconds commit_ns = watch.elapsed_ns();
                timings.update.wall_ns += commit_ns;
                m.commit_ns.observe(static_cast<std::uint64_t>(commit_ns));
            }
            const bool linked = headers_.append(block.header);
            EBV_ENSURES(linked);
            on_commit(block, height);

            if (tracing) {
                // The block's causal interval: from the start of the parallel
                // pass that validated its inputs to its commit here. Recorded
                // with the pre-allocated id its worker spans parented under.
                obs::Span block_span;
                block_span.name = "ebv.ibd.block";
                block_span.category = "block";
                block_span.trace_id = trace_id;
                block_span.span_id = block_span_ids[b];
                block_span.parent_id = window_span_id;
                block_span.start_ns = pass_start_ns;
                block_span.wall_ns = obs::Tracer::now_ns() - pass_start_ns;
                block_span.value = height;
                obs::Tracer::global().record(std::move(block_span));
            }

            std::uint64_t proof_bytes = 0;
            for (std::size_t t = 1; t < block.txs.size(); ++t)
                for (const EbvInput& in : block.txs[t].inputs)
                    proof_bytes += in.mbr.byte_size() + in.els.serialized_size();
            ++result.connected;
            timings.inputs += block.input_count();
            timings.outputs += block.output_count();
            m.connects.inc();
            m.txs.inc(block.txs.size());
            m.inputs.inc(block.input_count());
            m.outputs.inc(block.output_count());
            m.proof_bytes.inc(proof_bytes);
        }

        // A structural failure is reported only when every block before it
        // committed — otherwise the earlier resolution failure won, exactly
        // as in a block-at-a-time loop.
        if (!result.failure && structural_failure.has_value()) {
            result.failure = PipelineFailure{batch_index + accepted,
                                             window_base + static_cast<std::uint32_t>(accepted),
                                             *structural_failure};
        }
        if (result.failure) m.rejects.inc();
        m.stall_ns.observe(
            static_cast<std::uint64_t>(stall_before_pass + stall_watch.elapsed_ns()));
        m.blocks_inflight.set(0);

        batch_index += window_len;

        m.ev_ns.observe(static_cast<std::uint64_t>(timings.ev.total_ns()));
        m.uv_ns.observe(static_cast<std::uint64_t>(timings.uv.total_ns()));
        m.sv_ns.observe(static_cast<std::uint64_t>(timings.sv.total_ns()));
        m.update_ns.observe(static_cast<std::uint64_t>(timings.update.total_ns()));
        m.other_ns.observe(static_cast<std::uint64_t>(timings.other.total_ns()));
        m.total_ns.observe(static_cast<std::uint64_t>(timings.total().total_ns()));
        if (tracing) {
            // Post-hoc stage aggregates, children of the window span.
            obs::Tracer& tracer = obs::Tracer::global();
            tracer.record("ebv.block.ev", timings.ev);
            tracer.record("ebv.block.uv", timings.uv);
            tracer.record("ebv.block.sv", timings.sv);
            tracer.record("ebv.block.update", timings.update);
            tracer.record("ebv.block.total", timings.total());
        }
        result.timings += timings;
        if (result.failure) break;
    }

    result.wall_ns = static_cast<std::uint64_t>(run_watch.elapsed_ns());
    return result;
}

}  // namespace ebv::ibd
