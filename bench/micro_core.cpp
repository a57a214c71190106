// Microbenchmarks for the EBV core: the UV primitive (bit tests against
// dense and sparse vectors), the sparse-encoding ablation, proof
// verification, and serial-vs-pooled script validation (the paper's
// "optimize SV" future-work direction, implemented here as an extension).
#include <benchmark/benchmark.h>

#include "core/bitvector.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "crypto/ecdsa.hpp"
#include "obs/trace.hpp"
#include "script/interpreter.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ebv;

core::BitVector vector_with_ones(std::uint32_t size, std::uint32_t ones,
                                 std::uint64_t seed) {
    core::BitVector v = core::BitVector::all_ones(size);
    util::Rng rng(seed);
    while (v.ones() > ones) {
        v.reset(static_cast<std::uint32_t>(rng.below(size)));
    }
    return v;
}

// UV on a dense vector (early-life block).
void BM_BitVectorTestDense(benchmark::State& state) {
    const core::BitVector v = vector_with_ones(4096, 3000, 1);
    util::Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(v.test(static_cast<std::uint32_t>(rng.below(4096))));
    }
}
BENCHMARK(BM_BitVectorTestDense);

// UV on a sparse vector (old, mostly-spent block) — binary search.
void BM_BitVectorTestSparse(benchmark::State& state) {
    const core::BitVector v = vector_with_ones(4096, 50, 3);
    util::Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(v.test(static_cast<std::uint32_t>(rng.below(4096))));
    }
}
BENCHMARK(BM_BitVectorTestSparse);

void BM_BitVectorSerialize(benchmark::State& state) {
    const core::BitVector v =
        vector_with_ones(4096, static_cast<std::uint32_t>(state.range(0)), 5);
    for (auto _ : state) {
        util::Writer w;
        v.serialize(w);
        benchmark::DoNotOptimize(w.data());
    }
    state.counters["bytes"] = static_cast<double>(v.memory_bytes());
}
BENCHMARK(BM_BitVectorSerialize)->Arg(4096)->Arg(500)->Arg(50);

void BM_BitVectorSetSpend(benchmark::State& state) {
    core::BitVectorSet set;
    const std::uint32_t heights = 1000;
    for (std::uint32_t h = 0; h < heights; ++h) set.insert_block(h, 512);
    util::Rng rng(6);
    for (auto _ : state) {
        const auto h = static_cast<std::uint32_t>(rng.below(heights));
        const auto p = static_cast<std::uint32_t>(rng.below(512));
        benchmark::DoNotOptimize(set.check_unspent(h, p));
    }
}
BENCHMARK(BM_BitVectorSetSpend);

// Full EV: leaf hash of a realistic tidy transaction + branch fold.
void BM_ExistenceValidation(benchmark::State& state) {
    util::Rng rng(7);
    core::TidyTransaction tidy;
    tidy.input_hashes.resize(2);
    rng.fill({tidy.input_hashes[0].bytes().data(), 32});
    rng.fill({tidy.input_hashes[1].bytes().data(), 32});
    const auto key = crypto::PrivateKey::generate(rng);
    tidy.outputs.push_back(chain::TxOut{100, script::make_p2pkh(key.public_key().id())});
    tidy.outputs.push_back(chain::TxOut{200, script::make_p2pkh(key.public_key().id())});
    tidy.stake_position = 77;

    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    leaves[3] = tidy.leaf_hash();
    const auto root = crypto::merkle_root(leaves);
    const auto branch = crypto::merkle_branch(leaves, 3);

    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::fold_branch(tidy.leaf_hash(), branch) == root);
    }
}
BENCHMARK(BM_ExistenceValidation)->Arg(64)->Arg(1024);

// Serial vs pooled P2PKH script verification — the SV-optimization
// extension measured directly.
void BM_ScriptVerifyBatch(benchmark::State& state) {
    util::Rng rng(8);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto lock = script::make_p2pkh(key.public_key().id());

    core::EbvTransaction tx;
    core::EbvInput in;
    rng.fill({in.prevout.txid.bytes().data(), 32});
    in.els.outputs.push_back(chain::TxOut{100, lock});
    tx.inputs.push_back(in);
    tx.outputs.push_back(chain::TxOut{90, lock});
    const auto digest = core::ebv_signature_hash(tx, 0, lock, 0x01);
    util::Bytes sig = key.sign(digest).to_der();
    sig.push_back(0x01);
    tx.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, key.public_key());

    const std::size_t batch = 32;
    const bool pooled = state.range(0) != 0;
    util::ThreadPool pool(pooled ? 0 : 1);

    for (auto _ : state) {
        const core::TxSighashCache cache(tx);
        chain::SigChecker checker(cache, 0);
        if (pooled && pool.thread_count() > 0) {
            pool.parallel_for(batch, [&](std::size_t) {
                benchmark::DoNotOptimize(
                    script::verify_script(tx.inputs[0].unlock_script, lock, checker));
            });
        } else {
            for (std::size_t i = 0; i < batch; ++i) {
                benchmark::DoNotOptimize(
                    script::verify_script(tx.inputs[0].unlock_script, lock, checker));
            }
        }
    }
    state.counters["sigs_per_iter"] = batch;
}
BENCHMARK(BM_ScriptVerifyBatch)->Arg(0)->Arg(1);

// Proof size vs ancestry depth — constant by design (tidy transactions).
void BM_ProofSerializedSize(benchmark::State& state) {
    util::Rng rng(9);
    core::EbvInput in;
    in.els.input_hashes.resize(static_cast<std::size_t>(state.range(0)));
    for (auto& h : in.els.input_hashes) rng.fill({h.bytes().data(), 32});
    const auto key = crypto::PrivateKey::generate(rng);
    in.els.outputs.push_back(chain::TxOut{5, script::make_p2pkh(key.public_key().id())});
    in.mbr.siblings.resize(11);  // ~2048-leaf block
    for (auto _ : state) {
        benchmark::DoNotOptimize(in.serialized_size());
    }
    state.counters["proof_bytes"] = static_cast<double>(in.serialized_size());
}
BENCHMARK(BM_ProofSerializedSize)->Arg(1)->Arg(4)->Arg(16);

// Disabled-path span overhead: hot validation paths carry always-on
// ScopedSpan instrumentation, so the inert path (one relaxed atomic load,
// no id allocation, no clock reads) must stay within a few ns. The
// obs_trace_tree_test DisabledSpanStaysCheap test asserts the same bound.
void BM_TraceDisabled(benchmark::State& state) {
    obs::Tracer& tracer = obs::Tracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.set_enabled(false);
    for (auto _ : state) {
        obs::ScopedSpan span("micro.trace.disabled", "bench");
        benchmark::DoNotOptimize(&span);
    }
    tracer.set_enabled(was_enabled);
}
BENCHMARK(BM_TraceDisabled);

// Enabled comparison point: id allocation, two clock reads, context push,
// and the ring's mutex. Keeps the cost of `detail` instrumentation honest.
void BM_TraceEnabled(benchmark::State& state) {
    obs::Tracer& tracer = obs::Tracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.set_enabled(true);
    for (auto _ : state) {
        obs::ScopedSpan span("micro.trace.enabled", "bench");
        benchmark::DoNotOptimize(&span);
    }
    tracer.clear();
    tracer.set_enabled(was_enabled);
}
BENCHMARK(BM_TraceEnabled);

}  // namespace

BENCHMARK_MAIN();
