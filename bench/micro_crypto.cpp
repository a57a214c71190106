// Microbenchmarks for the crypto substrate: the primitives whose costs set
// the EV (Merkle) and SV (ECDSA) components of block validation.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "chain/sighash.hpp"
#include "chain/sighash_template.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/parse_memo.hpp"
#include "crypto/scalar.hpp"
#include "crypto/field.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace ebv;

void BM_Sha256(benchmark::State& state) {
    util::Rng rng(1);
    util::Bytes data(static_cast<std::size_t>(state.range(0)));
    rng.fill(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

// The Merkle interior-node primitive, batched: n independent 64-byte
// messages double-hashed per call. Compare scalar vs sse2 vs avx2 with
// EBV_SHA256_IMPL, or watch the auto-dispatched throughput scale with n.
void BM_Sha256d64Many(benchmark::State& state) {
    util::Rng rng(8);
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Bytes in(n * 64);
    rng.fill(in);
    util::Bytes out(n * 32);
    for (auto _ : state) {
        crypto::sha256d64_many(out.data(), in.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n) * 64);
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sha256d64Many)->Arg(1)->Arg(4)->Arg(8)->Arg(64)->Arg(1024);

// Variable-length batch (the EBV leaf / txid shape): n messages of mixed
// sizes double-hashed via the sort-by-block-count batcher.
void BM_Sha256dMany(benchmark::State& state) {
    util::Rng rng(9);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<util::Bytes> msgs(n);
    std::vector<util::ByteSpan> spans(n);
    for (std::size_t i = 0; i < n; ++i) {
        msgs[i].resize(100 + (i % 7) * 60);  // tx-sized, a few block counts
        rng.fill(msgs[i]);
        spans[i] = msgs[i];
    }
    std::vector<crypto::Sha256::Digest> out(n);
    for (auto _ : state) {
        crypto::sha256d_many(spans.data(), out.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sha256dMany)->Arg(8)->Arg(64)->Arg(1024);

void BM_MerkleRoot(benchmark::State& state) {
    util::Rng rng(2);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::merkle_root(leaves));
    }
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(2048);

void BM_MerkleBranchBuild(benchmark::State& state) {
    util::Rng rng(3);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::merkle_branch(leaves, static_cast<std::uint32_t>(leaves.size() / 2)));
    }
}
BENCHMARK(BM_MerkleBranchBuild)->Arg(256)->Arg(2048);

// The EV primitive: fold a branch and compare with the root.
void BM_MerkleBranchVerify(benchmark::State& state) {
    util::Rng rng(4);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    const auto root = crypto::merkle_root(leaves);
    const auto branch =
        crypto::merkle_branch(leaves, static_cast<std::uint32_t>(leaves.size() / 2));
    const auto leaf = leaves[leaves.size() / 2];
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::fold_branch(leaf, branch) == root);
    }
}
BENCHMARK(BM_MerkleBranchVerify)->Arg(16)->Arg(256)->Arg(2048);

// ---- Unit costs under ECDSA: field and scalar arithmetic ---------------------
// Each iteration depends on the previous result, so these are latencies.

crypto::U256 bench_u256(std::uint64_t seed) {
    util::Rng rng(seed);
    crypto::U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

// Limb-wise on the lazily reduced type. The sum is left unreduced, so it
// cannot feed the next iteration: this is a throughput, not a latency.
void BM_FieldAdd(benchmark::State& state) {
    const crypto::secp256k1::FieldElement a(bench_u256(25));
    crypto::secp256k1::FieldElement b(bench_u256(26));
    for (auto _ : state) {
        benchmark::DoNotOptimize(b);
        benchmark::DoNotOptimize(a + b);
    }
}
BENCHMARK(BM_FieldAdd);

void BM_FieldMul(benchmark::State& state) {
    crypto::secp256k1::FieldElement a(bench_u256(20));
    const crypto::secp256k1::FieldElement b(bench_u256(21));
    for (auto _ : state) {
        a = a * b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FieldMul);

// The 8-lane product of crypto::verify_lanes (IFMA when the CPU has it,
// else the portable backend): chains of 64 dependent products per lane,
// reported per lane-product, so the rate compares with BM_FieldMul's.
const char* lanes_backend() {
    if (!crypto::lanes_enabled()) crypto::lanes_force_impl("portable");
    return crypto::lanes_impl();
}

void BM_FieldMulLanes(benchmark::State& state) {
    state.SetLabel(lanes_backend());
    std::uint64_t a[5][crypto::kVerifyLanes];
    std::uint64_t b[5][crypto::kVerifyLanes];
    for (std::size_t lane = 0; lane < crypto::kVerifyLanes; ++lane) {
        const crypto::secp256k1::FieldElement x(bench_u256(30 + lane));
        const crypto::secp256k1::FieldElement y(bench_u256(40 + lane));
        for (int l = 0; l < 5; ++l) {
            a[l][lane] = x.limbs()[l];
            b[l][lane] = y.limbs()[l];
        }
    }
    constexpr std::size_t kChain = 64;
    for (auto _ : state) {
        crypto::detail::field_mul_lanes(a, b, kChain);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kChain *
                                                      crypto::kVerifyLanes));
}
BENCHMARK(BM_FieldMulLanes);

void BM_FieldSqr(benchmark::State& state) {
    crypto::secp256k1::FieldElement a(bench_u256(22));
    for (auto _ : state) {
        a = a.sqr();
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FieldSqr);

void BM_FieldInverse(benchmark::State& state) {
    crypto::secp256k1::FieldElement a(bench_u256(23));
    for (auto _ : state) {
        a = a.inverse();
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FieldInverse);

// The addition chain behind decompression: ~250 dependent squarings.
void BM_FieldSqrt(benchmark::State& state) {
    const crypto::secp256k1::FieldElement a =
        crypto::secp256k1::FieldElement(bench_u256(27)).sqr();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.sqrt());
    }
}
BENCHMARK(BM_FieldSqrt);

void BM_ScalarInverse(benchmark::State& state) {
    crypto::secp256k1::Scalar a(bench_u256(24));
    for (auto _ : state) {
        a = a.inverse();
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ScalarInverse);

// k·G through the process-wide table: ~128 doublings and ~20 mixed
// additions, then one field inversion to affine.
void BM_MultiplyGenerator(benchmark::State& state) {
    const crypto::U256 k = bench_u256(28);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::secp256k1::multiply_generator(k));
    }
}
BENCHMARK(BM_MultiplyGenerator);

void BM_EcdsaSign(benchmark::State& state) {
    util::Rng rng(5);
    const auto key = crypto::PrivateKey::generate(rng);
    crypto::Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    std::uint8_t counter = 0;
    for (auto _ : state) {
        digest.bytes()[0] = counter++;
        benchmark::DoNotOptimize(key.sign(digest));
    }
}
BENCHMARK(BM_EcdsaSign);

// The SV primitive cost.
void BM_EcdsaVerify(benchmark::State& state) {
    util::Rng rng(6);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto pub = key.public_key();
    crypto::Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    const auto sig = key.sign(digest);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pub.verify(digest, sig));
    }
}
BENCHMARK(BM_EcdsaVerify);

// One group through crypto::verify_lanes per iteration, reported per
// verify: Arg keys, each with its own valid signature. A group of one
// takes the scalar verify (docs/CRYPTO.md).
void BM_EcdsaVerifyLanes(benchmark::State& state) {
    state.SetLabel(lanes_backend());
    util::Rng rng(6);
    const auto group = static_cast<std::size_t>(state.range(0));
    std::vector<crypto::VerifyJob> jobs;
    for (std::size_t i = 0; i < group; ++i) {
        const auto key = crypto::PrivateKey::generate(rng);
        crypto::Hash256 digest;
        rng.fill({digest.bytes().data(), 32});
        jobs.push_back({key.public_key(), key.sign(digest), digest});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::verify_lanes(jobs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * group));
}
BENCHMARK(BM_EcdsaVerifyLanes)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Decompression (square root of x³ + 7) on every call, no memo.
void BM_PubkeyDecompress(benchmark::State& state) {
    util::Rng rng(7);
    const auto bytes = crypto::PrivateKey::generate(rng).public_key().serialize();
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::PublicKey::parse(bytes));
    }
}
BENCHMARK(BM_PubkeyDecompress);

void BM_PubkeyParseMemo(benchmark::State& state) {
    util::Rng rng(7);
    const auto bytes = crypto::PrivateKey::generate(rng).public_key().serialize();
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::parse_public_key_memo(bytes));
    }
}
BENCHMARK(BM_PubkeyParseMemo);

// ---- Sighash: naive re-serialization vs O(n) template ----------------------
// Arg is the input count n. The naive path re-serializes the whole
// transaction per input (O(n · tx_size) total); the template serializes once
// and patch-and-hashes per input. Both loops produce all n digests per
// iteration, so items/s are directly comparable at each n.

chain::Transaction sighash_bench_tx(std::size_t inputs) {
    util::Rng rng(10);
    chain::Transaction tx;
    tx.vin.resize(inputs);
    for (auto& in : tx.vin) {
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.prevout.index = static_cast<std::uint32_t>(rng.next());
    }
    tx.vout.resize(2);
    for (auto& out : tx.vout) {
        out.value = 50'000;
        out.lock_script.resize(25);  // P2PKH-sized
        rng.fill(out.lock_script);
    }
    return tx;
}

void BM_Sighash_Naive(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(
                chain::signature_hash(tx, i, script, chain::kSigHashAll));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sighash_Naive)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Streaming consumption: midstate resume + patch per digest (what an
// isolated checker does). Build cost is paid every iteration, like the
// validators pay it once per transaction.
void BM_Sighash_TemplateStream(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    for (auto _ : state) {
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        for (std::size_t i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(tpl.digest(i, script, chain::kSigHashAll));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_impl());
}
BENCHMARK(BM_Sighash_TemplateStream)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Batched consumption: materialize the n patched preimages from the base
// buffer and push them through one sha256d_many call — the SIMD-lane path
// chain::SighashCache takes for a transaction's standard digests.
void BM_Sighash_Template(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    std::vector<util::Bytes> preimages(n);
    std::vector<util::ByteSpan> spans(n);
    std::vector<crypto::Sha256::Digest> digests(n);
    for (auto _ : state) {
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        for (std::size_t i = 0; i < n; ++i) {
            tpl.preimage(i, script, chain::kSigHashAll, preimages[i]);
            spans[i] = {preimages[i].data(), preimages[i].size()};
        }
        crypto::sha256d_many(spans.data(), digests.data(), n);
        benchmark::DoNotOptimize(digests.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sighash_Template)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
