// Hostile-input robustness for every wire/storage decoder: pure random
// bytes, truncations of valid encodings, and single-byte mutations must
// never crash, hang, or over-allocate — they either decode to a value or
// return a DecodeError.
#include <gtest/gtest.h>

#include "chain/block.hpp"
#include "chain/coin.hpp"
#include "chain/transaction.hpp"
#include "core/bitvector.hpp"
#include "core/ebv_transaction.hpp"
#include "crypto/ecdsa.hpp"
#include "core/ebv_validator.hpp"
#include "crypto/merkle.hpp"
#include "intermediary/converter.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

template <typename T>
void decode_random_bytes(std::uint64_t seed, int iterations, std::size_t max_len) {
    util::Rng rng(seed);
    for (int i = 0; i < iterations; ++i) {
        util::Bytes junk(rng.between(0, max_len));
        rng.fill(junk);
        util::Reader r(junk);
        (void)T::deserialize(r);  // must not crash
    }
}

TEST(FuzzDecode, RandomBytesAllDecoders) {
    decode_random_bytes<chain::Transaction>(1, 500, 400);
    decode_random_bytes<chain::Block>(2, 500, 600);
    decode_random_bytes<chain::BlockHeader>(3, 500, 120);
    decode_random_bytes<chain::Coin>(4, 500, 100);
    decode_random_bytes<core::TidyTransaction>(6, 500, 400);
    decode_random_bytes<core::EbvTransaction>(7, 500, 800);
    decode_random_bytes<core::EbvBlock>(8, 500, 1000);
    decode_random_bytes<core::BitVector>(9, 500, 200);
    decode_random_bytes<crypto::MerkleBranch>(10, 500, 400);
}

/// Serialize a valid value, then check every truncation fails cleanly and
/// every single-byte mutation either fails or decodes to *something*
/// (never crashes).
template <typename T>
void truncate_and_mutate(const T& value, std::uint64_t seed) {
    util::Writer w;
    value.serialize(w);
    const util::Bytes wire = w.data();

    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        util::Reader r(util::ByteSpan(wire).first(cut));
        (void)T::deserialize(r);
    }

    util::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
        util::Bytes mutated = wire;
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        util::Reader r(mutated);
        (void)T::deserialize(r);
    }
}

TEST(FuzzDecode, MutatedValidEncodings) {
    util::Rng rng(42);

    chain::Transaction tx;
    tx.vin.push_back(chain::TxIn{{}, util::Bytes(30, 0xab), 5});
    tx.vout.push_back(chain::TxOut{123, util::Bytes(25, 0xcd)});
    truncate_and_mutate(tx, 1);

    core::EbvTransaction etx;
    core::EbvInput in;
    in.height = 9;
    in.els.outputs.push_back(chain::TxOut{5, util::Bytes{0x51}});
    in.mbr.siblings.resize(3);
    etx.inputs.push_back(in);
    etx.outputs.push_back(chain::TxOut{4, util::Bytes{0x52}});
    truncate_and_mutate(etx, 2);

    core::BitVector v = core::BitVector::all_ones(200);
    for (int i = 0; i < 180; ++i) v.reset(static_cast<std::uint32_t>(rng.below(200)));
    truncate_and_mutate(v, 3);

    chain::Coin coin{999, 13, true, util::Bytes(40, 0x11)};
    truncate_and_mutate(coin, 4);
}

TEST(FuzzDecode, HostileLengthPrefixesDontAllocate) {
    // A CompactSize claiming 2^32 entries must be rejected by the sanity
    // caps, not attempted.
    util::Writer w;
    w.u32(1);                      // version
    w.compact_size(0xffffffffUL);  // vin count
    util::Reader r(w.data());
    auto tx = chain::Transaction::deserialize(r);
    EXPECT_FALSE(tx.has_value());
}

TEST(FuzzDecode, NetMessagesSurviveMutation) {
    util::Rng rng(77);
    const util::Bytes wire = net::encode_message(net::BlockMsg{
        net::ChainFormat::kEbv, 5, util::Bytes(200, 0x33)});
    for (int i = 0; i < 500; ++i) {
        util::Bytes mutated = wire;
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        (void)net::decode_message(mutated);
    }
}

TEST(FuzzDecode, ProofMessagesSurviveMutation) {
    util::Rng rng(79);

    net::GetProofMsg get;
    rng.fill(get.block_hash.bytes());
    for (int i = 0; i < 3; ++i) {
        net::ProofRequest req;
        req.kind = i % 2 ? net::ProofKind::kInput : net::ProofKind::kTx;
        rng.fill(req.txid.bytes());
        req.out_index = static_cast<std::uint16_t>(i);
        get.requests.push_back(req);
    }

    net::ProofMsg proof;
    proof.block_hash = get.block_hash;
    net::ProofItem item;
    item.txid = get.requests[0].txid;
    item.height = 12;
    item.position = 34;
    item.els = util::Bytes(60, 0x44);
    item.mbr.siblings.resize(4);
    item.mbr.index = 2;
    proof.items.push_back(item);
    item.status = net::ProofStatus::kUnknownTx;
    item.els.clear();
    item.mbr = {};
    proof.items.push_back(item);

    for (const util::Bytes& wire :
         {net::encode_message(net::Message{get}), net::encode_message(net::Message{proof})}) {
        // Truncations of the frame must fail cleanly.
        for (std::size_t cut = 0; cut < wire.size(); ++cut)
            (void)net::decode_message(util::ByteSpan(wire).first(cut));
        // Payload mutations (checksum usually rejects; when it does not,
        // the payload decoder must still never crash or over-allocate).
        for (int i = 0; i < 500; ++i) {
            util::Bytes mutated = wire;
            mutated[rng.below(mutated.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
            (void)net::decode_message(mutated);
        }
    }
}

TEST(FuzzDecode, SignatureParserSurvivesGarbage) {
    util::Rng rng(78);
    for (int i = 0; i < 2000; ++i) {
        util::Bytes junk(rng.between(0, 80));
        rng.fill(junk);
        (void)crypto::Signature::from_der(junk);
        if (junk.size() == 33) (void)crypto::PublicKey::parse(junk);
    }
}

// Tampered-proof seeds: a real workload block carries genuine MBr/ELs
// encodings; every truncation and bit flip of its wire form — most of
// which land inside the proof fields — must decode cleanly or fail
// cleanly, and whatever decodes must survive the structural validation
// path (stake positions, Merkle root) without crashing.
TEST(FuzzDecode, RealProofEncodingsSurviveMutation) {
    workload::GeneratorOptions gen_options;
    gen_options.seed = 11;
    gen_options.params.coinbase_maturity = 5;
    gen_options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    gen_options.height_scale = 1.0;
    gen_options.intensity = 1.0;
    gen_options.key_pool_size = 8;
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    std::optional<core::EbvBlock> victim;
    for (int i = 0; i < 40 && !victim; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        if (converted->input_count() >= 2) victim = *converted;
    }
    ASSERT_TRUE(victim.has_value());
    truncate_and_mutate(*victim, 77);

    util::Writer w;
    victim->serialize(w);
    const util::Bytes wire = w.data();
    util::Rng rng(79);
    for (int i = 0; i < 300; ++i) {
        util::Bytes mutated = wire;
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        util::Reader r(mutated);
        auto block = core::EbvBlock::deserialize(r);
        if (!block.has_value()) continue;
        (void)block->compute_merkle_root();
        (void)core::check_block_structure(*block, gen_options.params);
    }
}

}  // namespace
}  // namespace ebv
