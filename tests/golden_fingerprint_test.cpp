// Golden consensus fingerprints: a committed table of what fixed seeds
// produce end to end — the generated chain, its EBV conversion, the
// bit-vector set after connecting it, and the sighashes and SV verdicts of
// one multi-input block. Cross-configuration parity tests cannot see a
// change that moves every configuration at once; this table can. A change
// that alters a fingerprint must update the table and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "chain/block.hpp"
#include "core/ebv_validator.hpp"
#include "core/node.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/sha256.hpp"
#include "intermediary/converter.hpp"
#include "util/hex.hpp"
#include "util/serialize.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

/// Chain length per seed: every seed's widest block has 9-12 inputs.
constexpr int kBlocks = 40;

struct Fingerprint {
    std::uint64_t seed;
    const char* chain_tip;       ///< ChainGenerator tip hash (display order)
    const char* ebv_tip;         ///< converted tip hash (display order)
    const char* status_sha256;   ///< SHA-256 of BitVectorSet::serialize
    const char* sighash_sha256;  ///< SHA-256 over (sighash, SV verdict) per input
};

void PrintTo(const Fingerprint& f, std::ostream* os) { *os << "seed " << f.seed; }

constexpr Fingerprint kTable[] = {
    {1, "829544d9843d466589dfcd2af536ad09f9fd3ed7d634ba137e9da41950a5d73c",
     "711235312c3146689b899e28e84999587ff02ff5313641879f63df3ce23ee7b1",
     "54f01cc36e9387add93bf6a88c89ec50fe5736530b2472ff6f2a9628e14398f9",
     "bb2311540f586fea6cd71765136d7c819562592a4248ab3561e0f03f6a899ab1"},
    {17, "5a900e4c832a017196d3dead813411f61609d84f2b10db4db87551273ce3162a",
     "4a04883aba028cc53bbc7ef18a1516d500f7ca73fa45df3052c6124964082b1e",
     "86354a54b9ef24a4b75e8688154939111d9082767611ee060f29a7ccb3d00d9e",
     "1e16a025f9438920ecc0db34daf9a0fdbce151b5f9df051f52f25722864fdc8d"},
    {1501, "ced1ada983605fdac531f37ea0f2e94c69e83f0cdc349abb4fd7df6e95ab2213",
     "f3259c37c0ce623ac0c5fc67963b3c7d02ca5af05051ba973a6c3760048d6615",
     "f7d1d86e6940cea21b4137471076b6dfc0d7a40480f37b273f984725122f2633",
     "86a5436895bae6f22e76e9453e9206f4f8965c8a96288e96b988b30b124fbfd5"},
};

/// One digest over every input of `block`: its SIGHASH_ALL digest against
/// the lock script it spends, then its SV verdict as one byte.
std::string sighash_fingerprint(const core::EbvBlock& block) {
    crypto::Sha256 hasher;
    for (const core::EbvTransaction& tx : block.txs) {
        if (tx.is_coinbase()) continue;
        const core::TxSighashCache cache(tx);
        for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
            const crypto::Hash256 digest = core::ebv_signature_hash(
                tx, i, core::input_scripts(tx.inputs[i]).lock, 0x01);
            hasher.update(digest.span());
            const auto verdict = static_cast<std::uint8_t>(core::sv_check_input(tx, i, cache));
            hasher.update(util::ByteSpan(&verdict, 1));
        }
    }
    return util::hex_encode(hasher.finalize());
}

class GoldenFingerprint : public ::testing::TestWithParam<Fingerprint> {};

TEST_P(GoldenFingerprint, SeedMatchesTable) {
    const Fingerprint& expected = GetParam();
    workload::GeneratorOptions gen_options;
    gen_options.seed = expected.seed;
    gen_options.params.coinbase_maturity = 5;
    gen_options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    gen_options.height_scale = 1.0;
    gen_options.intensity = 1.0;
    gen_options.key_pool_size = 8;
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    core::EbvNodeOptions options;
    options.params = gen_options.params;
    core::EbvNode node(options);

    chain::Block tip;
    core::EbvBlock ebv_tip;
    core::EbvBlock widest;  // the block with the most inputs, first on ties
    for (int i = 0; i < kBlocks; ++i) {
        tip = gen.next_block();
        auto converted = converter.convert_block(tip);
        ASSERT_TRUE(converted.has_value()) << i;
        ASSERT_TRUE(node.submit_block(*converted).has_value()) << i;
        if (converted->input_count() > widest.input_count()) widest = *converted;
        ebv_tip = std::move(*converted);
    }
    ASSERT_GT(widest.input_count(), 1u);

    // The set's bytes follow its hash map's iteration order, so this
    // digest also pins the order the node's connects leave behind.
    util::Writer status;
    node.status().serialize(status);

    EXPECT_EQ(tip.header.hash().to_hex(), expected.chain_tip);
    EXPECT_EQ(ebv_tip.header.hash().to_hex(), expected.ebv_tip);
    EXPECT_EQ(node.headers().tip_hash(), ebv_tip.header.hash());
    EXPECT_EQ(util::hex_encode(crypto::Sha256::hash(status.data())), expected.status_sha256);
    EXPECT_EQ(sighash_fingerprint(widest), expected.sighash_sha256);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenFingerprint, ::testing::ValuesIn(kTable),
                         [](const ::testing::TestParamInfo<Fingerprint>& info) {
                             return "seed" + std::to_string(info.param.seed);
                         });

// A public constant known without a download: Bitcoin's genesis header,
// through the same serializer and double SHA-256 every block hash takes.
TEST(GoldenFingerprint, BitcoinGenesisHeader) {
    chain::BlockHeader genesis;
    genesis.version = 1;
    genesis.merkle_root = *crypto::Hash256::from_hex(
        "4a5e1e4baab89f3a32518a88c31bc87f618f76673e2cc77ab2127b7afdeda33b");
    genesis.time = 1231006505;
    genesis.bits = 0x1d00ffff;
    genesis.nonce = 2083236893;

    util::Writer w;
    genesis.serialize(w);
    ASSERT_EQ(w.data().size(), chain::BlockHeader::kSerializedSize);
    EXPECT_EQ(util::hex_encode(w.data()),
              "01000000"
              "0000000000000000000000000000000000000000000000000000000000000000"
              "3ba3edfd7a7b12b27ac72c3e67768f617fc81bc3888a51323a9fb8aa4b1e5e4a"
              "29ab5f49"
              "ffff001d"
              "1dac2b7c");
    EXPECT_EQ(genesis.hash().to_hex(),
              "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f");
}

}  // namespace
}  // namespace ebv
