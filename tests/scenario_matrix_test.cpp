// Adversarial & reorg scenario matrix (docs/SCENARIOS.md): every hostile
// mutation the workload::Adversary can produce runs through all three
// validator configurations — serial, parallel, pipelined-IBD —
// and must be rejected with bit-identical EbvValidationFailure tuples and
// bit-identical post-run state (bit-vector set, tip, height). Reorgs,
// including deep ones crossing pipeline window boundaries and hostile
// branches that must roll back, get the same cross-config treatment, and a
// seed-logged randomized soak (EBV_SOAK_SEED / EBV_SOAK_BLOCKS) interleaves
// all of it for hundreds of blocks. The mutation catalogue also compares
// scalar signature checks against the lane backends (kLaneRuns), on the
// default chain and on a skewed one full of 1-of-M multisig inputs, and
// the baseline validator gets the same thread × lane-backend sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/reorg.hpp"
#include "chain/sig_cache.hpp"
#include "chain/sighash.hpp"
#include "core/node.hpp"
#include "core/reorg.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "intermediary/converter.hpp"
#include "script/standard.hpp"
#include "util/thread_pool.hpp"
#include "workload/adversary.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
    TempDir() {
        path_ = fs::temp_directory_path() /
                ("ebv_matrix_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    fs::path path_;
    static inline int counter_ = 0;
};

workload::GeneratorOptions matrix_gen_options(std::uint64_t seed) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

/// The three validator configurations of the failure-parity contract.
struct Config {
    const char* name;
    bool use_pool;
    bool pipelined;
    std::size_t window;
};

constexpr Config kConfigs[] = {
    {"serial", false, false, 1},
    {"parallel", true, false, 1},
    {"pipelined", true, true, 4},
};
constexpr std::size_t kConfigCount = sizeof(kConfigs) / sizeof(kConfigs[0]);

/// Pins the signature-lane backend (crypto::lanes_force_impl) for a scope;
/// "auto" keeps what the CPU selects.
class LanesScope {
public:
    explicit LanesScope(const char* impl) { EXPECT_TRUE(crypto::lanes_force_impl(impl)); }
    ~LanesScope() { crypto::lanes_force_impl("auto"); }
    LanesScope(const LanesScope&) = delete;
    LanesScope& operator=(const LanesScope&) = delete;
};

/// The mutation tests' runs: the serial reference checks signatures one by
/// one, the pooled configurations use the CPU's lane backend, and the
/// pipelined one runs again with the portable lanes forced.
struct LaneRun {
    const Config& config;
    const char* lanes;
    const char* name;
};
const LaneRun kLaneRuns[] = {
    {kConfigs[0], "none", "serial"},
    {kConfigs[1], "auto", "parallel"},
    {kConfigs[2], "auto", "pipelined"},
    {kConfigs[2], "portable", "pipelined+portable-lanes"},
};

std::unique_ptr<core::EbvNode> make_node(const Config& cfg, util::ThreadPool* pool,
                                         const chain::ChainParams& params,
                                         const std::string& data_dir = {},
                                         chain::SigCache* sigcache = nullptr) {
    core::EbvNodeOptions options;
    options.params = params;
    options.data_dir = data_dir;
    options.validator.script_pool = cfg.use_pool ? pool : nullptr;
    options.validator.sigcache = sigcache;
    options.pipeline.enabled = cfg.pipelined;
    options.pipeline.window = cfg.window;
    return std::make_unique<core::EbvNode>(options);
}

/// The serial-validator error each mutation is designed to trip.
core::EbvError expected_error(workload::Mutation m) {
    using workload::Mutation;
    switch (m) {
        case Mutation::kMbrSibling:
        case Mutation::kMbrIndex:
        case Mutation::kElsValue:
        case Mutation::kElsLockScript:
        case Mutation::kElsLocktime:
        case Mutation::kElsVersion:
        case Mutation::kElsStakePosition:
            return core::EbvError::kExistenceFailed;
        case Mutation::kInputHeight: return core::EbvError::kUnknownHeight;
        case Mutation::kInputOutIndex: return core::EbvError::kBadOutIndex;
        case Mutation::kUnlockScript: return core::EbvError::kScriptFailure;
        case Mutation::kShiftedStakePosition: return core::EbvError::kBadStakePosition;
        case Mutation::kStaleMerkleRoot: return core::EbvError::kMerkleRootMismatch;
        case Mutation::kDropCoinbase: return core::EbvError::kFirstTxNotCoinbase;
        case Mutation::kInjectCoinbase: return core::EbvError::kUnexpectedCoinbase;
        case Mutation::kEmptyTxList: return core::EbvError::kEmptyBlock;
        case Mutation::kDoubleSpendInBlock: return core::EbvError::kDoubleSpendInBlock;
        case Mutation::kCrossBlockDoubleSpendNear:
        case Mutation::kCrossBlockDoubleSpendFar:
            return core::EbvError::kUnspentFailed;
        case Mutation::kImmatureCoinbaseSpend:
            return core::EbvError::kImmatureCoinbaseSpend;
        case Mutation::kNegativeFee: return core::EbvError::kNegativeFee;
        case Mutation::kCoinbaseOverpay: return core::EbvError::kCoinbaseValueTooHigh;
    }
    return core::EbvError::kEmptyBlock;
}

/// An empty competing Bitcoin-format block on the given parent.
chain::Block empty_block(const crypto::Hash256& parent, std::uint32_t height,
                         const chain::ChainParams& params, std::uint32_t salt) {
    return chain::assemble_block(
        parent, chain::make_coinbase(height, params.subsidy_at(height),
                                     script::Script{0x51}, salt),
        {}, /*time=*/1000 + height);
}

/// An empty competing EBV block on the given parent.
core::EbvBlock empty_ebv_block(const crypto::Hash256& parent, std::uint32_t height,
                               const chain::ChainParams& params, std::uint64_t salt) {
    core::EbvBlock block;
    core::EbvTransaction coinbase;
    coinbase.coinbase_data = {static_cast<std::uint8_t>(height),
                              static_cast<std::uint8_t>(height >> 8),
                              static_cast<std::uint8_t>(salt),
                              static_cast<std::uint8_t>(salt >> 8),
                              static_cast<std::uint8_t>(salt >> 16)};
    coinbase.outputs.push_back(
        chain::TxOut{params.subsidy_at(height), script::Script{0x51}});
    block.txs.push_back(std::move(coinbase));
    block.header.prev_hash = parent;
    block.assign_stake_positions();
    return block;
}

/// Bit-identical node state: height, tip, and the full bit-vector set.
void expect_same_state(const core::EbvNode& expected, const core::EbvNode& actual,
                       const std::string& label) {
    EXPECT_EQ(expected.next_height(), actual.next_height()) << label;
    EXPECT_EQ(expected.headers().tip_hash(), actual.headers().tip_hash()) << label;
    EXPECT_EQ(expected.status_memory_bytes(), actual.status_memory_bytes()) << label;
    EXPECT_TRUE(expected.status() == actual.status()) << label;
}

void expect_same_batch(const ibd::BatchResult& expected, const ibd::BatchResult& actual,
                       const std::string& label) {
    EXPECT_EQ(expected.connected, actual.connected) << label;
    ASSERT_EQ(expected.failure.has_value(), actual.failure.has_value()) << label;
    if (expected.failure.has_value()) {
        EXPECT_EQ(expected.failure->block_index, actual.failure->block_index) << label;
        EXPECT_EQ(expected.failure->height, actual.failure->height) << label;
        EXPECT_TRUE(expected.failure->failure == actual.failure->failure)
            << label << " expected=" << expected.failure->failure.describe()
            << " actual=" << actual.failure->failure.describe();
    }
}

class ScenarioMatrix : public ::testing::Test {
protected:
    static constexpr std::size_t kChainLen = 30;

    void SetUp() override {
        gen_options_ = matrix_gen_options(7);
        workload::ChainGenerator gen(gen_options_);
        for (std::size_t i = 0; i < kChainLen; ++i) {
            auto converted = converter_.convert_block(gen.next_block());
            ASSERT_TRUE(converted.has_value());
            chain_.push_back(*converted);
        }
    }

    workload::GeneratorOptions gen_options_;
    intermediary::Converter converter_;
    std::vector<core::EbvBlock> chain_;
};

/// Every mutation of `chain`, through every configuration: the serial
/// validator rejects it with the designed error at the mutated block, and
/// the other runs of kLaneRuns reproduce its tuple and end state bit for
/// bit.
void expect_mutations_reject_identically(const std::vector<core::EbvBlock>& chain,
                                         const intermediary::Converter& converter,
                                         const chain::ChainParams& params) {
    util::ThreadPool pool(4);
    workload::Adversary adversary(1);

    for (const workload::Mutation m : workload::kAllMutations) {
        SCOPED_TRACE(workload::to_string(m));

        // Find a block (past the midpoint, so there is committed history
        // to double-spend against) where the mutation applies.
        std::vector<core::EbvBlock> blocks;
        std::optional<workload::AppliedMutation> applied;
        for (std::size_t target = chain.size() / 2; target < chain.size() && !applied;
             ++target) {
            blocks = chain;
            applied = adversary.apply(m, blocks, target, &converter.archive());
        }
        ASSERT_TRUE(applied.has_value()) << "mutation never applied";

        std::vector<std::unique_ptr<core::EbvNode>> nodes;
        std::optional<ibd::BatchResult> serial;
        for (const LaneRun& run : kLaneRuns) {
            const LanesScope lanes(run.lanes);
            nodes.push_back(make_node(run.config, &pool, params));
            const ibd::BatchResult result = nodes.back()->submit_blocks(blocks);
            ASSERT_TRUE(result.failure.has_value()) << run.name;
            if (!serial) {
                serial = result;
                EXPECT_EQ(result.failure->block_index, applied->block);
                EXPECT_EQ(result.failure->failure.error, expected_error(m))
                    << result.failure->failure.describe();
            } else {
                expect_same_batch(*serial, result, run.name);
                expect_same_state(*nodes.front(), *nodes.back(), run.name);
            }
        }
    }
}

TEST_F(ScenarioMatrix, EveryMutationRejectsIdenticallyAcrossConfigs) {
    expect_mutations_reject_identically(chain_, converter_, gen_options_.params);
}

/// A skewed chain (skew = 1) from the fixture's options: about half the
/// outputs are 1-of-M multisig, M up to 15, signer last.
std::vector<core::EbvBlock> skewed_chain(workload::GeneratorOptions options,
                                         intermediary::Converter& converter,
                                         std::size_t length) {
    options.skew = 1.0;
    options.key_pool_size = 16;
    workload::ChainGenerator gen(options);
    std::vector<core::EbvBlock> chain;
    for (std::size_t i = 0; i < length; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        EXPECT_TRUE(converted.has_value());
        if (!converted) break;
        chain.push_back(*converted);
    }
    return chain;
}

// The same catalogue over a skewed chain, where the lanes' verdict
// prefetch sees mostly false pairs: every mutation still trips its
// designed error at the mutated block.
TEST_F(ScenarioMatrix, EveryMutationRejectsIdenticallyOnSkewedChain) {
    intermediary::Converter converter;
    const std::vector<core::EbvBlock> chain =
        skewed_chain(gen_options_, converter, kChainLen);
    ASSERT_EQ(chain.size(), kChainLen);
    expect_mutations_reject_identically(chain, converter, gen_options_.params);
}

// On the skewed chain block 15's first input spends the last leaf of an
// odd level, which is its own Merkle sibling there: flipping that level's
// index bit proves the same leaf. mbr-index must flip a level the fold
// depends on, so EV rejects block 15 itself rather than the reseal
// breaking block 16's link.
TEST_F(ScenarioMatrix, MbrIndexFailsExistenceWhenTheLeafIsItsOwnSibling) {
    intermediary::Converter converter;
    std::vector<core::EbvBlock> blocks = skewed_chain(gen_options_, converter, kChainLen);
    ASSERT_EQ(blocks.size(), kChainLen);
    workload::Adversary adversary(1);
    ASSERT_TRUE(adversary.apply(workload::Mutation::kMbrIndex, blocks, 15).has_value());

    const std::unique_ptr<core::EbvNode> node =
        make_node(kConfigs[0], nullptr, gen_options_.params);
    const ibd::BatchResult result = node->submit_blocks(blocks);
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->block_index, 15u);
    EXPECT_EQ(result.failure->failure.error, core::EbvError::kExistenceFailed)
        << result.failure->failure.describe();
}

// The sigcache must never change a verdict: a warm cache holds only
// signatures that verified TRUE, every mutation's failure is something the
// cache cannot vouch for, and failed checks always re-verify. Re-run the
// whole mutation catalogue with a cache warmed on the clean chain and
// compare against a cold serial baseline — tuples and state bit-identical
// across all three configurations (the "cache on" half of the on/off/evicted
// guarantee; targeted poisoning/eviction lives in core_sigcache_test).
TEST_F(ScenarioMatrix, EveryMutationRejectsIdenticallyWithWarmSigCache) {
    util::ThreadPool pool(4);
    workload::Adversary adversary(1);

    // Warm one shared cache by fully validating the clean chain once; every
    // honest signature in `chain_` is now admission-equivalent cached.
    chain::SigCache cache;
    {
        auto warm = make_node(kConfigs[1], &pool, gen_options_.params, {}, &cache);
        ASSERT_TRUE(warm->submit_blocks(chain_).ok());
    }
    ASSERT_GT(cache.size(), 0u);

    for (const workload::Mutation m : workload::kAllMutations) {
        SCOPED_TRACE(workload::to_string(m));

        std::vector<core::EbvBlock> blocks;
        std::optional<workload::AppliedMutation> applied;
        for (std::size_t target = kChainLen / 2; target < kChainLen && !applied;
             ++target) {
            blocks = chain_;
            applied = adversary.apply(m, blocks, target, &converter_.archive());
        }
        ASSERT_TRUE(applied.has_value()) << "mutation never applied";

        // Cold serial baseline (no cache, scalar signature checks) is the
        // contract's ground truth.
        auto baseline = make_node(kConfigs[0], &pool, gen_options_.params);
        const ibd::BatchResult cold = [&] {
            const LanesScope scalar("none");
            return baseline->submit_blocks(blocks);
        }();
        ASSERT_TRUE(cold.failure.has_value());
        EXPECT_EQ(cold.failure->failure.error, expected_error(m))
            << cold.failure->failure.describe();

        for (const LaneRun& run : kLaneRuns) {
            const LanesScope lanes(run.lanes);
            auto node = make_node(run.config, &pool, gen_options_.params, {}, &cache);
            const ibd::BatchResult result = node->submit_blocks(blocks);
            ASSERT_TRUE(result.failure.has_value()) << run.name;
            expect_same_batch(cold, result, std::string(run.name) + "+sigcache");
            expect_same_state(*baseline, *node, std::string(run.name) + "+sigcache");
        }
    }
}

/// Where a baseline run over a Bitcoin-format chain stopped: the index of
/// the rejected block (the chain length when all connected), its failure
/// tuple, and the UTXO set and tip it left.
struct BaselineRun {
    std::size_t rejected = 0;
    chain::BlockError error = chain::BlockError::kEmptyBlock;
    std::size_t tx_index = 0;
    std::size_t input_index = 0;
    script::ScriptError script_error = script::ScriptError::kOk;
    std::size_t utxos = 0;
    crypto::Hash256 tip;

    friend bool operator==(const BaselineRun&, const BaselineRun&) = default;
};

BaselineRun run_baseline(const std::vector<chain::Block>& blocks,
                         const chain::ChainParams& params, util::ThreadPool* pool) {
    chain::BitcoinNodeOptions options;
    options.params = params;
    options.validator.script_pool = pool;
    chain::BitcoinNode node(options);
    BaselineRun run;
    for (; run.rejected < blocks.size(); ++run.rejected) {
        const auto result = node.submit_block(blocks[run.rejected]);
        if (result) continue;
        run.error = result.error().error;
        run.tx_index = result.error().tx_index;
        run.input_index = result.error().input_index;
        run.script_error = result.error().script_error;
        break;
    }
    run.utxos = node.utxo().size();
    run.tip = node.headers().tip_hash();
    return run;
}

// The baseline validator (Bitcoin format) through its own thread ×
// lane-backend sweep: the clean chain, a block with every other signature
// corrupted, and a block whose last transaction pays one satoshi less than
// it signed, each end with the scalar serial run's tuple and state under
// every backend and thread count.
TEST_F(ScenarioMatrix, BaselineRejectsIdenticallyAcrossThreadsAndLanes) {
    workload::ChainGenerator gen(gen_options_);
    std::vector<chain::Block> clean;
    for (std::size_t i = 0; i < kChainLen; ++i) clean.push_back(gen.next_block());
    std::size_t target = kChainLen / 2;
    while (target < kChainLen && clean[target].input_count() < 3) ++target;
    ASSERT_LT(target, kChainLen) << "no block past the midpoint spends three inputs";

    const auto reseal = [&](std::vector<chain::Block>& blocks) {
        for (chain::Transaction& tx : blocks[target].txs) tx.invalidate_cache();
        blocks[target].header.merkle_root = blocks[target].compute_merkle_root();
    };
    std::vector<chain::Block> bad_sigs = clean;
    std::size_t global = 0;
    for (std::size_t t = 1; t < bad_sigs[target].txs.size(); ++t)
        for (chain::TxIn& in : bad_sigs[target].txs[t].vin)
            if (global++ % 2 == 1 && in.unlock_script.size() > 6) in.unlock_script[5] ^= 0x11;
    reseal(bad_sigs);
    std::vector<chain::Block> short_output = clean;
    short_output[target].txs.back().vout[0].value -= 1;
    reseal(short_output);

    const struct {
        const char* name;
        const std::vector<chain::Block>& blocks;
        bool rejected;
    } variants[] = {{"clean", clean, false},
                    {"bad signatures", bad_sigs, true},
                    {"short output", short_output, true}};
    for (const auto& variant : variants) {
        SCOPED_TRACE(variant.name);
        const BaselineRun reference = [&] {
            const LanesScope scalar("none");
            return run_baseline(variant.blocks, gen_options_.params, nullptr);
        }();
        EXPECT_EQ(reference.rejected, variant.rejected ? target : kChainLen);
        if (variant.rejected) {
            EXPECT_EQ(reference.error, chain::BlockError::kScriptFailure);
        }
        for (const char* lanes : {"none", "portable", "auto"}) {
            const LanesScope scope(lanes);
            for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(lanes) + " threads=" + std::to_string(threads));
                std::optional<util::ThreadPool> pool;
                if (threads > 0) pool.emplace(threads);
                EXPECT_TRUE(run_baseline(variant.blocks, gen_options_.params,
                                         pool ? &*pool : nullptr) == reference);
            }
        }
    }
}

// A deep reorg — 20 blocks disconnected, far past the pipelined window of
// 4 — must land every configuration on the same branch state, identical to
// validating the winning chain directly.
TEST(ScenarioReorg, DeepReorgCrossesWindowBoundariesIdentically) {
    const auto gen_options = matrix_gen_options(11);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    constexpr std::uint32_t kForkAt = 10;
    std::vector<core::EbvBlock> main_chain;
    for (std::uint32_t i = 0; i < kForkAt; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        main_chain.push_back(*converted);
    }

    // Snapshot the fork point, then let main and branch diverge.
    workload::ChainGenerator branch_gen = gen.fork(0xf00d);
    intermediary::Converter branch_converter = converter;

    for (std::uint32_t i = 0; i < 20; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        main_chain.push_back(*converted);
    }
    std::vector<core::EbvBlock> branch;
    for (std::uint32_t i = 0; i < 25; ++i) {
        auto converted = branch_converter.convert_block(branch_gen.next_block());
        ASSERT_TRUE(converted.has_value());
        branch.push_back(*converted);
    }

    // Control: the winning chain validated directly, serially.
    util::ThreadPool pool(4);
    auto control = make_node(kConfigs[0], &pool, gen_options.params);
    ASSERT_TRUE(control
                    ->submit_blocks(std::span<const core::EbvBlock>(main_chain.data(),
                                                                    kForkAt))
                    .ok());
    ASSERT_TRUE(control->submit_blocks(branch).ok());

    for (const Config& cfg : kConfigs) {
        TempDir dir;
        auto node = make_node(cfg, &pool, gen_options.params, dir.str());
        ASSERT_TRUE(node->submit_blocks(main_chain).ok()) << cfg.name;

        auto outcome = core::reorg_to(*node, branch);
        ASSERT_TRUE(outcome.has_value()) << cfg.name << ": "
                                         << to_string(outcome.error());
        EXPECT_TRUE(outcome->switched) << cfg.name;
        EXPECT_EQ(outcome->fork_height, kForkAt - 1) << cfg.name;
        EXPECT_EQ(outcome->blocks_disconnected, 20u) << cfg.name;
        EXPECT_EQ(outcome->blocks_connected, 25u) << cfg.name;
        expect_same_state(*control, *node, cfg.name);
    }
}

// A hostile branch (tampered unlocking script mid-branch) must fail with
// the same tuple under every configuration and roll back to exactly the
// pre-reorg state.
TEST(ScenarioReorg, HostileBranchRollsBackIdenticallyAcrossConfigs) {
    const auto gen_options = matrix_gen_options(13);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    constexpr std::uint32_t kForkAt = 12;
    std::vector<core::EbvBlock> main_chain;
    for (std::uint32_t i = 0; i < kForkAt; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        main_chain.push_back(*converted);
    }
    workload::ChainGenerator branch_gen = gen.fork(0xbeef);
    intermediary::Converter branch_converter = converter;
    for (std::uint32_t i = 0; i < 8; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        main_chain.push_back(*converted);
    }
    std::vector<core::EbvBlock> branch;
    for (std::uint32_t i = 0; i < 12; ++i) {
        auto converted = branch_converter.convert_block(branch_gen.next_block());
        ASSERT_TRUE(converted.has_value());
        branch.push_back(*converted);
    }

    // Tamper a signature somewhere past the first half of the branch.
    workload::Adversary adversary(2);
    std::optional<workload::AppliedMutation> applied;
    for (std::size_t target = branch.size() / 2; target < branch.size() && !applied;
         ++target) {
        applied = adversary.apply(workload::Mutation::kUnlockScript, branch, target);
    }
    ASSERT_TRUE(applied.has_value());

    // Control: the main chain validated directly (what rollback restores).
    util::ThreadPool pool(4);
    auto control = make_node(kConfigs[0], &pool, gen_options.params);
    ASSERT_TRUE(control->submit_blocks(main_chain).ok());

    std::optional<core::EbvValidationFailure> serial_failure;
    for (const Config& cfg : kConfigs) {
        TempDir dir;
        auto node = make_node(cfg, &pool, gen_options.params, dir.str());
        ASSERT_TRUE(node->submit_blocks(main_chain).ok()) << cfg.name;

        auto outcome = core::reorg_to(*node, branch);
        ASSERT_TRUE(outcome.has_value()) << cfg.name << ": "
                                         << to_string(outcome.error());
        EXPECT_FALSE(outcome->switched) << cfg.name;
        EXPECT_EQ(outcome->branch_failure.error, core::EbvError::kScriptFailure)
            << cfg.name;
        if (!serial_failure) {
            serial_failure = outcome->branch_failure;
        } else {
            EXPECT_TRUE(*serial_failure == outcome->branch_failure)
                << cfg.name << " serial=" << serial_failure->describe()
                << " actual=" << outcome->branch_failure.describe();
        }
        expect_same_state(*control, *node, cfg.name);
    }
}

// kRollbackFailed is reachable: if the block store cannot reproduce the
// suffix being replaced (external truncation/tampering), reorg_to refuses
// up front and the node state is untouched.
TEST(ScenarioReorg, EbvTamperedStoreRefusesReorg) {
    const auto gen_options = matrix_gen_options(17);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;

    TempDir dir;
    core::EbvNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    core::EbvNode node(options);

    std::vector<core::EbvBlock> blocks;
    for (int i = 0; i < 12; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        blocks.push_back(*converted);
        ASSERT_TRUE(node.submit_block(blocks.back()).has_value());
    }
    const auto tip_before = node.headers().tip_hash();
    const auto memory_before = node.status_memory_bytes();

    // Corrupt the store: replace the stored tip block with a different one.
    ASSERT_NE(node.block_store(), nullptr);
    node.block_store()->truncate(11);
    node.block_store()->append(blocks[0]);

    // A perfectly valid longer branch...
    std::vector<core::EbvBlock> branch;
    crypto::Hash256 parent = blocks[9].header.hash();
    for (std::uint32_t i = 0; i < 4; ++i) {
        branch.push_back(empty_ebv_block(parent, 10 + i, options.params, 900 + i));
        parent = branch.back().header.hash();
    }

    // ...is refused, because a failed connect could never be rolled back.
    auto outcome = core::reorg_to(node, branch);
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error(), core::EbvReorgError::kRollbackFailed);
    EXPECT_EQ(node.next_height(), 12u);
    EXPECT_EQ(node.headers().tip_hash(), tip_before);
    EXPECT_EQ(node.status_memory_bytes(), memory_before);
}

TEST(ScenarioReorg, BaselineTamperedStoreRefusesReorg) {
    const auto gen_options = matrix_gen_options(19);
    workload::ChainGenerator gen(gen_options);

    TempDir dir;
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    options.data_dir = dir.str();
    options.device = storage::DeviceProfile::none();
    options.keep_blocks = true;
    chain::BitcoinNode node(options);

    std::vector<chain::Block> blocks;
    for (int i = 0; i < 12; ++i) {
        blocks.push_back(gen.next_block());
        ASSERT_TRUE(node.submit_block(blocks.back()).has_value());
    }
    const auto tip_before = node.headers().tip_hash();
    const auto utxos_before = node.utxo().size();

    ASSERT_NE(node.block_store(), nullptr);
    node.block_store()->truncate(11);
    node.block_store()->append(blocks[0]);

    std::vector<chain::Block> branch;
    crypto::Hash256 parent = blocks[9].header.hash();
    for (std::uint32_t i = 0; i < 4; ++i) {
        branch.push_back(empty_block(parent, 10 + i, options.params, 700 + i));
        parent = branch.back().header.hash();
    }

    auto outcome = chain::reorg_to(node, branch);
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error(), chain::ReorgError::kRollbackFailed);
    EXPECT_EQ(node.next_height(), 12u);
    EXPECT_EQ(node.headers().tip_hash(), tip_before);
    EXPECT_EQ(node.utxo().size(), utxos_before);
}

// BIP30-style cross-block duplicate txid: the baseline validator must
// reject a block that re-creates a still-unspent txid (the coins would
// otherwise be silently overwritten).
TEST(ScenarioDuplicateTxid, BaselineRejectsRecreatedTxid) {
    chain::BitcoinNodeOptions options;  // simnet, in-memory
    chain::BitcoinNode node(options);

    std::vector<chain::Block> blocks;
    crypto::Hash256 parent{};
    for (std::uint32_t h = 0; h < 3; ++h) {
        blocks.push_back(empty_block(parent, h, options.params, 100 + h));
        parent = blocks.back().header.hash();
        ASSERT_TRUE(node.submit_block(blocks.back()).has_value());
    }

    // Same subsidy schedule at height 3, so the only objection is the txid.
    const chain::Block dup =
        workload::duplicate_txid_block(blocks[1], node.headers().tip_hash(),
                                       /*time=*/4000);
    ASSERT_EQ(dup.txs[0].txid(), blocks[1].txs[0].txid());
    auto result = node.submit_block(dup);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().error, chain::BlockError::kDuplicateTxid);
    EXPECT_EQ(result.error().tx_index, 0u);
    EXPECT_EQ(node.next_height(), 3u);  // untouched
}

// The EBV counterpart pin: state is keyed by (height, stake position), not
// txid, so the same duplicate is *accepted* — identically by every
// configuration — and clobbers nothing.
TEST(ScenarioDuplicateTxid, EbvAcceptsRecreatedTxidIdentically) {
    const chain::ChainParams params = chain::ChainParams::simnet();
    intermediary::Converter converter;

    std::vector<core::EbvBlock> blocks;
    crypto::Hash256 btc_parent{};
    for (std::uint32_t h = 0; h < 3; ++h) {
        const chain::Block b = empty_block(btc_parent, h, params, 100 + h);
        btc_parent = b.header.hash();
        auto converted = converter.convert_block(b);
        ASSERT_TRUE(converted.has_value());
        blocks.push_back(*converted);
    }
    blocks.push_back(
        workload::duplicate_txid_ebv_block(blocks[1], blocks[2].header.hash()));
    ASSERT_EQ(blocks[3].txs[0].coinbase_data, blocks[1].txs[0].coinbase_data);

    util::ThreadPool pool(4);
    std::vector<std::unique_ptr<core::EbvNode>> nodes;
    for (const Config& cfg : kConfigs) {
        nodes.push_back(make_node(cfg, &pool, params));
        const ibd::BatchResult result = nodes.back()->submit_blocks(blocks);
        EXPECT_TRUE(result.ok()) << cfg.name
                                 << (result.failure
                                         ? result.failure->failure.describe()
                                         : std::string());
        EXPECT_EQ(nodes.back()->next_height(), 4u) << cfg.name;
        if (nodes.size() > 1) {
            expect_same_state(*nodes.front(), *nodes.back(), cfg.name);
        }
    }
}

// Maximal-inflation scenarios: individually in-range values whose *sums*
// leave [0, kMaxMoney]. Both the per-tx output sum (structural) and the
// per-tx input sum (connect-time) must be caught, with identical tuples
// across every configuration and in the baseline validator.
class ScenarioInflation : public ::testing::Test {
protected:
    void SetUp() override {
        params_ = chain::ChainParams::simnet();
        params_.coinbase_maturity = 2;
        params_.initial_subsidy = chain::kMaxMoney - 5;

        key_ = crypto::PrivateKey::generate(rng_);
        lock_ = script::make_p2pk(key_.public_key());

        // Four near-max coinbases, all to the same spendable key.
        crypto::Hash256 parent{};
        for (std::uint32_t h = 0; h < 4; ++h) {
            blocks_.push_back(chain::assemble_block(
                parent,
                chain::make_coinbase(h, params_.subsidy_at(h), lock_, h),
                {}, /*time=*/1000 + h));
            parent = blocks_.back().header.hash();
        }
    }

    /// A block at height 4 whose first tx spends the coinbases of blocks 0
    /// and 1: each input is in range, the sum is ~2x the supply cap.
    chain::Block inflation_block() {
        chain::Transaction tx;
        tx.vin.push_back(
            chain::TxIn{chain::OutPoint{blocks_[0].txs[0].txid(), 0}, {}, 0xffffffff});
        tx.vin.push_back(
            chain::TxIn{chain::OutPoint{blocks_[1].txs[0].txid(), 0}, {}, 0xffffffff});
        tx.vout.push_back(chain::TxOut{1000, lock_});
        for (std::size_t i = 0; i < tx.vin.size(); ++i) {
            tx.vin[i].unlock_script =
                script::make_p2pk_unlock(chain::sign_input(tx, i, lock_, key_));
        }
        tx.invalidate_cache();
        return chain::assemble_block(
            blocks_[3].header.hash(),
            chain::make_coinbase(4, params_.subsidy_at(4), lock_, 99), {tx},
            /*time=*/1004);
    }

    chain::ChainParams params_;
    util::Rng rng_{99};
    crypto::PrivateKey key_ = crypto::PrivateKey::generate(rng_);
    script::Script lock_;
    std::vector<chain::Block> blocks_;
};

TEST_F(ScenarioInflation, BaselineRejectsInputSumOverflow) {
    chain::BitcoinNodeOptions options;
    options.params = params_;
    chain::BitcoinNode node(options);
    for (const chain::Block& b : blocks_) ASSERT_TRUE(node.submit_block(b).has_value());

    auto result = node.submit_block(inflation_block());
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().error, chain::BlockError::kValueOutOfRange);
    EXPECT_EQ(result.error().tx_index, 1u);
    EXPECT_EQ(result.error().input_index, 1u);
}

TEST_F(ScenarioInflation, EbvRejectsInputSumOverflowIdentically) {
    intermediary::Converter converter;
    std::vector<core::EbvBlock> ebv;
    for (const chain::Block& b : blocks_) {
        auto converted = converter.convert_block(b);
        ASSERT_TRUE(converted.has_value());
        ebv.push_back(*converted);
    }
    auto hostile = converter.convert_block(inflation_block());
    ASSERT_TRUE(hostile.has_value());
    ebv.push_back(*hostile);

    util::ThreadPool pool(4);
    std::vector<std::unique_ptr<core::EbvNode>> nodes;
    std::optional<ibd::BatchResult> serial;
    for (const Config& cfg : kConfigs) {
        nodes.push_back(make_node(cfg, &pool, params_));
        const ibd::BatchResult result = nodes.back()->submit_blocks(ebv);
        ASSERT_TRUE(result.failure.has_value()) << cfg.name;
        if (!serial) {
            serial = result;
            EXPECT_EQ(result.failure->block_index, 4u);
            EXPECT_EQ(result.failure->failure.error, core::EbvError::kValueOutOfRange);
            EXPECT_EQ(result.failure->failure.tx_index, 1u);
            EXPECT_EQ(result.failure->failure.input_index, 1u);
        } else {
            expect_same_batch(*serial, result, cfg.name);
            expect_same_state(*nodes.front(), *nodes.back(), cfg.name);
        }
    }
}

TEST_F(ScenarioInflation, OutputSumOverflowRejectedEverywhere) {
    // A genesis coinbase with two outputs of kMaxMoney - 5 each: every
    // output is in range, the transaction total is not.
    chain::Transaction coinbase =
        chain::make_coinbase(0, params_.subsidy_at(0), lock_, 1);
    coinbase.vout.push_back(chain::TxOut{params_.subsidy_at(0), lock_});
    coinbase.invalidate_cache();
    const chain::Block block =
        chain::assemble_block(crypto::Hash256{}, std::move(coinbase), {}, 1000);

    chain::BitcoinNodeOptions options;
    options.params = params_;
    chain::BitcoinNode baseline(options);
    auto baseline_result = baseline.submit_block(block);
    ASSERT_FALSE(baseline_result.has_value());
    EXPECT_EQ(baseline_result.error().error, chain::BlockError::kValueOutOfRange);
    EXPECT_EQ(baseline_result.error().tx_index, 0u);

    intermediary::Converter converter;
    auto ebv = converter.convert_block(block);
    ASSERT_TRUE(ebv.has_value());

    util::ThreadPool pool(4);
    for (const Config& cfg : kConfigs) {
        auto node = make_node(cfg, &pool, params_);
        const std::vector<core::EbvBlock> one{*ebv};
        const ibd::BatchResult result = node->submit_blocks(one);
        ASSERT_TRUE(result.failure.has_value()) << cfg.name;
        EXPECT_EQ(result.failure->block_index, 0u) << cfg.name;
        EXPECT_EQ(result.failure->failure.error, core::EbvError::kValueOutOfRange)
            << cfg.name;
        EXPECT_EQ(result.failure->failure.tx_index, 0u) << cfg.name;
    }
}

// Seed-logged randomized soak: hundreds of blocks of valid traffic
// interleaved with random mutations, deep reorgs (sometimes past the
// pipeline window), reorg-backs, and hostile branches — all three
// configurations must agree on every accept, every reject tuple, and every
// intermediate state. Override EBV_SOAK_SEED / EBV_SOAK_BLOCKS to replay a
// failure or to scale up (the nightly CI job runs a fresh seed each time).
TEST(ScenarioSoak, RandomizedSoak) {
    std::uint64_t seed = 0x5eed2026ULL;
    if (const char* env = std::getenv("EBV_SOAK_SEED")) {
        seed = std::strtoull(env, nullptr, 0);
    }
    std::size_t total_blocks = 500;
    if (const char* env = std::getenv("EBV_SOAK_BLOCKS")) {
        total_blocks = std::strtoull(env, nullptr, 0);
    }
    std::cerr << "[soak] seed=" << seed << " blocks=" << total_blocks
              << " (replay: EBV_SOAK_SEED=" << seed << ")\n";
    RecordProperty("soak_seed", std::to_string(seed));
    RecordProperty("soak_blocks", std::to_string(total_blocks));

    const auto gen_options = matrix_gen_options(seed);
    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;
    workload::Adversary adversary(seed ^ 0xa5a5a5a5ULL);
    util::Rng dice(seed ^ 0x5c5c5c5cULL);

    util::ThreadPool pool(4);
    TempDir dirs[kConfigCount];
    std::vector<std::unique_ptr<core::EbvNode>> nodes;
    for (std::size_t i = 0; i < kConfigCount; ++i) {
        nodes.push_back(make_node(kConfigs[i], &pool, gen_options.params,
                                  dirs[i].str()));
    }

    std::vector<core::EbvBlock> all;  // the committed main chain, index == height

    const auto parity = [&](const char* when) {
        for (std::size_t i = 1; i < nodes.size(); ++i) {
            const std::string label = std::string(when) + " height=" +
                                      std::to_string(nodes[0]->next_height()) +
                                      " config=" + kConfigs[i].name;
            expect_same_state(*nodes[0], *nodes[i], label);
        }
    };
    const auto submit_all = [&](std::span<const core::EbvBlock> segment,
                                const char* when) {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const ibd::BatchResult r = nodes[i]->submit_blocks(segment);
            ASSERT_TRUE(r.ok()) << when << " config=" << kConfigs[i].name
                                << (r.failure ? r.failure->failure.describe()
                                              : std::string());
        }
    };

    while (all.size() < total_blocks && !::testing::Test::HasFailure()) {
        // Extend the main chain by a random segment.
        const std::size_t n = 1 + dice.below(24);
        const std::size_t seg_start = all.size();
        for (std::size_t i = 0; i < n; ++i) {
            auto converted = converter.convert_block(gen.next_block());
            ASSERT_TRUE(converted.has_value());
            all.push_back(*converted);
        }

        // Sometimes a hostile copy of the segment arrives first: all three
        // nodes must reject it at the same block with the same tuple, then
        // accept the clean remainder.
        if (dice.chance(0.35)) {
            std::vector<core::EbvBlock> hostile = all;
            const auto applied =
                adversary.apply_random(hostile, seg_start, &converter.archive());
            if (applied) {
                const std::span<const core::EbvBlock> bad(
                    hostile.data() + seg_start, hostile.size() - seg_start);
                std::optional<ibd::BatchResult> first;
                for (std::size_t i = 0; i < nodes.size(); ++i) {
                    const ibd::BatchResult r = nodes[i]->submit_blocks(bad);
                    const std::string label =
                        std::string("mutation=") + to_string(applied->mutation) +
                        " block=" + std::to_string(applied->block) +
                        " config=" + kConfigs[i].name;
                    ASSERT_TRUE(r.failure.has_value()) << label;
                    if (!first) {
                        first = r;
                        EXPECT_EQ(r.failure->block_index + seg_start, applied->block)
                            << label;
                    } else {
                        expect_same_batch(*first, r, label);
                    }
                }
                parity("after hostile segment");
            }
        }

        // Everyone catches up to the clean main chain.
        const std::uint32_t from = nodes[0]->next_height();
        submit_all(std::span<const core::EbvBlock>(all.data() + from,
                                                   all.size() - from),
                   "clean segment");
        parity("after clean segment");

        // Occasionally reorg: switch to a competing branch of empty blocks
        // (sometimes deeper than the pipeline window), then either the
        // branch was hostile (state must roll back) or reorg back to main.
        if (all.size() >= 6 && dice.chance(0.30)) {
            const auto tip = static_cast<std::uint32_t>(all.size());
            const std::uint32_t max_depth = std::min<std::uint32_t>(20, tip - 2);
            const std::uint32_t depth =
                1 + static_cast<std::uint32_t>(dice.below(max_depth));
            const std::uint32_t fork = tip - depth;  // first replaced height
            const bool hostile_branch = dice.chance(0.3);
            const std::size_t hostile_index = depth / 2;

            std::vector<core::EbvBlock> branch;
            crypto::Hash256 parent = all[fork - 1].header.hash();
            for (std::uint32_t j = 0; j <= depth; ++j) {
                core::EbvBlock block = empty_ebv_block(
                    parent, fork + j, gen_options.params, dice.next());
                if (hostile_branch && j == hostile_index) {
                    block.txs[0].outputs[0].value += 1;  // coinbase overpays
                    block.assign_stake_positions();
                }
                parent = block.header.hash();
                branch.push_back(std::move(block));
            }

            std::optional<core::EbvValidationFailure> first_failure;
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                auto outcome = core::reorg_to(*nodes[i], branch);
                const std::string label = std::string("reorg depth=") +
                                          std::to_string(depth) +
                                          " config=" + kConfigs[i].name;
                ASSERT_TRUE(outcome.has_value())
                    << label << ": " << to_string(outcome.error());
                if (hostile_branch) {
                    EXPECT_FALSE(outcome->switched) << label;
                    EXPECT_EQ(outcome->branch_failure.error,
                              core::EbvError::kCoinbaseValueTooHigh)
                        << label;
                    if (!first_failure) {
                        first_failure = outcome->branch_failure;
                    } else {
                        EXPECT_TRUE(*first_failure == outcome->branch_failure) << label;
                    }
                } else {
                    EXPECT_TRUE(outcome->switched) << label;
                }
            }
            parity(hostile_branch ? "after hostile branch" : "after reorg");

            if (!hostile_branch) {
                // Reorg back: the saved main suffix plus two fresh blocks.
                std::vector<core::EbvBlock> back(all.begin() + fork, all.end());
                for (int j = 0; j < 2; ++j) {
                    auto converted = converter.convert_block(gen.next_block());
                    ASSERT_TRUE(converted.has_value());
                    back.push_back(*converted);
                    all.push_back(*converted);
                }
                for (std::size_t i = 0; i < nodes.size(); ++i) {
                    auto outcome = core::reorg_to(*nodes[i], back);
                    ASSERT_TRUE(outcome.has_value())
                        << "reorg-back config=" << kConfigs[i].name << ": "
                        << to_string(outcome.error());
                    EXPECT_TRUE(outcome->switched)
                        << "reorg-back config=" << kConfigs[i].name;
                }
                parity("after reorg-back");
            }
        }
    }

    ASSERT_FALSE(::testing::Test::HasFailure())
        << "divergence found; replay with EBV_SOAK_SEED=" << seed
        << " EBV_SOAK_BLOCKS=" << total_blocks;
    EXPECT_GE(nodes[0]->next_height(), total_blocks);
}

}  // namespace
}  // namespace ebv
