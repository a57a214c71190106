// ebv::ibd determinism fixtures: the validation engine must accept and
// reject exactly the same blocks at every window size and thread count as
// the single-threaded W = 1 run — same connected count, same failing block,
// bit-for-bit the same EbvValidationFailure tuple — including chains where a
// block spends an output created (or spent) by an earlier block inside the
// same lookahead window. Also pins stage 1's check order (shape, then
// root, then values), the link of every block to the one before it, the
// engine's stage timings and its once-per-block metric accounting. The
// serial reference checks signatures one by one; the grid runs with the
// CPU's lane backend and again with the portable lanes forced, and a
// skewed chain and every standard signature shape (standard_shapes.hpp)
// run over {none, portable, auto} lanes × {1, 2, 4, 8} threads.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "chain/amount.hpp"
#include "core/node.hpp"
#include "crypto/ecdsa_lanes.hpp"
#include "ibd/pipeline.hpp"
#include "intermediary/converter.hpp"
#include "obs/metrics.hpp"
#include "script/opcodes.hpp"
#include "standard_shapes.hpp"
#include "util/thread_pool.hpp"
#include "workload/adversary.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

constexpr std::size_t kChainLen = 30;

workload::GeneratorOptions options_for(std::uint64_t seed) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

/// Pins the signature-lane backend (crypto::lanes_force_impl) for a scope;
/// "auto" keeps what the CPU selects.
class LanesScope {
public:
    explicit LanesScope(const char* impl) { EXPECT_TRUE(crypto::lanes_force_impl(impl)); }
    ~LanesScope() { crypto::lanes_force_impl("auto"); }
    LanesScope(const LanesScope&) = delete;
    LanesScope& operator=(const LanesScope&) = delete;
};

struct FinalState {
    std::size_t memory_bytes = 0;
    std::size_t vector_count = 0;
    std::uint32_t next_height = 0;
    crypto::Hash256 tip;
};

class IbdPipeline : public ::testing::Test {
protected:
    void SetUp() override {
        gen_options_ = options_for(7);
        workload::ChainGenerator gen(gen_options_);
        intermediary::Converter converter;
        for (std::size_t i = 0; i < kChainLen; ++i) {
            auto converted = converter.convert_block(gen.next_block());
            ASSERT_TRUE(converted.has_value());
            chain_.push_back(*converted);
        }
    }

    ibd::BatchResult run_batch(const std::vector<core::EbvBlock>& blocks,
                               util::ThreadPool* pool, bool pipelined,
                               std::size_t window, FinalState* out = nullptr) {
        core::EbvNodeOptions options;
        options.params = gen_options_.params;
        options.validator.script_pool = pool;
        options.pipeline.enabled = pipelined;
        options.pipeline.window = window;
        core::EbvNode node(options);
        ibd::BatchResult result = node.submit_blocks(blocks);
        if (out != nullptr) {
            out->memory_bytes = node.status().memory_bytes();
            out->vector_count = node.status().vector_count();
            out->next_height = node.next_height();
            out->tip = node.headers().tip_hash();
        }
        return result;
    }

    /// One pipelined run of the parity grid.
    struct Cell {
        std::size_t window;
        std::size_t threads;
        const char* lanes;
    };

    /// W ∈ {1, 4, 16} × {1, 2, 8} threads with the CPU's lane backend, and
    /// two cells with the portable lanes forced.
    static std::vector<Cell> window_cells() {
        std::vector<Cell> cells;
        for (const std::size_t window : {1u, 4u, 16u})
            for (const std::size_t threads : {1u, 2u, 8u})
                cells.push_back({window, threads, "auto"});
        cells.push_back({4, 2, "portable"});
        cells.push_back({16, 8, "portable"});
        return cells;
    }

    /// {none, portable, auto} lanes × {1, 2, 4, 8} threads at W = 4.
    static std::vector<Cell> lane_cells() {
        std::vector<Cell> cells;
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            for (const char* lanes : {"none", "portable", "auto"})
                cells.push_back({4, threads, lanes});
        return cells;
    }

    /// Serial with scalar signature checks vs pipelined over `cells`,
    /// expecting identical accept/reject behaviour, failure tuples and end
    /// states. Returns the serial result.
    ibd::BatchResult expect_parity(const std::vector<core::EbvBlock>& blocks,
                                   const std::vector<Cell>& cells = window_cells()) {
        FinalState serial_state;
        const ibd::BatchResult serial = [&] {
            const LanesScope scalar("none");
            return run_batch(blocks, nullptr, false, 1, &serial_state);
        }();

        for (const Cell& cell : cells) {
            const LanesScope lanes(cell.lanes);
            util::ThreadPool pool(cell.threads);
            FinalState state;
            const ibd::BatchResult piped = run_batch(blocks, &pool, true, cell.window, &state);

            const auto label = ::testing::Message() << "window=" << cell.window
                                                    << " threads=" << cell.threads
                                                    << " lanes=" << crypto::lanes_impl();
            EXPECT_EQ(serial.connected, piped.connected) << label;
            EXPECT_EQ(serial.failure.has_value(), piped.failure.has_value()) << label;
            if (serial.failure.has_value() && piped.failure.has_value()) {
                EXPECT_EQ(serial.failure->block_index, piped.failure->block_index) << label;
                EXPECT_EQ(serial.failure->height, piped.failure->height) << label;
                EXPECT_TRUE(serial.failure->failure == piped.failure->failure)
                    << label << " serial=" << serial.failure->failure.describe()
                    << " piped=" << piped.failure->failure.describe();
            }
            EXPECT_EQ(serial_state.memory_bytes, state.memory_bytes) << label;
            EXPECT_EQ(serial_state.vector_count, state.vector_count) << label;
            EXPECT_EQ(serial_state.next_height, state.next_height) << label;
            EXPECT_EQ(serial_state.tip, state.tip) << label;
        }
        return serial;
    }

    /// The serial W = 1 run must stop at `block` with exactly `expected`,
    /// and every window size and thread count must agree with it.
    void expect_serial_failure(const std::vector<core::EbvBlock>& blocks, std::size_t block,
                               const core::EbvValidationFailure& expected) {
        const ibd::BatchResult serial = [&] {
            const LanesScope scalar("none");
            return run_batch(blocks, nullptr, false, 1);
        }();
        ASSERT_TRUE(serial.failure.has_value());
        EXPECT_EQ(serial.connected, block);
        EXPECT_EQ(serial.failure->block_index, block);
        EXPECT_TRUE(serial.failure->failure == expected)
            << "serial=" << serial.failure->failure.describe()
            << " expected=" << expected.describe();
        expect_parity(blocks);
    }

    /// Index of a block at or after `from` with at least one real input.
    std::size_t block_with_inputs(std::size_t from) {
        for (std::size_t i = from; i < chain_.size(); ++i)
            if (chain_[i].input_count() > 0) return i;
        ADD_FAILURE() << "no block with inputs at or after " << from;
        return from;
    }

    /// Flip a byte of the first real input's unlocking script in `block`
    /// without touching its header: a bad signature under a stale root.
    static void break_first_signature(core::EbvBlock& block) {
        for (auto& tx : block.txs) {
            if (tx.inputs.empty()) continue;
            ASSERT_GT(tx.inputs.front().unlock_script.size(), 6u);
            tx.inputs.front().unlock_script[5] ^= 0x11;
            return;
        }
        ADD_FAILURE() << "block has no inputs";
    }

    workload::GeneratorOptions gen_options_;
    std::vector<core::EbvBlock> chain_;
};

TEST_F(IbdPipeline, EmptyBatchIsOk) {
    util::ThreadPool pool(2);
    const ibd::BatchResult result = run_batch({}, &pool, true, 4);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.connected, 0u);
}

TEST_F(IbdPipeline, ValidChainMatchesSerialAcrossWindowsAndThreads) {
    // The whole point of the dependency tracker: the workload must actually
    // contain spends that land inside a 16-block lookahead window.
    std::uint32_t min_spend_distance = UINT32_MAX;
    for (std::size_t b = 0; b < chain_.size(); ++b) {
        for (const core::EbvTransaction& tx : chain_[b].txs) {
            for (const core::EbvInput& in : tx.inputs) {
                min_spend_distance =
                    std::min(min_spend_distance, static_cast<std::uint32_t>(b) - in.height);
            }
        }
    }
    ASSERT_LT(min_spend_distance, 16u)
        << "workload has no intra-window spend chain; pick another seed";

    obs::Registry& registry = obs::Registry::global();
    const std::uint64_t windows_before = registry.counter("ebv.ibd.windows").value();
    const std::uint64_t lane_groups_before = registry.counter("ebv.crypto.lane_groups").value();
    expect_parity(chain_);
    EXPECT_GT(registry.counter("ebv.ibd.windows").value(), windows_before);
    // The portable cells ran their P2PKH signatures through the lanes.
    EXPECT_GT(registry.counter("ebv.crypto.lane_groups").value(), lane_groups_before);
}

TEST_F(IbdPipeline, BadSignatureRejectsIdentically) {
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    for (auto& tx : blocks[k].txs) {
        if (tx.inputs.empty()) continue;
        ASSERT_GT(tx.inputs.back().unlock_script.size(), 6u);
        tx.inputs.back().unlock_script[5] ^= 0x11;
        break;
    }
    blocks[k].assign_stake_positions();

    const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->block_index, k);
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kScriptFailure);
    expect_parity(blocks);
}

TEST_F(IbdPipeline, SkewedChainMatchesSerialScalarAcrossLanesAndThreads) {
    // skew = 1: about half the outputs are 1-of-M multisig, M up to 15,
    // signer last, so most candidate pairs of a block are false.
    workload::GeneratorOptions skewed = gen_options_;
    skewed.skew = 1.0;
    skewed.key_pool_size = 16;
    workload::ChainGenerator gen(skewed);
    intermediary::Converter converter;
    std::vector<core::EbvBlock> blocks;
    for (std::size_t i = 0; i < 20; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        blocks.push_back(*converted);
    }
    const obs::Counter& unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    const std::uint64_t unused_before = unused.value();
    EXPECT_TRUE(expect_parity(blocks, lane_cells()).ok());
    // 1-of-M inputs try their pairs until the signer's: the prefetch
    // verifies no pair its script skips.
    EXPECT_EQ(unused.value(), unused_before);

    // A bad signature on a 1-of-M input with M >= 3 in a late block.
    bool tampered = false;
    for (std::size_t b = blocks.size() / 2; b < blocks.size() && !tampered; ++b) {
        for (core::EbvTransaction& tx : blocks[b].txs) {
            for (core::EbvInput& in : tx.inputs) {
                const auto& lock = in.els.outputs[in.out_index].lock_script;
                if (tampered || lock.back() != script::OP_CHECKMULTISIG ||
                    lock[lock.size() - 2] < script::OP_3)
                    continue;
                in.unlock_script[5] ^= 0x11;
                tampered = true;
            }
        }
        if (tampered) blocks[b].assign_stake_positions();
    }
    ASSERT_TRUE(tampered);
    const ibd::BatchResult serial = expect_parity(blocks, lane_cells());
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kScriptFailure);
}

TEST_F(IbdPipeline, StandardShapesMatchSerialScalarAcrossLanesAndThreads) {
    const std::vector<crypto::PrivateKey> keys = shapes::shape_keys(9);
    const std::vector<shapes::ShapeCase> cases = shapes::shape_cases(keys);
    // Two outputs per case: one for the block of every honest spend, one
    // for the hostile spend's own block.
    std::vector<script::Script> locks;
    for (const shapes::ShapeCase& c : cases) {
        locks.push_back(c.lock);
        locks.push_back(c.lock);
    }
    shapes::ShapeChain chain(gen_options_.params, locks);
    std::vector<core::EbvTransaction> honest;
    for (std::size_t c = 0; c < cases.size(); ++c)
        if (cases[c].valid)
            honest.push_back(chain.spend(static_cast<std::uint16_t>(2 * c), cases[c].unlock));
    chain.add_block(honest);
    {
        SCOPED_TRACE("honest");
        EXPECT_TRUE(expect_parity(chain.blocks, lane_cells()).ok());
    }

    // Each hostile spend between honest ones, so lane groups mix them.
    for (std::size_t c = 0; c < cases.size(); ++c) {
        if (cases[c].valid) continue;
        SCOPED_TRACE(cases[c].name);
        shapes::ShapeChain hostile = chain;
        hostile.add_block({hostile.spend(1, cases[0].unlock),
                           hostile.spend(static_cast<std::uint16_t>(2 * c + 1), cases[c].unlock),
                           hostile.spend(11, cases[5].unlock)});
        const ibd::BatchResult serial = expect_parity(hostile.blocks, lane_cells());
        ASSERT_TRUE(serial.failure.has_value());
        EXPECT_EQ(serial.failure->block_index, hostile.blocks.size() - 1);
        EXPECT_EQ(serial.failure->failure.error, core::EbvError::kScriptFailure);
        EXPECT_EQ(serial.failure->failure.tx_index, 2u);
    }
}

TEST_F(IbdPipeline, ClaimOrderCannotChangeTheFailureTuple) {
    // Costliest-first claiming takes the 1-of-15 failure before the P2PKH
    // one wherever the two sit in the block; the tuple still names the
    // lower one, as the serial scalar run does.
    const std::vector<crypto::PrivateKey> keys = shapes::shape_keys(11);
    const shapes::OrderCases cases(keys);
    const std::vector<const shapes::ShapeCase*> layouts[] = {cases.block(true),
                                                             cases.block(false)};
    std::vector<script::Script> locks;
    for (const auto& layout : layouts)
        for (const shapes::ShapeCase* c : layout) locks.push_back(c->lock);
    const shapes::ShapeChain chain(gen_options_.params, locks);
    for (std::size_t l = 0; l < 2; ++l) {
        SCOPED_TRACE(l == 0 ? "cheap failure first" : "costly failure first");
        shapes::ShapeChain hostile = chain;
        std::vector<core::EbvTransaction> txs;
        for (std::size_t j = 0; j < layouts[l].size(); ++j)
            txs.push_back(hostile.spend(static_cast<std::uint16_t>(layouts[l].size() * l + j),
                                        layouts[l][j]->unlock));
        hostile.add_block(std::move(txs));
        const ibd::BatchResult serial = expect_parity(hostile.blocks, lane_cells());
        ASSERT_TRUE(serial.failure.has_value());
        EXPECT_EQ(serial.failure->block_index, hostile.blocks.size() - 1);
        EXPECT_EQ(serial.failure->failure.error, core::EbvError::kScriptFailure);
        EXPECT_EQ(serial.failure->failure.tx_index, 3u);
    }
}

TEST_F(IbdPipeline, ProofTamperOutranksLaterStructuralBreak) {
    // Block k carries a broken Merkle branch (EV failure); block k+1 in the
    // same window is structurally corrupt. The serial loop never reaches
    // k+1, so the pipeline must report k's existence failure even though
    // its structural pass saw k+1 first.
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    ASSERT_LT(k + 1, blocks.size());
    for (auto& tx : blocks[k].txs) {
        if (tx.inputs.empty()) continue;
        core::EbvInput& in = tx.inputs.front();
        if (!in.mbr.siblings.empty()) {
            in.mbr.siblings[0].bytes()[0] ^= 0x01;
        } else {
            in.els.locktime ^= 1;
        }
        break;
    }
    blocks[k].assign_stake_positions();
    blocks[k + 1].txs[0].stake_position += 7;
    blocks[k + 1].header.merkle_root = blocks[k + 1].compute_merkle_root();

    const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->block_index, k);
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kExistenceFailed);
    expect_parity(blocks);
}

TEST_F(IbdPipeline, CrossBlockDoubleSpendCaughtInsideWindow) {
    // Replay an input block k already spent into a later block v: with
    // W >= 2 both blocks are in flight at once, and block k's commit must
    // clear the bit before block v's UV reads it.
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    const std::size_t v = block_with_inputs(k + 1);
    ASSERT_LT(v, blocks.size());

    const core::EbvInput* spent = nullptr;
    for (const auto& tx : blocks[k].txs)
        if (!tx.inputs.empty()) spent = &tx.inputs.front();
    ASSERT_NE(spent, nullptr);

    std::size_t victim_tx = 0;
    for (std::size_t t = 1; t < blocks[v].txs.size(); ++t)
        if (!blocks[v].txs[t].inputs.empty()) victim_tx = t;
    ASSERT_GT(victim_tx, 0u);
    const std::size_t victim_input = blocks[v].txs[victim_tx].inputs.size();
    blocks[v].txs[victim_tx].inputs.push_back(*spent);
    blocks[v].assign_stake_positions();

    const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->block_index, v);
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kUnspentFailed);
    EXPECT_EQ(serial.failure->failure.tx_index, victim_tx);
    EXPECT_EQ(serial.failure->failure.input_index, victim_input);
    expect_parity(blocks);
}

TEST_F(IbdPipeline, CrossWindowDoubleSpendRejectsIdentically) {
    // The far variant: re-spend an input the *first* spender block consumed,
    // many windows upstream of the victim. The spent bit was cleared by a
    // block of a long-committed window — at every window size and thread
    // count the victim must report the serial tuple.
    std::vector<core::EbvBlock> blocks = chain_;
    workload::Adversary adversary(3);
    std::optional<workload::AppliedMutation> applied;
    for (std::size_t target = kChainLen - 4; target < kChainLen && !applied; ++target) {
        blocks = chain_;
        applied = adversary.apply(workload::Mutation::kCrossBlockDoubleSpendFar,
                                  blocks, target);
    }
    ASSERT_TRUE(applied.has_value());
    // The mutation steals from the earliest spender; with window 16 and a
    // target in the last few blocks that distance spans window boundaries.
    ASSERT_GE(applied->block, 16u);

    const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->block_index, applied->block);
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kUnspentFailed);
    expect_parity(blocks);
}

TEST_F(IbdPipeline, ValueRuleFailuresRejectIdentically) {
    // Stage-3 value rules (input-sum accumulation, fee bounds, coinbase
    // payout) must report the serial tuple across the whole grid.
    for (const workload::Mutation m :
         {workload::Mutation::kNegativeFee, workload::Mutation::kCoinbaseOverpay}) {
        SCOPED_TRACE(workload::to_string(m));
        std::vector<core::EbvBlock> blocks = chain_;
        workload::Adversary adversary(4);
        std::optional<workload::AppliedMutation> applied;
        for (std::size_t target = kChainLen / 2; target < kChainLen && !applied;
             ++target) {
            blocks = chain_;
            applied = adversary.apply(m, blocks, target);
        }
        ASSERT_TRUE(applied.has_value());

        const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
        ASSERT_TRUE(serial.failure.has_value());
        EXPECT_EQ(serial.failure->block_index, applied->block);
        expect_parity(blocks);
    }
}

TEST_F(IbdPipeline, StructuralFailureTupleMatches) {
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = kChainLen / 2;
    blocks[k].txs[0].stake_position += 7;
    blocks[k].header.merkle_root = blocks[k].compute_merkle_root();

    const ibd::BatchResult serial = run_batch(blocks, nullptr, false, 1);
    ASSERT_TRUE(serial.failure.has_value());
    EXPECT_EQ(serial.failure->block_index, k);
    EXPECT_EQ(serial.failure->failure.error, core::EbvError::kBadStakePosition);
    expect_parity(blocks);
}

// ---- Check order across stage 1's split (shape -> root -> values) --------
// These pin the order core::check_block_structure defines: the pipeline
// runs shape serially, hashes input bodies on the pool, then folds each
// root before checking values, and must never reorder what a serial loop
// reports.

TEST_F(IbdPipeline, StaleRootOutranksBadSignature) {
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    break_first_signature(blocks[k]);
    expect_serial_failure(blocks, k, {core::EbvError::kMerkleRootMismatch, 0, 0});
}

TEST_F(IbdPipeline, StaleRootOutranksOutputSumOverflow) {
    std::vector<core::EbvBlock> blocks = chain_;
    std::size_t k = kChainLen / 2;
    std::size_t t = 0;
    for (; k < blocks.size(); ++k) {
        for (t = 0; t < blocks[k].txs.size(); ++t)
            if (blocks[k].txs[t].outputs.size() >= 2) break;
        if (t < blocks[k].txs.size()) break;
    }
    ASSERT_LT(k, blocks.size()) << "no transaction with two outputs";
    // Each output is in range; their sum is not.
    for (auto& out : blocks[k].txs[t].outputs) out.value = chain::kMaxMoney;

    core::EbvBlock rerooted = blocks[k];
    rerooted.header.merkle_root = rerooted.compute_merkle_root();
    const auto values = core::check_block_structure(rerooted, gen_options_.params);
    ASSERT_TRUE(values.has_value());
    EXPECT_TRUE((*values == core::EbvValidationFailure{core::EbvError::kValueOutOfRange, t}));

    expect_serial_failure(blocks, k, {core::EbvError::kMerkleRootMismatch, 0, 0});
}

TEST_F(IbdPipeline, BadStakePositionOutranksStaleRoot) {
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    ASSERT_GE(blocks[k].txs.size(), 2u);
    blocks[k].txs[1].stake_position += 1;  // root left stale
    expect_serial_failure(blocks, k, {core::EbvError::kBadStakePosition, 1, 0});
}

TEST_F(IbdPipeline, EarlierDoubleSpendOutranksLaterStaleRoot) {
    // Block v re-spends an input block k already spent (its root rebuilt
    // and the chain relinked after it); a later block w in reach of the
    // same window carries a stale root. v's UV failure must win although
    // stage 1 sees w's root first.
    std::vector<core::EbvBlock> blocks = chain_;
    const std::size_t k = block_with_inputs(kChainLen / 2);
    const std::size_t v = block_with_inputs(k + 1);
    const std::size_t w = block_with_inputs(v + 1);
    ASSERT_LT(w, blocks.size());

    const core::EbvInput* spent = nullptr;
    for (const auto& tx : blocks[k].txs)
        if (!tx.inputs.empty()) spent = &tx.inputs.front();
    ASSERT_NE(spent, nullptr);
    std::size_t victim_tx = 0;
    for (std::size_t t = 1; t < blocks[v].txs.size(); ++t)
        if (!blocks[v].txs[t].inputs.empty()) victim_tx = t;
    ASSERT_GT(victim_tx, 0u);
    const std::size_t victim_input = blocks[v].txs[victim_tx].inputs.size();
    blocks[v].txs[victim_tx].inputs.push_back(*spent);
    blocks[v].assign_stake_positions();
    // v's header changed: relink the rest so w fails on its root alone.
    for (std::size_t i = v + 1; i < blocks.size(); ++i)
        blocks[i].header.prev_hash = blocks[i - 1].header.hash();
    break_first_signature(blocks[w]);

    expect_serial_failure(blocks, v,
                          {core::EbvError::kUnspentFailed, victim_tx, victim_input});
}

TEST_F(IbdPipeline, StaleRootRunsNoProofPass) {
    // A structurally rejected block never reaches EV or SV: a stale root
    // must cost no ECDSA work, so a one-block batch reports no EV/SV time.
    const std::size_t k = block_with_inputs(kChainLen / 2);
    core::EbvBlock stale = chain_[k];
    break_first_signature(stale);

    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        util::ThreadPool pool(threads);
        core::EbvNodeOptions options;
        options.params = gen_options_.params;
        options.validator.script_pool = &pool;
        options.pipeline.enabled = true;
        core::EbvNode node(options);
        ASSERT_TRUE(node.submit_blocks(std::span(chain_).first(k)).ok());

        const ibd::BatchResult result = node.submit_blocks(std::span(&stale, 1));
        ASSERT_TRUE(result.failure.has_value());
        EXPECT_EQ(result.failure->failure.error, core::EbvError::kMerkleRootMismatch);
        EXPECT_EQ(result.connected, 0u);
        EXPECT_EQ(result.timings.ev.total_ns(), 0);
        EXPECT_EQ(result.timings.sv.total_ns(), 0);
    }
}

// ---- Blocks that do not extend the tip -------------------------------------

TEST_F(IbdPipeline, BlockNotExtendingTipLeavesStateUnchanged) {
    // Each rejected block is the chain's own next block with only its
    // prev_hash changed: every other check passes, so the link check alone
    // keeps it off the tip.
    util::ThreadPool pool(2);
    core::EbvNodeOptions options;
    options.params = gen_options_.params;
    options.validator.script_pool = &pool;
    core::EbvNode node(options);
    const core::EbvValidationFailure bad_prev{core::EbvError::kBadPrevHash};

    // Genesis must link to the zero hash.
    core::EbvBlock genesis = chain_[0];
    genesis.header.prev_hash.bytes()[0] = 0x01;
    auto rejected = node.submit_block(genesis);
    ASSERT_FALSE(rejected.has_value());
    EXPECT_TRUE(rejected.error() == bad_prev);
    EXPECT_EQ(node.next_height(), 0u);
    EXPECT_EQ(node.status().vector_count(), 0u);

    const std::size_t k = block_with_inputs(kChainLen / 2);
    for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(node.submit_block(chain_[i]));
    const crypto::Hash256 tip = node.headers().tip_hash();
    const core::BitVectorSet status = node.status();

    core::EbvBlock fork = chain_[k];  // a sibling of the tip
    fork.header.prev_hash = chain_[k - 2].header.hash();
    core::EbvBlock stray = chain_[k];  // links to no known block
    stray.header.prev_hash.bytes()[0] ^= 0x01;
    for (const core::EbvBlock* bad : {&fork, &stray}) {
        SCOPED_TRACE(bad == &fork ? "fork" : "stray");
        rejected = node.submit_block(*bad);
        ASSERT_FALSE(rejected.has_value());
        EXPECT_TRUE(rejected.error() == bad_prev);
        EXPECT_EQ(node.next_height(), k);
        EXPECT_EQ(node.headers().tip_hash(), tip);
        EXPECT_TRUE(node.status() == status);
    }
    EXPECT_TRUE(node.submit_block(chain_[k]));
}

TEST_F(IbdPipeline, BrokenLinkInsideWindowCommitsPrefix) {
    std::vector<core::EbvBlock> blocks(chain_.begin(), chain_.begin() + 16);
    const std::size_t k = 9;
    blocks[k].header.prev_hash.bytes()[0] ^= 0x01;

    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        util::ThreadPool pool(threads);
        FinalState state;
        const ibd::BatchResult result = run_batch(blocks, &pool, true, 16, &state);
        EXPECT_EQ(result.connected, k);
        ASSERT_TRUE(result.failure.has_value());
        EXPECT_EQ(result.failure->block_index, k);
        EXPECT_EQ(result.failure->height, k);
        EXPECT_TRUE(result.failure->failure ==
                    core::EbvValidationFailure{core::EbvError::kBadPrevHash});
        EXPECT_EQ(state.next_height, k);
        EXPECT_EQ(state.tip, blocks[k - 1].header.hash());
    }
    expect_parity(blocks);
}

TEST_F(IbdPipeline, CommitHookSeesTheBlocksSpends) {
    // A block's spends are applied at its commit, before the hook runs: a
    // block store or a snapshot taken from the hook sees them.
    for (const std::size_t window : {1u, 16u}) {
        util::ThreadPool pool(2);
        core::EbvValidatorOptions options;
        options.script_pool = &pool;
        chain::HeaderIndex headers;
        core::BitVectorSet status;
        ibd::Pipeline pipeline(gen_options_.params, headers, status, options, window);

        std::size_t inputs_seen = 0;
        const ibd::BatchResult result =
            pipeline.run(chain_, [&](const core::EbvBlock& block, std::uint32_t height) {
                EXPECT_TRUE(status.has_vector(height));
                for (std::size_t t = 1; t < block.txs.size(); ++t) {
                    for (const core::EbvInput& in : block.txs[t].inputs) {
                        EXPECT_FALSE(
                            status.check_unspent(in.height, in.absolute_position()).has_value())
                            << "window=" << window << " height=" << height << " tx=" << t;
                        ++inputs_seen;
                    }
                }
            });
        ASSERT_TRUE(result.ok()) << "window=" << window;
        EXPECT_EQ(result.connected, chain_.size());
        EXPECT_GT(inputs_seen, 0u);
    }
}

TEST_F(IbdPipeline, CommitHookTimeIsInNoStage) {
    // The commit hook (a block store append on a persisting node) and the
    // header install belong to no stage: the stages partition validation
    // time, so they never sum past the run's wall time, and a slow hook
    // cannot land in UV.
    util::ThreadPool pool(2);
    core::EbvValidatorOptions options;
    options.script_pool = &pool;
    chain::HeaderIndex headers;
    core::BitVectorSet status;
    ibd::Pipeline pipeline(gen_options_.params, headers, status, options, /*window=*/4);

    constexpr auto kSleep = std::chrono::milliseconds(2);
    const ibd::BatchResult result =
        pipeline.run(chain_, [&](const core::EbvBlock&, std::uint32_t) {
            std::this_thread::sleep_for(kSleep);
        });
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.connected, chain_.size());

    const std::int64_t total_sleep_ns =
        std::chrono::nanoseconds(kSleep).count() * static_cast<std::int64_t>(chain_.size());
    EXPECT_LE(result.timings.total().wall_ns, static_cast<std::int64_t>(result.wall_ns));
    EXPECT_LT(result.timings.uv.wall_ns, total_sleep_ns);
    EXPECT_LT(result.timings.update.wall_ns, total_sleep_ns);
}

TEST_F(IbdPipeline, BlockMetricsCountEachBlockOnce) {
    obs::Registry& registry = obs::Registry::global();
    const char* const kCounters[] = {"ebv.block.connects", "ebv.block.rejects",
                                     "ebv.block.txs", "ebv.block.inputs",
                                     "ebv.block.outputs"};
    std::uint64_t txs = 0;
    std::uint64_t inputs = 0;
    std::uint64_t outputs = 0;
    for (const core::EbvBlock& block : chain_) {
        txs += block.txs.size();
        inputs += block.input_count();
        outputs += block.output_count();
    }
    // Replayed on top of the chain, a block with inputs re-spends them:
    // one reject after the chain's connects.
    const core::EbvBlock& replay = chain_[block_with_inputs(1)];

    struct Snapshot {
        std::uint64_t counters[5];
        std::uint64_t total_ns_count;
        std::uint64_t windows;
    };
    const auto snapshot = [&] {
        Snapshot s{};
        for (std::size_t i = 0; i < 5; ++i)
            s.counters[i] = registry.counter(kCounters[i]).value();
        s.total_ns_count = registry.histogram("ebv.block.total_ns").count();
        s.windows = registry.counter("ebv.ibd.windows").value();
        return s;
    };
    const auto expect_deltas = [&](const Snapshot& before, std::uint64_t observations) {
        const Snapshot after = snapshot();
        const std::uint64_t expected[5] = {chain_.size(), 1, txs, inputs, outputs};
        for (std::size_t i = 0; i < 5; ++i)
            EXPECT_EQ(after.counters[i] - before.counters[i], expected[i]) << kCounters[i];
        EXPECT_EQ(after.total_ns_count - before.total_ns_count, observations);
        EXPECT_EQ(after.windows - before.windows, observations);
    };

    util::ThreadPool pool(2);
    core::EbvNodeOptions options;
    options.params = gen_options_.params;
    options.validator.script_pool = &pool;
    {
        SCOPED_TRACE("submit_block");
        core::EbvNode node(options);
        const Snapshot before = snapshot();
        for (const core::EbvBlock& block : chain_) ASSERT_TRUE(node.submit_block(block));
        ASSERT_FALSE(node.submit_block(replay));
        // One stage observation (and one window) per submit_block.
        expect_deltas(before, chain_.size() + 1);
    }
    for (const std::size_t window : {1u, 16u}) {
        SCOPED_TRACE(::testing::Message() << "submit_blocks window=" << window);
        options.pipeline.enabled = true;
        options.pipeline.window = window;
        core::EbvNode node(options);
        const Snapshot before = snapshot();
        ASSERT_TRUE(node.submit_blocks(chain_).ok());
        ASSERT_FALSE(node.submit_blocks(std::span(&replay, 1)).ok());
        // One stage observation per window.
        const std::uint64_t windows = (chain_.size() + window - 1) / window + 1;
        expect_deltas(before, windows);
    }
}

}  // namespace
}  // namespace ebv
