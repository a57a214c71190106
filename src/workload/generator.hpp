// Deterministic synthetic chain generator. Produces Bitcoin-format blocks
// whose statistics follow an EraSchedule; the intermediary converter then
// yields the matching EBV chain. Two modes:
//   signed   — every input carries a real ECDSA signature over the correct
//              sighash (validators run full SV); costs real signing time.
//   unsigned — unlocking scripts are shape-realistic dummies (validators
//              run with SV disabled); used for memory/size experiments
//              where script execution is irrelevant.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "chain/params.hpp"
#include "crypto/ecdsa.hpp"
#include "util/rng.hpp"
#include "workload/era.hpp"

namespace ebv::workload {

struct GeneratorOptions {
    std::uint64_t seed = 1;
    chain::ChainParams params = chain::ChainParams::simnet();
    EraSchedule schedule = EraSchedule::bitcoin_mainnet();
    /// Generated block i maps to real height i * height_scale on the era
    /// axis (100 ⇒ a 6,500-block run traverses the 650k-block history).
    double height_scale = 100.0;
    /// Multiplier on the schedule's tx_per_block (laptop-sized default).
    double intensity = 0.2;
    bool signed_mode = true;
    /// Number of distinct keys cycled through output destinations.
    std::size_t key_pool_size = 64;
    /// Heavy-tail exponent for per-input script cost (0 = off, the
    /// default). When > 0 each output rolls a Zipf-style weight
    /// M = floor(u^-skew): M >= 2 locks the output to a 1-of-M bare
    /// multisig whose signer key is listed *last*, so spending it costs M
    /// real ECDSA verifies (the interpreter tries keys in order). skew = 1
    /// makes ~half the outputs heavy with a power-law tail out to M = 15:
    /// the skewed per-input cost the SV claim order (chain::claim_order)
    /// balances.
    double skew = 0.0;
};

class ChainGenerator {
public:
    explicit ChainGenerator(const GeneratorOptions& options);

    /// Generate, record, and return the next block.
    chain::Block next_block();

    /// Duplicate the generator's full state (key pool, spendable set, tip)
    /// and reseed the copy's RNG with `salt`, so the copy emits a *different
    /// but valid* continuation from the same fork point — the raw material
    /// for competing reorg branches (tests/scenario_matrix_test.cpp).
    [[nodiscard]] ChainGenerator fork(std::uint64_t salt) const;

    [[nodiscard]] std::uint32_t height() const { return next_height_; }
    [[nodiscard]] std::size_t utxo_pool_size() const { return pool_.size(); }
    [[nodiscard]] const GeneratorOptions& options() const { return options_; }

private:
    struct Spendable {
        chain::OutPoint outpoint;
        chain::Amount value;
        std::uint32_t height;
        bool coinbase;
        std::uint32_t key_id;       ///< signer for this output
        /// 0 = P2PKH, 1 = P2PK, 2 = multisig 1-of-2; 0x80 | M = skewed-cost
        /// 1-of-M multisig with the signer key last (see GeneratorOptions::skew).
        std::uint8_t script_kind;
    };

    script::Script lock_script_for(std::uint32_t key_id, std::uint8_t kind) const;
    script::Script unlock_script_for(const chain::Transaction& tx, std::size_t input_index,
                                     const Spendable& spent) const;
    std::uint8_t pick_script_kind(const EraPoint& era);

    /// Pick and remove a spendable output (age-biased per the era).
    bool pick_input(const EraPoint& era, Spendable& out);

    GeneratorOptions options_;
    util::Rng rng_;
    std::vector<crypto::PrivateKey> keys_;
    std::vector<crypto::PublicKey> pubkeys_;
    std::vector<crypto::Hash160> key_hashes_;

    std::vector<Spendable> pool_;
    std::uint32_t next_height_ = 0;
    crypto::Hash256 tip_hash_;
};

}  // namespace ebv::workload
