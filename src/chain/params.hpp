// Consensus parameters. The defaults mirror Bitcoin's constants; the
// workload generator scales some of them down for laptop-sized experiments.
#pragma once

#include <cstdint>

#include "chain/amount.hpp"

namespace ebv::chain {

struct ChainParams {
    /// Blocks a coinbase must age before its outputs are spendable.
    std::uint32_t coinbase_maturity = 100;
    /// Initial per-block subsidy.
    Amount initial_subsidy = 50 * kCoin;
    /// Blocks between subsidy halvings.
    std::uint32_t halving_interval = 210'000;
    /// Upper bound on outputs per block; the paper relies on < 65536 so a
    /// 16-bit index suffices in the sparse-vector encoding.
    std::uint32_t max_outputs_per_block = 65'535;

    [[nodiscard]] Amount subsidy_at(std::uint32_t height) const {
        const std::uint32_t halvings = height / halving_interval;
        if (halvings >= 63) return 0;
        const Amount subsidy = initial_subsidy >> halvings;
        return subsidy;
    }

    /// Parameters for small simulated chains: faster maturity and halvings
    /// so era effects appear within a few thousand blocks.
    static ChainParams simnet(std::uint32_t halving = 50'000) {
        ChainParams p;
        p.coinbase_maturity = 10;
        p.halving_interval = halving;
        return p;
    }
};

}  // namespace ebv::chain
