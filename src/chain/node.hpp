// A baseline (Bitcoin-style) validator node: header index + UTXO set over a
// pluggable status database + the validation pipeline. This is the system
// the paper measures in Figs 4/5 and compares EBV against in Figs 14-18.
#pragma once

#include <memory>
#include <string>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "chain/utxo_set.hpp"
#include "chain/validation.hpp"
#include "storage/disk_hash_table.hpp"
#include "storage/mem_kvstore.hpp"

namespace ebv::chain {

struct BitcoinNodeOptions {
    ChainParams params = ChainParams::simnet();
    /// Directory for the status database and block files; empty = pure
    /// in-memory status store (no disk, no latency model).
    std::string data_dir;
    /// Status-database cache budget — the paper's "memory limit".
    std::size_t memory_limit_bytes = 500u << 20;
    storage::DeviceProfile device = storage::DeviceProfile::hdd();
    ValidatorOptions validator;
};

class BitcoinNode {
public:
    explicit BitcoinNode(const BitcoinNodeOptions& options);

    /// Validate and connect the next block. Height is implied (tip + 1, or
    /// 0 for the first block).
    util::Result<BlockTimings, ValidationFailure> submit_block(const Block& block);

    [[nodiscard]] const HeaderIndex& headers() const { return headers_; }
    [[nodiscard]] UtxoSet& utxo() { return *utxo_; }
    [[nodiscard]] storage::StatusDb& status_db() { return *status_db_; }
    [[nodiscard]] std::uint32_t next_height() const {
        return headers_.empty() ? 0 : headers_.height() + 1;
    }

    /// The memory the *status data* needs: resident cache for a disk store,
    /// full payload for an in-memory store. The paper's Fig 14 metric.
    [[nodiscard]] std::uint64_t status_memory_bytes() const;
    /// Full dataset size (what a node would need to hold it all in RAM).
    [[nodiscard]] std::uint64_t status_payload_bytes() const {
        return store_->payload_bytes();
    }

private:
    BitcoinNodeOptions options_;
    std::unique_ptr<storage::KvStore> store_;
    storage::DiskHashTable* disk_store_ = nullptr;  // non-owning view of store_
    std::unique_ptr<storage::StatusDb> status_db_;
    std::unique_ptr<UtxoSet> utxo_;
    HeaderIndex headers_;
};

}  // namespace ebv::chain
