#include "chain/node.hpp"

#include "util/assert.hpp"

namespace ebv::chain {

BitcoinNode::BitcoinNode(const BitcoinNodeOptions& options) : options_(options) {
    if (options.data_dir.empty()) {
        store_ = std::make_unique<storage::MemKvStore>();
    } else {
        storage::DiskHashTable::Options db_options;
        db_options.cache_budget_bytes = options.memory_limit_bytes;
        db_options.device = options.device;
        auto disk =
            std::make_unique<storage::DiskHashTable>(options.data_dir + "/utxo.db", db_options);
        disk_store_ = disk.get();
        store_ = std::move(disk);
    }
    status_db_ = std::make_unique<storage::StatusDb>(*store_);
    utxo_ = std::make_unique<UtxoSet>(*status_db_);
}

util::Result<BlockTimings, ValidationFailure> BitcoinNode::submit_block(const Block& block) {
    if (block.header.prev_hash != headers_.tip_hash())
        return util::Unexpected{ValidationFailure{BlockError::kBadPrevHash}};
    const std::uint32_t height = next_height();
    BitcoinValidator validator(options_.params, *utxo_, options_.validator);
    auto result = validator.connect_block(block, height);
    if (!result) return result;

    const bool linked = headers_.append(block.header);
    EBV_ENSURES(linked);
    return result;
}

std::uint64_t BitcoinNode::status_memory_bytes() const {
    if (disk_store_ == nullptr) return store_->payload_bytes();
    // For a disk-backed store the memory requirement is the cache budget
    // actually in use.
    return disk_store_->file_pages() * storage::PagedFile::kPageSize >
                   options_.memory_limit_bytes
               ? options_.memory_limit_bytes
               : disk_store_->file_pages() * storage::PagedFile::kPageSize;
}

}  // namespace ebv::chain
