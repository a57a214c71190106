#include "core/node.hpp"

#include "util/assert.hpp"

namespace ebv::core {

EbvNode::EbvNode(const EbvNodeOptions& options) : options_(options) {
    if (!options.data_dir.empty()) {
        block_store_ = std::make_unique<storage::FlatStore<EbvBlock>>(options.data_dir +
                                                                      "/ebv_blocks.dat");
    }
}

util::Result<EbvTimings, EbvValidationFailure> EbvNode::submit_block(
    const EbvBlock& block) {
    const ibd::BatchResult result = connect(std::span(&block, 1), 1);
    if (result.failure) return util::Unexpected{result.failure->failure};
    return result.timings;
}

ibd::BatchResult EbvNode::submit_blocks(std::span<const EbvBlock> blocks) {
    return connect(blocks, options_.pipeline.enabled ? options_.pipeline.window : 1);
}

ibd::BatchResult EbvNode::connect(std::span<const EbvBlock> blocks, std::size_t window) {
    ibd::Pipeline engine(options_.params, headers_, status_, options_.validator, window);
    return engine.run(blocks, [&](const EbvBlock& block, std::uint32_t) {
        output_counts_.push_back(static_cast<std::uint32_t>(block.output_count()));
        if (block_store_) block_store_->append(block);
    });
}

bool EbvNode::save_snapshot(const std::string& path) const {
    util::Writer w;
    w.u32(static_cast<std::uint32_t>(headers_.size()));
    for (std::uint32_t h = 0; h < headers_.size(); ++h) {
        headers_.at(h)->serialize(w);
        w.u32(output_counts_[h]);
    }
    status_.serialize(w);
    return util::write_file_atomic(path, w.data());
}

util::Result<std::unique_ptr<EbvNode>, util::DecodeError> EbvNode::load_snapshot(
    const std::string& path, const EbvNodeOptions& options) {
    auto data = util::read_file(path);
    if (!data) return util::Unexpected{data.error()};

    util::Reader r(*data);
    auto count = r.u32();
    if (!count) return util::Unexpected{count.error()};

    auto node = std::make_unique<EbvNode>(options);
    for (std::uint32_t h = 0; h < *count; ++h) {
        auto header = chain::BlockHeader::deserialize(r);
        if (!header) return util::Unexpected{header.error()};
        auto outputs = r.u32();
        if (!outputs) return util::Unexpected{outputs.error()};
        if (!node->headers_.append(*header))
            return util::Unexpected{util::DecodeError::kMalformed};
        node->output_counts_.push_back(*outputs);
    }

    auto status = BitVectorSet::deserialize(r);
    if (!status) return util::Unexpected{status.error()};
    // Nothing may follow the set, and every vector must match a loaded
    // header's output count: UV verdicts and disconnect_tip trust both.
    if (!r.empty() || !status->fits(node->output_counts_))
        return util::Unexpected{util::DecodeError::kMalformed};
    node->status_ = std::move(*status);
    return node;
}

bool EbvNode::disconnect_tip(const EbvBlock& tip) {
    if (headers_.empty()) return false;
    const std::uint32_t tip_height = headers_.height();
    if (tip.header.hash() != headers_.tip_hash()) return false;

    // Un-spend every input (skip the coinbase at index 0).
    for (std::size_t t = 1; t < tip.txs.size(); ++t) {
        for (const EbvInput& in : tip.txs[t].inputs) {
            const bool restored = status_.unspend(in.height, in.absolute_position(),
                                                  output_counts_[in.height]);
            EBV_ASSERT(restored);
        }
    }
    status_.remove_block(tip_height);

    headers_.pop_tip();
    output_counts_.pop_back();
    if (block_store_) block_store_->truncate(tip_height);
    return true;
}

}  // namespace ebv::core
