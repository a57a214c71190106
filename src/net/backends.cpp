#include "net/backends.hpp"

namespace ebv::net {

template <class Node, class Block, ChainFormat Format>
std::optional<crypto::Hash256> NodeChainBackend<Node, Block, Format>::block_hash_at(
    std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    return header->hash();
}

template <class Node, class Block, ChainFormat Format>
std::optional<util::Bytes> NodeChainBackend<Node, Block, Format>::header_at(
    std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    util::Writer w(chain::BlockHeader::kSerializedSize);
    header->serialize(w);
    return w.take();
}

template <class Node, class Block, ChainFormat Format>
std::optional<util::Bytes> NodeChainBackend<Node, Block, Format>::block_by_hash(
    const crypto::Hash256& hash) const {
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return std::nullopt;
    return it->second;
}

template <class Node, class Block, ChainFormat Format>
std::optional<util::Nanoseconds> NodeChainBackend<Node, Block, Format>::accept_block(
    const util::Bytes& payload) {
    util::Reader r(payload);
    auto block = Block::deserialize(r);
    if (!block) return std::nullopt;

    auto result = node_.submit_block(*block);
    if (!result) return std::nullopt;

    by_hash_.emplace(block->header.hash(), payload);
    if (!on_connected(*block)) return std::nullopt;
    return result->total().total_ns();
}

template <class Node, class Block, ChainFormat Format>
void NodeChainBackend<Node, Block, Format>::seed_block(const Block& block) {
    auto result = node_.submit_block(block);
    EBV_EXPECTS(result.has_value());
    util::Writer w;
    block.serialize(w);
    by_hash_.emplace(block.header.hash(), w.take());
}

template class NodeChainBackend<chain::BitcoinNode, chain::Block, ChainFormat::kBitcoin>;
template class NodeChainBackend<core::EbvNode, core::EbvBlock, ChainFormat::kEbv>;

// -------------------------------------------------------- Intermediary ----

IntermediaryBridge::IntermediaryBridge(SimNetwork& network, netsim::Region region,
                                       const chain::ChainParams& params) {
    btc_options_.params = params;
    btc_node_ = std::make_unique<chain::BitcoinNode>(btc_options_);
    upstream_backend_ = std::make_unique<ConvertingBackend>(*this, *btc_node_);
    upstream_node_ = std::make_unique<ProtocolNode>(network, region, *upstream_backend_,
                                                    "intermediary-upstream");

    ebv_options_.params = params;
    ebv_node_ = std::make_unique<core::EbvNode>(ebv_options_);
    downstream_backend_ = std::make_unique<EbvChainBackend>(*ebv_node_);
    downstream_node_ = std::make_unique<ProtocolNode>(network, region,
                                                      *downstream_backend_,
                                                      "intermediary-downstream");
}

bool IntermediaryBridge::ConvertingBackend::on_connected(const chain::Block& block) {
    // Validated and stored like a baseline node; now reconstruct the block
    // (paper §VI-A) and feed the downstream chain.
    auto converted = owner_.converter_.convert_block(block);
    if (!converted) return false;
    const crypto::Hash256 ebv_hash = converted->header.hash();
    owner_.downstream_backend_->seed_block(*converted);
    owner_.downstream_node_->notify_local_block(ebv_hash);
    return true;
}

}  // namespace ebv::net
