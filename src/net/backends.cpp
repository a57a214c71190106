#include "net/backends.hpp"

namespace ebv::net {

namespace {

template <typename BlockT>
util::Bytes serialize_block(const BlockT& block) {
    util::Writer w;
    block.serialize(w);
    return w.take();
}

std::optional<chain::BlockHeader> peek_header(const util::Bytes& payload) {
    util::Reader r(payload);
    auto header = chain::BlockHeader::deserialize(r);
    if (!header) return std::nullopt;
    return *header;
}

}  // namespace

// ------------------------------------------------------------- Bitcoin ----

std::optional<crypto::Hash256> BitcoinChainBackend::block_hash_at(
    std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    return header->hash();
}

std::optional<util::Bytes> BitcoinChainBackend::header_at(std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    util::Writer w(chain::BlockHeader::kSerializedSize);
    header->serialize(w);
    return w.take();
}

std::optional<util::Bytes> BitcoinChainBackend::block_by_hash(
    const crypto::Hash256& hash) const {
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return std::nullopt;
    return it->second;
}

std::optional<crypto::Hash256> BitcoinChainBackend::peek_prev_hash(
    const util::Bytes& payload) const {
    const auto header = peek_header(payload);
    if (!header) return std::nullopt;
    return header->prev_hash;
}

std::optional<crypto::Hash256> BitcoinChainBackend::peek_hash(
    const util::Bytes& payload) const {
    const auto header = peek_header(payload);
    if (!header) return std::nullopt;
    return header->hash();
}

std::optional<util::Nanoseconds> BitcoinChainBackend::accept_block(
    const util::Bytes& payload) {
    util::Reader r(payload);
    auto block = chain::Block::deserialize(r);
    if (!block) return std::nullopt;

    auto result = node_.submit_block(*block);
    if (!result) return std::nullopt;

    by_hash_.emplace(block->header.hash(), payload);
    return result->total().total_ns();
}

void BitcoinChainBackend::seed_block(const chain::Block& block) {
    auto result = node_.submit_block(block);
    EBV_EXPECTS(result.has_value());
    by_hash_.emplace(block.header.hash(), serialize_block(block));
}

// ----------------------------------------------------------------- EBV ----

std::optional<crypto::Hash256> EbvChainBackend::block_hash_at(
    std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    return header->hash();
}

std::optional<util::Bytes> EbvChainBackend::header_at(std::uint32_t height) const {
    const auto* header = node_.headers().at(height);
    if (header == nullptr) return std::nullopt;
    util::Writer w(chain::BlockHeader::kSerializedSize);
    header->serialize(w);
    return w.take();
}

std::optional<util::Bytes> EbvChainBackend::block_by_hash(
    const crypto::Hash256& hash) const {
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return std::nullopt;
    return it->second;
}

std::optional<crypto::Hash256> EbvChainBackend::peek_prev_hash(
    const util::Bytes& payload) const {
    const auto header = peek_header(payload);
    if (!header) return std::nullopt;
    return header->prev_hash;
}

std::optional<crypto::Hash256> EbvChainBackend::peek_hash(
    const util::Bytes& payload) const {
    const auto header = peek_header(payload);
    if (!header) return std::nullopt;
    return header->hash();
}

std::optional<util::Nanoseconds> EbvChainBackend::accept_block(
    const util::Bytes& payload) {
    util::Reader r(payload);
    auto block = core::EbvBlock::deserialize(r);
    if (!block) return std::nullopt;

    auto result = node_.submit_block(*block);
    if (!result) return std::nullopt;

    by_hash_.emplace(block->header.hash(), payload);
    return result->total().total_ns();
}

void EbvChainBackend::seed_block(const core::EbvBlock& block) {
    auto result = node_.submit_block(block);
    EBV_EXPECTS(result.has_value());
    by_hash_.emplace(block.header.hash(), serialize_block(block));
}

// -------------------------------------------------------- Intermediary ----

IntermediaryBridge::IntermediaryBridge(SimNetwork& network, netsim::Region region,
                                       const chain::ChainParams& params) {
    btc_options_.params = params;
    btc_node_ = std::make_unique<chain::BitcoinNode>(btc_options_);
    btc_backend_ = std::make_unique<BitcoinChainBackend>(*btc_node_);
    upstream_backend_ = std::make_unique<ConvertingBackend>(*this);
    upstream_node_ = std::make_unique<ProtocolNode>(network, region, *upstream_backend_,
                                                    "intermediary-upstream");

    ebv_options_.params = params;
    ebv_node_ = std::make_unique<core::EbvNode>(ebv_options_);
    downstream_backend_ = std::make_unique<EbvChainBackend>(*ebv_node_);
    downstream_node_ = std::make_unique<ProtocolNode>(network, region,
                                                      *downstream_backend_,
                                                      "intermediary-downstream");
}

std::optional<util::Nanoseconds> IntermediaryBridge::ConvertingBackend::accept_block(
    const util::Bytes& payload) {
    // Validate + store like a baseline node first.
    const auto cost = owner_.btc_backend_->accept_block(payload);
    if (!cost) return std::nullopt;

    // Reconstruct the block (paper §VI-A) and feed the downstream chain.
    util::Reader r(payload);
    auto block = chain::Block::deserialize(r);
    EBV_ASSERT(block.has_value());
    auto converted = owner_.converter_.convert_block(*block);
    if (!converted) return std::nullopt;
    const crypto::Hash256 ebv_hash = converted->header.hash();
    owner_.downstream_backend_->seed_block(*converted);
    owner_.downstream_node_->notify_local_block(ebv_hash);
    return cost;
}

}  // namespace ebv::net
