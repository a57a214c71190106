// ChainBackend implementations binding the protocol engine to the two node
// types, plus the intermediary bridge (paper §VI-A): a Bitcoin-format
// downloader whose accepted blocks are converted and served to EBV-format
// peers through a second endpoint.
#pragma once

#include <memory>
#include <unordered_map>

#include "chain/node.hpp"
#include "core/node.hpp"
#include "intermediary/converter.hpp"
#include "net/protocol_node.hpp"

namespace ebv::net {

/// Backend over a validator node that stores and serves blocks of type
/// `Block` in chain format `Format`.
template <class Node, class Block, ChainFormat Format>
class NodeChainBackend : public ChainBackend {
public:
    explicit NodeChainBackend(Node& node) : node_(node) {}

    [[nodiscard]] ChainFormat format() const override { return Format; }
    [[nodiscard]] std::uint32_t block_count() const override { return node_.next_height(); }
    std::optional<crypto::Hash256> block_hash_at(std::uint32_t height) const override;
    std::optional<util::Bytes> header_at(std::uint32_t height) const override;
    std::optional<util::Bytes> block_by_hash(const crypto::Hash256& hash) const override;
    std::optional<util::Nanoseconds> accept_block(const util::Bytes& payload) override;

    /// Pre-load a locally produced block (e.g. the origin node's chain).
    void seed_block(const Block& block);

protected:
    /// Runs on the decoded block once accept_block has connected and stored
    /// it; false makes accept_block report the block as rejected.
    virtual bool on_connected(const Block&) { return true; }

private:
    Node& node_;
    std::unordered_map<crypto::Hash256, util::Bytes, crypto::Hash256Hasher> by_hash_;
};

using BitcoinChainBackend =
    NodeChainBackend<chain::BitcoinNode, chain::Block, ChainFormat::kBitcoin>;
using EbvChainBackend = NodeChainBackend<core::EbvNode, core::EbvBlock, ChainFormat::kEbv>;

/// The intermediary: its upstream backend accepts Bitcoin-format blocks
/// (validating them like any baseline node); every accepted block is
/// converted and exposed through the downstream EBV backend, whose
/// protocol endpoint serves EBV peers.
class IntermediaryBridge {
public:
    IntermediaryBridge(SimNetwork& network, netsim::Region region,
                       const chain::ChainParams& params);

    /// Upstream (Bitcoin-format) protocol endpoint — connect it to sources.
    [[nodiscard]] ProtocolNode& upstream() { return *upstream_node_; }
    /// Downstream (EBV-format) protocol endpoint — EBV nodes connect here.
    [[nodiscard]] ProtocolNode& downstream() { return *downstream_node_; }

    [[nodiscard]] std::uint32_t converted_blocks() const {
        return downstream_backend_->block_count();
    }

private:
    /// Upstream backend that also converts + seeds downstream on accept.
    class ConvertingBackend final : public BitcoinChainBackend {
    public:
        ConvertingBackend(IntermediaryBridge& owner, chain::BitcoinNode& node)
            : BitcoinChainBackend(node), owner_(owner) {}

    private:
        bool on_connected(const chain::Block& block) override;

        IntermediaryBridge& owner_;
    };

    chain::BitcoinNodeOptions btc_options_;
    std::unique_ptr<chain::BitcoinNode> btc_node_;
    std::unique_ptr<ConvertingBackend> upstream_backend_;
    std::unique_ptr<ProtocolNode> upstream_node_;

    intermediary::Converter converter_;
    core::EbvNodeOptions ebv_options_;
    std::unique_ptr<core::EbvNode> ebv_node_;
    std::unique_ptr<EbvChainBackend> downstream_backend_;
    std::unique_ptr<ProtocolNode> downstream_node_;
};

}  // namespace ebv::net
