// Protocol-level integration: IBD over the simulated wire, gossip relay,
// and the full three-node testbed of paper §VI-A (source → intermediary →
// EBV node) running on real messages.
#include <gtest/gtest.h>

#include "chain/miner.hpp"
#include "net/backends.hpp"
#include "workload/generator.hpp"

namespace ebv::net {
namespace {

workload::GeneratorOptions small_chain_options() {
    workload::GeneratorOptions options;
    options.seed = 17;
    options.params.coinbase_maturity = 5;
    options.schedule = workload::EraSchedule::flat(3.0, 1.5, 2.0);
    options.height_scale = 1.0;
    options.intensity = 1.0;
    options.key_pool_size = 8;
    return options;
}

/// A source node pre-loaded with `count` generated blocks.
struct SeededSource {
    explicit SeededSource(SimNetwork& network, int count)
        : gen_options(small_chain_options()),
          node_options{},
          node{(node_options.params = gen_options.params, node_options)},
          backend(node),
          protocol(network, netsim::Region::kUsEast, backend, "source") {
        workload::ChainGenerator generator(gen_options);
        for (int i = 0; i < count; ++i) backend.seed_block(generator.next_block());
    }

    workload::GeneratorOptions gen_options;
    chain::BitcoinNodeOptions node_options;
    chain::BitcoinNode node;
    BitcoinChainBackend backend;
    ProtocolNode protocol;
};

TEST(NetProtocol, IbdSyncsFullChainOverWire) {
    SimNetwork network(3);
    SeededSource source(network, 30);

    chain::BitcoinNodeOptions sink_options;
    sink_options.params = source.gen_options.params;
    chain::BitcoinNode sink_node(sink_options);
    BitcoinChainBackend sink_backend(sink_node);
    ProtocolNode sink(network, netsim::Region::kEuCentral, sink_backend, "sink");

    sink.connect_to(source.protocol.id());
    network.run();

    EXPECT_EQ(sink_node.next_height(), 30u);
    EXPECT_EQ(sink.stats().blocks_connected, 30u);
    EXPECT_EQ(sink.stats().blocks_rejected, 0u);
    EXPECT_GT(sink.stats().bytes_in, 0u);
    // Connect times are monotone simulated timestamps.
    const auto& times = sink.stats().connect_times;
    ASSERT_EQ(times.size(), 30u);
    for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GE(times[i], times[i - 1]);
}

TEST(NetProtocol, GossipRelayReachesAllNodes) {
    SimNetwork network(5);
    SeededSource source(network, 12);

    // Four downstream baseline nodes in a line + one extra edge: blocks
    // must reach the far end via relay, not direct connection.
    std::vector<std::unique_ptr<chain::BitcoinNode>> nodes;
    std::vector<std::unique_ptr<BitcoinChainBackend>> backends;
    std::vector<std::unique_ptr<ProtocolNode>> protocols;
    for (int i = 0; i < 4; ++i) {
        chain::BitcoinNodeOptions options;
        options.params = source.gen_options.params;
        nodes.push_back(std::make_unique<chain::BitcoinNode>(options));
        backends.push_back(std::make_unique<BitcoinChainBackend>(*nodes.back()));
        protocols.push_back(std::make_unique<ProtocolNode>(
            network, static_cast<netsim::Region>(i % netsim::kRegionCount),
            *backends.back(), "relay-" + std::to_string(i)));
    }
    protocols[0]->connect_to(source.protocol.id());
    protocols[1]->connect_to(protocols[0]->id());
    protocols[2]->connect_to(protocols[1]->id());
    protocols[3]->connect_to(protocols[2]->id());
    network.run();

    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(nodes[i]->next_height(), 12u) << "node " << i;
    }
    // The far node received everything strictly later than the near node.
    EXPECT_GT(protocols[3]->stats().connect_times.back(),
              protocols[0]->stats().connect_times.back());
}

TEST(NetProtocol, ThreeNodeTestbedBitcoinToEbv) {
    // The paper's evaluation setup (§VI-A): a Bitcoin source node, the
    // intermediary that reconstructs inputs, and an EBV destination node —
    // all talking the wire protocol.
    SimNetwork network(7);
    SeededSource source(network, 25);

    IntermediaryBridge bridge(network, netsim::Region::kUsWest,
                              source.gen_options.params);

    core::EbvNodeOptions ebv_options;
    ebv_options.params = source.gen_options.params;
    core::EbvNode ebv_node(ebv_options);
    EbvChainBackend ebv_backend(ebv_node);
    ProtocolNode ebv_protocol(network, netsim::Region::kApTokyo, ebv_backend, "ebv");

    bridge.upstream().connect_to(source.protocol.id());
    ebv_protocol.connect_to(bridge.downstream().id());
    network.run();

    EXPECT_EQ(bridge.converted_blocks(), 25u);
    EXPECT_EQ(ebv_node.next_height(), 25u);
    EXPECT_EQ(ebv_protocol.stats().blocks_rejected, 0u);
    EXPECT_GT(ebv_node.status_memory_bytes(), 0u);
}

TEST(NetProtocol, LateJoinerCatchesUpFromEbvPeer) {
    // EBV-to-EBV sync: once a node has the converted chain it can serve
    // other EBV nodes directly (no intermediary needed downstream).
    SimNetwork network(9);
    SeededSource source(network, 15);
    IntermediaryBridge bridge(network, netsim::Region::kUsWest,
                              source.gen_options.params);

    core::EbvNodeOptions options;
    options.params = source.gen_options.params;
    core::EbvNode first_node(options);
    EbvChainBackend first_backend(first_node);
    ProtocolNode first(network, netsim::Region::kEuCentral, first_backend, "ebv-1");

    bridge.upstream().connect_to(source.protocol.id());
    first.connect_to(bridge.downstream().id());
    network.run();
    ASSERT_EQ(first_node.next_height(), 15u);

    core::EbvNode second_node(options);
    EbvChainBackend second_backend(second_node);
    ProtocolNode second(network, netsim::Region::kApSydney, second_backend, "ebv-2");
    second.connect_to(first.id());
    network.run();

    EXPECT_EQ(second_node.next_height(), 15u);
    EXPECT_EQ(second.stats().blocks_rejected, 0u);
}

TEST(NetProtocol, MismatchedFormatsDoNotHandshake) {
    SimNetwork network(1);
    SeededSource source(network, 5);

    core::EbvNodeOptions options;
    options.params = source.gen_options.params;
    core::EbvNode ebv_node(options);
    EbvChainBackend backend(ebv_node);
    ProtocolNode ebv(network, netsim::Region::kUsEast, backend, "ebv");

    ebv.connect_to(source.protocol.id());  // EBV client, Bitcoin server
    network.run();

    EXPECT_EQ(ebv_node.next_height(), 0u);
    EXPECT_EQ(ebv.stats().blocks_connected, 0u);
}

template <class BlockT>
util::Bytes serialize_block(const BlockT& block) {
    util::Writer w;
    block.serialize(w);
    return w.take();
}

/// From a raw endpoint, sends an empty `Node` three hostile block payloads
/// that link to its (empty) tip: one shorter than a header, a parsable
/// header over a body that does not decode, and `invalid`, which decodes
/// but fails validation. None may connect; the last two count as rejected.
/// The node must then still sync `chain` from an honest peer.
template <class Node, class Backend, class Options, class Block>
void expect_hostile_payloads_rejected(const Options& options, const std::vector<Block>& chain,
                                      const Block& invalid) {
    SimNetwork network(23);
    Node source_node(options);
    Backend source_backend(source_node);
    ProtocolNode source(network, netsim::Region::kUsEast, source_backend, "source");
    for (const Block& block : chain) source_backend.seed_block(block);

    Node sink_node(options);
    Backend sink_backend(sink_node);
    ProtocolNode sink(network, netsim::Region::kEuCentral, sink_backend, "sink");

    const EndpointId raw =
        network.add_endpoint(netsim::Region::kUsWest, [](EndpointId, const util::Bytes&) {});
    const auto send_block = [&](util::Bytes payload) {
        network.send(raw, sink.id(),
                     encode_message(BlockMsg{sink_backend.format(), 0, std::move(payload)}));
    };

    const util::Bytes invalid_payload = serialize_block(invalid);
    ASSERT_TRUE(invalid.header.prev_hash.is_zero());
    send_block(util::Bytes(invalid_payload.begin(), invalid_payload.begin() + 40));

    // A header of its own (so the honest genesis is not marked known),
    // then a transaction count whose 2-byte value is missing.
    chain::BlockHeader header = invalid.header;
    header.time += 1;
    util::Writer undecodable;
    header.serialize(undecodable);
    undecodable.u8(0xfd);
    send_block(undecodable.take());

    send_block(invalid_payload);
    network.run();

    EXPECT_EQ(sink_node.next_height(), 0u);
    EXPECT_EQ(sink.stats().blocks_connected, 0u);
    EXPECT_EQ(sink.stats().blocks_rejected, 2u);

    sink.connect_to(source.id());
    network.run();
    EXPECT_EQ(sink_node.next_height(), chain.size());
    EXPECT_EQ(sink.stats().blocks_connected, chain.size());
    EXPECT_EQ(sink.stats().blocks_rejected, 2u);
}

/// From a raw endpoint, sends an empty `Node` honest block 2 of `chain`,
/// then a header with the same prev hash over a body that does not decode.
/// The later payload must not displace the waiting block: once the node
/// syncs blocks 0 and 1 from an honest peer, block 2 connects from the
/// stash (its hash is already known, so it is never requested again), and
/// the sibling counts as rejected.
template <class Node, class Backend, class Options, class Block>
void expect_sibling_keeps_waiting_block(const Options& options,
                                        const std::vector<Block>& chain) {
    ASSERT_GE(chain.size(), 3u);
    SimNetwork network(29);
    Node source_node(options);
    Backend source_backend(source_node);
    ProtocolNode source(network, netsim::Region::kUsEast, source_backend, "source");
    for (const Block& block : chain) source_backend.seed_block(block);

    Node sink_node(options);
    Backend sink_backend(sink_node);
    ProtocolNode sink(network, netsim::Region::kEuCentral, sink_backend, "sink");

    const EndpointId raw =
        network.add_endpoint(netsim::Region::kUsWest, [](EndpointId, const util::Bytes&) {});
    const auto send_block = [&](util::Bytes payload) {
        network.send(raw, sink.id(),
                     encode_message(BlockMsg{sink_backend.format(), 0, std::move(payload)}));
    };

    send_block(serialize_block(chain[2]));
    chain::BlockHeader header = chain[2].header;
    header.time += 1;
    util::Writer undecodable;
    header.serialize(undecodable);
    undecodable.u8(0xfd);
    send_block(undecodable.take());
    network.run();
    EXPECT_EQ(sink_node.next_height(), 0u);

    sink.connect_to(source.id());
    network.run();
    EXPECT_EQ(sink_node.next_height(), chain.size());
    EXPECT_EQ(sink.stats().blocks_connected, chain.size());
    EXPECT_EQ(sink.stats().blocks_rejected, 1u);
}

/// A genesis-height block whose coinbase claims twice the subsidy.
chain::Block overpaying_genesis(const chain::ChainParams& params) {
    return chain::assemble_block(
        crypto::Hash256{},
        chain::make_coinbase(0, 2 * params.subsidy_at(0), script::Script{0x51}),
        {}, /*time=*/1000);
}

std::vector<chain::Block> bitcoin_chain(const workload::GeneratorOptions& options) {
    workload::ChainGenerator generator(options);
    std::vector<chain::Block> chain;
    for (int i = 0; i < 8; ++i) chain.push_back(generator.next_block());
    return chain;
}

std::vector<core::EbvBlock> ebv_chain(const workload::GeneratorOptions& options) {
    intermediary::Converter converter;
    std::vector<core::EbvBlock> chain;
    for (const chain::Block& block : bitcoin_chain(options)) {
        auto converted = converter.convert_block(block);
        EXPECT_TRUE(converted.has_value());
        if (converted) chain.push_back(std::move(*converted));
    }
    return chain;
}

TEST(NetProtocol, HostileBlockPayloadsAreRejectedBitcoin) {
    const auto gen_options = small_chain_options();
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    expect_hostile_payloads_rejected<chain::BitcoinNode, BitcoinChainBackend>(
        options, bitcoin_chain(gen_options), overpaying_genesis(gen_options.params));
}

TEST(NetProtocol, HostileBlockPayloadsAreRejectedEbv) {
    const auto gen_options = small_chain_options();
    const std::vector<core::EbvBlock> chain = ebv_chain(gen_options);
    ASSERT_EQ(chain.size(), 8u);
    intermediary::Converter invalid_converter;
    auto invalid = invalid_converter.convert_block(overpaying_genesis(gen_options.params));
    ASSERT_TRUE(invalid.has_value());

    core::EbvNodeOptions options;
    options.params = gen_options.params;
    expect_hostile_payloads_rejected<core::EbvNode, EbvChainBackend>(options, chain, *invalid);
}

TEST(NetProtocol, SiblingPayloadKeepsWaitingBlockBitcoin) {
    const auto gen_options = small_chain_options();
    chain::BitcoinNodeOptions options;
    options.params = gen_options.params;
    expect_sibling_keeps_waiting_block<chain::BitcoinNode, BitcoinChainBackend>(
        options, bitcoin_chain(gen_options));
}

TEST(NetProtocol, SiblingPayloadKeepsWaitingBlockEbv) {
    const auto gen_options = small_chain_options();
    core::EbvNodeOptions options;
    options.params = gen_options.params;
    expect_sibling_keeps_waiting_block<core::EbvNode, EbvChainBackend>(options,
                                                                      ebv_chain(gen_options));
}

}  // namespace
}  // namespace ebv::net
