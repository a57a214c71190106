// The sync/relay protocol engine: handshake, header-first IBD, inventory
// gossip, block download, and orphan handling — shared by every node type
// via the ChainBackend interface (Bitcoin-format node, EBV-format node,
// and both halves of the intermediary).
//
// Protocol flow:
//   connect:  A --version--> B, B --version+verack--> A, A --verack--> B
//   IBD:      behind peer? --getheaders--> ... <--headers-- then batched
//             --getdata--> / <--block--; blocks validate (charging the
//             validator's measured time to the simulated clock) and connect
//             in order; early arrivals wait in an orphan buffer.
//   relay:    a newly connected block is announced with --inv--> to every
//             other handshaked peer; unknown inv triggers --getdata-->.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/message.hpp"
#include "net/transport.hpp"
#include "util/stopwatch.hpp"

namespace ebv::net {

/// What the protocol engine needs from a chain implementation.
class ChainBackend {
public:
    virtual ~ChainBackend() = default;

    [[nodiscard]] virtual ChainFormat format() const = 0;
    /// Number of connected blocks (next height).
    [[nodiscard]] virtual std::uint32_t block_count() const = 0;
    /// Hash of the block at `height` (its header hash), if connected.
    virtual std::optional<crypto::Hash256> block_hash_at(std::uint32_t height) const = 0;
    /// 80-byte header serialization at `height`.
    virtual std::optional<util::Bytes> header_at(std::uint32_t height) const = 0;
    /// Serialized block body by hash (only blocks this node stores).
    virtual std::optional<util::Bytes> block_by_hash(const crypto::Hash256& hash) const = 0;
    /// Validate + connect the next block. On success reports the validation
    /// cost to charge to the simulated clock; on failure returns nullopt.
    virtual std::optional<util::Nanoseconds> accept_block(const util::Bytes& payload) = 0;
};

struct ProtocolStats {
    std::uint64_t messages_in = 0;
    std::uint64_t messages_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t blocks_connected = 0;
    std::uint64_t blocks_rejected = 0;
    /// Simulated time at which each height connected (propagation metric).
    std::vector<netsim::SimTime> connect_times;
};

class ProtocolNode {
public:
    /// Registers an endpoint on the network; `name` is for diagnostics.
    ProtocolNode(SimNetwork& network, netsim::Region region, ChainBackend& backend,
                 std::string name);

    /// Initiate a connection (handshake) to a peer endpoint.
    void connect_to(EndpointId peer);

    /// A block was produced/acquired locally (mined, or bridged from
    /// another chain format): mark it known and announce it to all peers.
    void notify_local_block(const crypto::Hash256& hash);

    [[nodiscard]] EndpointId id() const { return id_; }
    [[nodiscard]] const ProtocolStats& stats() const { return stats_; }
    [[nodiscard]] const std::string& name() const { return name_; }

private:
    struct PeerState {
        bool version_received = false;
        bool handshaken = false;
        std::uint32_t best_height = 0;
        // Header-sync bookkeeping (we are the downloader).
        std::deque<crypto::Hash256> pending_blocks;  ///< hashes to request
        std::uint32_t inflight = 0;
    };

    static constexpr std::uint32_t kMaxInflight = 16;
    static constexpr std::uint32_t kHeaderBatch = 500;

    void on_wire(EndpointId from, const util::Bytes& wire);
    void dispatch(EndpointId from, const Message& m);

    void handle(EndpointId from, const VersionMsg& m);
    void handle(EndpointId from, const VerAckMsg& m);
    void handle(EndpointId from, const GetHeadersMsg& m);
    void handle(EndpointId from, const HeadersMsg& m);
    void handle(EndpointId from, const InvMsg& m);
    void handle(EndpointId from, const GetDataMsg& m);
    void handle(EndpointId from, const BlockMsg& m);
    void handle(EndpointId from, const TxMsg& m);
    void handle(EndpointId from, const PingMsg& m);
    void handle(EndpointId from, const PongMsg& m);
    void handle(EndpointId from, const GetProofMsg& m);
    void handle(EndpointId from, const ProofMsg& m);

    void send(EndpointId to, const Message& m);
    void maybe_start_sync(EndpointId peer);
    void request_more_blocks(EndpointId peer);
    void try_connect_pending();
    void announce_block(const crypto::Hash256& hash, EndpointId except);

    SimNetwork& network_;
    EndpointId id_;
    ChainBackend& backend_;
    std::string name_;
    std::uint64_t nonce_;

    std::unordered_map<EndpointId, PeerState> peers_;
    /// A received block with its header hash, parsed once on arrival.
    struct PendingBlock {
        crypto::Hash256 hash;
        util::Bytes payload;
    };
    /// Blocks received but not yet connectable, keyed by their prev hash:
    /// every distinct payload, in arrival order.
    std::unordered_map<crypto::Hash256, std::vector<PendingBlock>, crypto::Hash256Hasher>
        orphans_;
    /// Hashes we have seen (connected or inflight) — dedupes inv storms.
    std::unordered_set<crypto::Hash256, crypto::Hash256Hasher> known_;
    ProtocolStats stats_;
};

}  // namespace ebv::net
