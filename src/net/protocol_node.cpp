#include "net/protocol_node.hpp"

#include <algorithm>

#include "chain/block.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace ebv::net {

namespace {

/// Wire/protocol metrics, aggregated across every ProtocolNode in the
/// process (the simulators run many nodes in one address space).
struct NetMetrics {
    obs::Counter& messages_in;
    obs::Counter& messages_out;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Counter& blocks_connected;
    obs::Counter& blocks_rejected;
    obs::Counter& frames_dropped;
    obs::Counter& orphans_stashed;
    obs::Histogram& pending_blocks;  ///< download-queue depth per request round

    static NetMetrics& get() {
        static NetMetrics m{
            obs::Registry::global().counter("net.messages_in"),
            obs::Registry::global().counter("net.messages_out"),
            obs::Registry::global().counter("net.bytes_in"),
            obs::Registry::global().counter("net.bytes_out"),
            obs::Registry::global().counter("net.blocks_connected"),
            obs::Registry::global().counter("net.blocks_rejected"),
            obs::Registry::global().counter("net.frames_dropped"),
            obs::Registry::global().counter("net.orphans_stashed"),
            obs::Registry::global().histogram(
                "net.sync.pending_blocks",
                obs::Histogram::exponential_bounds(1, 2.0, 16)),
        };
        return m;
    }
};

}  // namespace

ProtocolNode::ProtocolNode(SimNetwork& network, netsim::Region region,
                           ChainBackend& backend, std::string name)
    : network_(network), backend_(backend), name_(std::move(name)) {
    id_ = network_.add_endpoint(
        region, [this](EndpointId from, const util::Bytes& wire) { on_wire(from, wire); });
    nonce_ = 0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(id_) << 32);
    // Every already-connected block is known.
    for (std::uint32_t h = 0; h < backend_.block_count(); ++h) {
        if (auto hash = backend_.block_hash_at(h)) known_.insert(*hash);
    }
}

void ProtocolNode::connect_to(EndpointId peer) {
    peers_.try_emplace(peer);
    send(peer, VersionMsg{1, backend_.format(), backend_.block_count(), nonce_});
}

void ProtocolNode::notify_local_block(const crypto::Hash256& hash) {
    known_.insert(hash);
    announce_block(hash, id_);
}

void ProtocolNode::send(EndpointId to, const Message& m) {
    util::Bytes wire = encode_message(m);
    ++stats_.messages_out;
    stats_.bytes_out += wire.size();
    NetMetrics::get().messages_out.inc();
    NetMetrics::get().bytes_out.inc(wire.size());
    network_.send(id_, to, std::move(wire));
}

void ProtocolNode::on_wire(EndpointId from, const util::Bytes& wire) {
    ++stats_.messages_in;
    stats_.bytes_in += wire.size();
    NetMetrics::get().messages_in.inc();
    NetMetrics::get().bytes_in.inc(wire.size());

    std::size_t offset = 0;
    while (offset < wire.size()) {
        auto decoded = decode_message(util::ByteSpan(wire).subspan(offset));
        if (!decoded) {
            NetMetrics::get().frames_dropped.inc();
            EBV_LOG_WARN("%s: dropping frame from %u: %s", name_.c_str(), from,
                         to_string(decoded.error()));
            return;
        }
        dispatch(from, decoded->first);
        offset += decoded->second;
    }
}

void ProtocolNode::dispatch(EndpointId from, const Message& m) {
    std::visit([&](const auto& msg) { handle(from, msg); }, m);
}

// ---- handshake -------------------------------------------------------------

void ProtocolNode::handle(EndpointId from, const VersionMsg& m) {
    if (m.nonce == nonce_) return;  // self connection
    if (m.format != backend_.format()) {
        EBV_LOG_WARN("%s: peer %u speaks a different chain format", name_.c_str(), from);
        return;
    }

    auto [it, inserted] = peers_.try_emplace(from);
    PeerState& peer = it->second;
    peer.best_height = m.best_height;
    const bool knew_version = peer.version_received;
    peer.version_received = true;

    if (inserted || !knew_version) {
        // Respond with our version exactly once (responder path), then ack.
        if (inserted) {
            send(from, VersionMsg{1, backend_.format(), backend_.block_count(), nonce_});
        }
        send(from, VerAckMsg{});
    }
}

void ProtocolNode::handle(EndpointId from, const VerAckMsg&) {
    const auto it = peers_.find(from);
    if (it == peers_.end() || !it->second.version_received) return;
    if (it->second.handshaken) return;
    it->second.handshaken = true;
    EBV_LOG_DEBUG("%s: handshake complete with peer %u (best height %u)",
                  name_.c_str(), from, it->second.best_height);
    maybe_start_sync(from);

    // Tell the new peer about our tip: combined with the orphan-triggered
    // header re-sync this guarantees convergence even when block
    // announcements raced the handshake.
    const std::uint32_t count = backend_.block_count();
    if (count > 0) {
        if (const auto tip = backend_.block_hash_at(count - 1); tip) {
            send(from, InvMsg{{InvItem{InvType::kBlock, *tip}}});
        }
    }
}

void ProtocolNode::maybe_start_sync(EndpointId peer_id) {
    const PeerState& peer = peers_.at(peer_id);
    if (peer.best_height > backend_.block_count()) {
        EBV_LOG_DEBUG("%s: starting header sync from peer %u (%u -> %u)",
                      name_.c_str(), peer_id, backend_.block_count(),
                      peer.best_height);
        send(peer_id, GetHeadersMsg{backend_.block_count(), kHeaderBatch});
    }
}

// ---- header sync ------------------------------------------------------------

void ProtocolNode::handle(EndpointId from, const GetHeadersMsg& m) {
    HeadersMsg reply;
    reply.start_height = m.from_height;
    const std::uint32_t max = std::min(m.max_count, kHeaderBatch);
    for (std::uint32_t h = m.from_height;
         h < backend_.block_count() && reply.headers.size() < max; ++h) {
        if (auto header = backend_.header_at(h)) reply.headers.push_back(std::move(*header));
    }
    send(from, reply);
}

void ProtocolNode::handle(EndpointId from, const HeadersMsg& m) {
    const auto it = peers_.find(from);
    if (it == peers_.end() || !it->second.handshaken) return;
    PeerState& peer = it->second;

    std::uint32_t height = m.start_height;
    for (const auto& header_bytes : m.headers) {
        const crypto::Hash256 hash = crypto::hash256(header_bytes);
        if (height >= backend_.block_count() && !known_.count(hash)) {
            peer.pending_blocks.push_back(hash);
        }
        ++height;
    }
    request_more_blocks(from);

    // More headers may exist beyond this batch.
    if (m.headers.size() == kHeaderBatch && height < peer.best_height + 1) {
        send(from, GetHeadersMsg{height, kHeaderBatch});
    }
}

void ProtocolNode::request_more_blocks(EndpointId peer_id) {
    PeerState& peer = peers_.at(peer_id);
    if (!peer.pending_blocks.empty()) {
        NetMetrics::get().pending_blocks.observe(peer.pending_blocks.size());
    }
    GetDataMsg request;
    while (peer.inflight < kMaxInflight && !peer.pending_blocks.empty()) {
        const crypto::Hash256 hash = peer.pending_blocks.front();
        peer.pending_blocks.pop_front();
        if (known_.count(hash)) continue;
        known_.insert(hash);  // inflight
        request.items.push_back(InvItem{InvType::kBlock, hash});
        ++peer.inflight;
    }
    if (!request.items.empty()) send(peer_id, request);
}

// ---- inventory / data ------------------------------------------------------

void ProtocolNode::handle(EndpointId from, const InvMsg& m) {
    const auto it = peers_.find(from);
    if (it == peers_.end() || !it->second.handshaken) return;

    GetDataMsg request;
    for (const InvItem& item : m.items) {
        if (item.type != InvType::kBlock) continue;
        if (known_.count(item.hash)) continue;
        known_.insert(item.hash);
        request.items.push_back(item);
        ++it->second.inflight;
    }
    if (!request.items.empty()) send(from, request);
}

void ProtocolNode::handle(EndpointId from, const GetDataMsg& m) {
    for (const InvItem& item : m.items) {
        if (item.type != InvType::kBlock) continue;
        if (auto payload = backend_.block_by_hash(item.hash)) {
            send(from, BlockMsg{backend_.format(), 0, std::move(*payload)});
        }
    }
}

void ProtocolNode::handle(EndpointId from, const BlockMsg& m) {
    const auto it = peers_.find(from);
    if (it != peers_.end() && it->second.inflight > 0) --it->second.inflight;
    if (m.format != backend_.format()) return;

    // Every block format leads with the 80-byte header; a payload without
    // one is dropped before it is stashed.
    util::Reader r(m.payload);
    const auto header = chain::BlockHeader::deserialize(r);
    if (!header) return;
    const crypto::Hash256 hash = header->hash();
    known_.insert(hash);

    // Stash beside any sibling with the same prev hash: a waiting block's
    // hash is already known, so a displaced one would never be requested
    // again. try_connect_pending connects everything that now links up.
    std::vector<PendingBlock>& siblings = orphans_[header->prev_hash];
    if (std::none_of(siblings.begin(), siblings.end(),
                     [&](const PendingBlock& b) { return b.payload == m.payload; })) {
        siblings.push_back(PendingBlock{hash, m.payload});
        NetMetrics::get().orphans_stashed.inc();
    }
    try_connect_pending();

    if (it != peers_.end()) {
        request_more_blocks(from);
        // Orphans left with nothing inflight mean we missed announcements
        // (e.g. they raced our handshake): re-sync headers to fill the gap.
        if (!orphans_.empty() && it->second.inflight == 0 &&
            it->second.pending_blocks.empty()) {
            send(from, GetHeadersMsg{backend_.block_count(), kHeaderBatch});
        }
    }
}

void ProtocolNode::try_connect_pending() {
    for (;;) {
        const std::uint32_t next = backend_.block_count();
        crypto::Hash256 tip;  // zero for genesis
        if (next > 0) {
            const auto tip_hash = backend_.block_hash_at(next - 1);
            if (!tip_hash) return;
            tip = *tip_hash;
        }
        const auto it = orphans_.find(tip);
        if (it == orphans_.end()) return;

        const std::vector<PendingBlock> siblings = std::move(it->second);
        orphans_.erase(it);

        // In arrival order, until one connects; the rest, which fork off
        // the old tip, count as rejected with the ones that failed.
        std::optional<util::Nanoseconds> cost;
        std::size_t k = 0;
        for (; k < siblings.size(); ++k) {
            cost = backend_.accept_block(siblings[k].payload);
            if (cost) break;
        }
        const std::size_t rejected = siblings.size() - (cost ? 1 : 0);
        if (rejected > 0) {
            stats_.blocks_rejected += rejected;
            NetMetrics::get().blocks_rejected.inc(rejected);
            EBV_LOG_DEBUG("%s: rejected %zu block(s) at height %u", name_.c_str(), rejected,
                          next);
        }
        if (!cost) return;
        ++stats_.blocks_connected;
        NetMetrics::get().blocks_connected.inc();
        stats_.connect_times.push_back(network_.now());

        // Validation costs simulated time: relay only after it elapses.
        network_.defer(*cost, [this, hash = siblings[k].hash] {
            announce_block(hash, id_ /*no exception*/);
        });
    }
}

void ProtocolNode::announce_block(const crypto::Hash256& hash, EndpointId except) {
    for (const auto& [peer_id, peer] : peers_) {
        if (peer_id == except || !peer.handshaken) continue;
        send(peer_id, InvMsg{{InvItem{InvType::kBlock, hash}}});
    }
}

void ProtocolNode::handle(EndpointId, const TxMsg&) {
    // Transaction relay is not exercised by the reproduction's experiments.
}

void ProtocolNode::handle(EndpointId from, const PingMsg& m) {
    send(from, PongMsg{m.nonce});
}

void ProtocolNode::handle(EndpointId, const PongMsg&) {}

void ProtocolNode::handle(EndpointId, const GetProofMsg&) {
    // Proof serving runs on a dedicated tier (net::ProofServer); sync nodes
    // ignore stray proof traffic rather than treating it as a violation.
}

void ProtocolNode::handle(EndpointId, const ProofMsg&) {}

}  // namespace ebv::net
