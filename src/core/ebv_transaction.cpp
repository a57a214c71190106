#include "core/ebv_transaction.hpp"

#include "crypto/sha256.hpp"
#include "util/assert.hpp"

namespace ebv::core {

namespace {

constexpr std::size_t kMaxInputsPerTx = 1 << 16;
constexpr std::size_t kMaxOutputsPerTx = 1 << 16;
constexpr std::size_t kMaxScriptBytes = 1 << 16;
constexpr std::size_t kMaxCoinbaseData = 256;

void serialize_txout(util::Writer& w, const chain::TxOut& out) {
    w.i64(out.value);
    w.var_bytes(out.lock_script);
}

util::Result<chain::TxOut, util::DecodeError> deserialize_txout(util::Reader& r) {
    chain::TxOut out;
    auto value = r.i64();
    if (!value) return util::Unexpected{value.error()};
    out.value = *value;
    auto script = r.var_bytes(kMaxScriptBytes);
    if (!script) return util::Unexpected{script.error()};
    out.lock_script = std::move(*script);
    return out;
}

std::size_t txout_size(const chain::TxOut& out) {
    return 8 + util::compact_size_length(out.lock_script.size()) + out.lock_script.size();
}

std::size_t txouts_size(const std::vector<chain::TxOut>& outs) {
    std::size_t size = util::compact_size_length(outs.size());
    for (const auto& out : outs) size += txout_size(out);
    return size;
}

/// The tidy wire format, shared by TidyTransaction and the Merkle leaves
/// EbvBlock builds straight from an EbvTransaction plus its input hashes.
template <typename Tx>
void serialize_tidy(util::Writer& w, const Tx& tx,
                    std::span<const crypto::Hash256> input_hashes) {
    w.u32(tx.version);
    w.compact_size(input_hashes.size());
    for (const auto& h : input_hashes) w.bytes(h.span());
    w.compact_size(tx.outputs.size());
    for (const auto& out : tx.outputs) serialize_txout(w, out);
    w.u32(tx.locktime);
    w.var_bytes(tx.coinbase_data);
    w.u32(tx.stake_position);
}

std::size_t tidy_size(std::size_t input_count, const std::vector<chain::TxOut>& outputs,
                      const util::Bytes& coinbase_data) {
    return 4 /* version */
           + util::compact_size_length(input_count) + 32 * input_count
           + txouts_size(outputs) + 4 /* locktime */
           + util::compact_size_length(coinbase_data.size()) + coinbase_data.size()
           + 4 /* stake_position */;
}

}  // namespace

// ---------------------------------------------------------------- Tidy ----

void TidyTransaction::serialize(util::Writer& w) const {
    serialize_tidy(w, *this, input_hashes);
}

util::Result<TidyTransaction, util::DecodeError> TidyTransaction::deserialize(
    util::Reader& r) {
    TidyTransaction tx;
    auto version = r.u32();
    if (!version) return util::Unexpected{version.error()};
    tx.version = *version;

    auto in_count = r.compact_size();
    if (!in_count) return util::Unexpected{in_count.error()};
    if (*in_count > kMaxInputsPerTx) return util::Unexpected{util::DecodeError::kOversizedField};
    tx.input_hashes.reserve(static_cast<std::size_t>(*in_count));
    for (std::uint64_t i = 0; i < *in_count; ++i) {
        auto bytes = r.bytes(32);
        if (!bytes) return util::Unexpected{bytes.error()};
        tx.input_hashes.push_back(crypto::Hash256::from_span(*bytes));
    }

    auto out_count = r.compact_size();
    if (!out_count) return util::Unexpected{out_count.error()};
    if (*out_count > kMaxOutputsPerTx)
        return util::Unexpected{util::DecodeError::kOversizedField};
    tx.outputs.reserve(static_cast<std::size_t>(*out_count));
    for (std::uint64_t i = 0; i < *out_count; ++i) {
        auto out = deserialize_txout(r);
        if (!out) return util::Unexpected{out.error()};
        tx.outputs.push_back(std::move(*out));
    }

    auto locktime = r.u32();
    if (!locktime) return util::Unexpected{locktime.error()};
    tx.locktime = *locktime;

    auto cb = r.var_bytes(kMaxCoinbaseData);
    if (!cb) return util::Unexpected{cb.error()};
    tx.coinbase_data = std::move(*cb);

    auto stake = r.u32();
    if (!stake) return util::Unexpected{stake.error()};
    tx.stake_position = *stake;
    return tx;
}

crypto::Hash256 TidyTransaction::leaf_hash() const {
    util::Writer w(serialized_size());
    serialize(w);
    return crypto::hash256(w.data());
}

std::size_t TidyTransaction::serialized_size() const {
    // Analytic mirror of serialize(): leaf_hash() and proof-byte accounting
    // call this on hot paths, so no throwaway serialization pass.
    return tidy_size(input_hashes.size(), outputs, coinbase_data);
}

// --------------------------------------------------------------- Input ----

void EbvInput::serialize(util::Writer& w) const {
    prevout.serialize(w);
    w.u32(sequence);
    w.u32(height);
    w.u16(out_index);
    w.var_bytes(unlock_script);
    els.serialize(w);
    mbr.serialize(w);
}

util::Result<EbvInput, util::DecodeError> EbvInput::deserialize(util::Reader& r) {
    EbvInput in;
    auto prevout = chain::OutPoint::deserialize(r);
    if (!prevout) return util::Unexpected{prevout.error()};
    in.prevout = *prevout;

    auto sequence = r.u32();
    if (!sequence) return util::Unexpected{sequence.error()};
    in.sequence = *sequence;

    auto height = r.u32();
    if (!height) return util::Unexpected{height.error()};
    in.height = *height;

    auto out_index = r.u16();
    if (!out_index) return util::Unexpected{out_index.error()};
    in.out_index = *out_index;

    auto script = r.var_bytes(kMaxScriptBytes);
    if (!script) return util::Unexpected{script.error()};
    in.unlock_script = std::move(*script);

    auto els = TidyTransaction::deserialize(r);
    if (!els) return util::Unexpected{els.error()};
    in.els = std::move(*els);

    auto mbr = crypto::MerkleBranch::deserialize(r);
    if (!mbr) return util::Unexpected{mbr.error()};
    in.mbr = std::move(*mbr);
    return in;
}

crypto::Hash256 EbvInput::input_hash() const {
    util::Writer w(serialized_size());
    serialize(w);
    return crypto::hash256(w.data());
}

std::size_t EbvInput::serialized_size() const {
    return 36 /* prevout */ + 4 /* sequence */ + 4 /* height */ + 2 /* out_index */
           + util::compact_size_length(unlock_script.size()) + unlock_script.size()
           + els.serialized_size()
           + util::compact_size_length(mbr.siblings.size()) + 32 * mbr.siblings.size() +
           4 /* mbr.index */;
}

// --------------------------------------------------------- Transaction ----

TidyTransaction EbvTransaction::tidy() const {
    TidyTransaction t;
    t.version = version;
    t.input_hashes.reserve(inputs.size());
    for (const auto& in : inputs) t.input_hashes.push_back(in.input_hash());
    t.outputs = outputs;
    t.locktime = locktime;
    t.coinbase_data = coinbase_data;
    t.stake_position = stake_position;
    return t;
}

void EbvTransaction::serialize(util::Writer& w) const {
    w.u32(version);
    w.compact_size(inputs.size());
    for (const auto& in : inputs) in.serialize(w);
    w.compact_size(outputs.size());
    for (const auto& out : outputs) serialize_txout(w, out);
    w.u32(locktime);
    w.var_bytes(coinbase_data);
    w.u32(stake_position);
}

util::Result<EbvTransaction, util::DecodeError> EbvTransaction::deserialize(
    util::Reader& r) {
    EbvTransaction tx;
    auto version = r.u32();
    if (!version) return util::Unexpected{version.error()};
    tx.version = *version;

    auto in_count = r.compact_size();
    if (!in_count) return util::Unexpected{in_count.error()};
    if (*in_count > kMaxInputsPerTx) return util::Unexpected{util::DecodeError::kOversizedField};
    tx.inputs.reserve(static_cast<std::size_t>(*in_count));
    for (std::uint64_t i = 0; i < *in_count; ++i) {
        auto in = EbvInput::deserialize(r);
        if (!in) return util::Unexpected{in.error()};
        tx.inputs.push_back(std::move(*in));
    }

    auto out_count = r.compact_size();
    if (!out_count) return util::Unexpected{out_count.error()};
    if (*out_count > kMaxOutputsPerTx)
        return util::Unexpected{util::DecodeError::kOversizedField};
    tx.outputs.reserve(static_cast<std::size_t>(*out_count));
    for (std::uint64_t i = 0; i < *out_count; ++i) {
        auto out = deserialize_txout(r);
        if (!out) return util::Unexpected{out.error()};
        tx.outputs.push_back(std::move(*out));
    }

    auto locktime = r.u32();
    if (!locktime) return util::Unexpected{locktime.error()};
    tx.locktime = *locktime;

    auto cb = r.var_bytes(kMaxCoinbaseData);
    if (!cb) return util::Unexpected{cb.error()};
    tx.coinbase_data = std::move(*cb);

    auto stake = r.u32();
    if (!stake) return util::Unexpected{stake.error()};
    tx.stake_position = *stake;
    return tx;
}

std::size_t EbvTransaction::serialized_size() const {
    std::size_t size = 4 /* version */ + util::compact_size_length(inputs.size());
    for (const auto& in : inputs) size += in.serialized_size();
    size += txouts_size(outputs) + 4 /* locktime */
            + util::compact_size_length(coinbase_data.size()) + coinbase_data.size()
            + 4 /* stake_position */;
    return size;
}

chain::Amount EbvTransaction::total_output_value() const {
    chain::Amount total = 0;
    for (const auto& out : outputs) total += out.value;
    return total;
}

crypto::Hash256 ebv_signature_hash(const EbvTransaction& tx, std::size_t input_index,
                                   util::ByteSpan script_code, std::uint8_t hash_type) {
    // Must match chain::signature_hash over the corresponding Bitcoin-style
    // transaction byte for byte. Exact analytic preimage size: blanked
    // inputs are 41 bytes; input_index swaps its 1-byte blank for
    // var_bytes(script_code).
    util::Writer w(4 + util::compact_size_length(tx.inputs.size()) + 41 * tx.inputs.size() -
                   1 + util::compact_size_length(script_code.size()) + script_code.size() +
                   txouts_size(tx.outputs) + 4 /* locktime */ + 4 /* hash_type */);
    w.u32(tx.version);
    w.compact_size(tx.inputs.size());
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
        tx.inputs[i].prevout.serialize(w);
        if (i == input_index) {
            w.var_bytes(script_code);
        } else {
            w.compact_size(0);
        }
        w.u32(tx.inputs[i].sequence);
    }
    w.compact_size(tx.outputs.size());
    for (const auto& out : tx.outputs) serialize_txout(w, out);
    w.u32(tx.locktime);
    w.u32(hash_type);
    return crypto::hash256(w.data());
}

// --------------------------------------------------------------- Block ----

std::vector<crypto::Hash256> EbvBlock::merkle_leaves() const {
    // All input-body hashes across the block in one batch.
    std::vector<util::Bytes> input_bufs;
    std::vector<util::ByteSpan> spans;
    input_bufs.reserve(input_count());
    spans.reserve(input_count());
    for (const auto& tx : txs) {
        for (const auto& in : tx.inputs) {
            util::Writer w(in.serialized_size());
            in.serialize(w);
            input_bufs.push_back(w.take());
            spans.emplace_back(input_bufs.back().data(), input_bufs.back().size());
        }
    }
    std::vector<crypto::Sha256::Digest> digests(spans.size());
    crypto::sha256d_many(spans.data(), digests.data(), spans.size());

    std::vector<crypto::Hash256> input_hashes;
    input_hashes.reserve(digests.size());
    for (const auto& d : digests)
        input_hashes.push_back(crypto::Hash256::from_span({d.data(), d.size()}));
    return merkle_leaves(input_hashes);
}

std::vector<crypto::Hash256> EbvBlock::merkle_leaves(
    std::span<const crypto::Hash256> input_hashes) const {
    EBV_EXPECTS(input_hashes.size() == input_count());
    // Tidy serializations over the given input hashes, then all leaf
    // hashes in one batch.
    const std::size_t n = txs.size();
    std::vector<util::Bytes> leaf_bufs(n);
    std::vector<util::ByteSpan> leaf_spans(n);
    std::size_t cursor = 0;
    for (std::size_t t = 0; t < n; ++t) {
        const EbvTransaction& tx = txs[t];
        const auto hashes = input_hashes.subspan(cursor, tx.inputs.size());
        cursor += tx.inputs.size();
        util::Writer w(tidy_size(hashes.size(), tx.outputs, tx.coinbase_data));
        serialize_tidy(w, tx, hashes);
        leaf_bufs[t] = w.take();
        leaf_spans[t] = {leaf_bufs[t].data(), leaf_bufs[t].size()};
    }
    std::vector<crypto::Sha256::Digest> leaf_digests(n);
    crypto::sha256d_many(leaf_spans.data(), leaf_digests.data(), n);
    std::vector<crypto::Hash256> leaves(n);
    for (std::size_t t = 0; t < n; ++t)
        leaves[t] = crypto::Hash256::from_span({leaf_digests[t].data(), leaf_digests[t].size()});
    return leaves;
}

crypto::Hash256 EbvBlock::compute_merkle_root() const {
    return crypto::merkle_root(merkle_leaves());
}

void EbvBlock::assign_stake_positions() {
    std::uint32_t running = 0;
    for (auto& tx : txs) {
        tx.stake_position = running;
        running += static_cast<std::uint32_t>(tx.outputs.size());
    }
    header.merkle_root = compute_merkle_root();
}

void EbvBlock::serialize(util::Writer& w) const {
    header.serialize(w);
    w.compact_size(txs.size());
    for (const auto& tx : txs) tx.serialize(w);
}

util::Result<EbvBlock, util::DecodeError> EbvBlock::deserialize(util::Reader& r) {
    EbvBlock block;
    auto header = chain::BlockHeader::deserialize(r);
    if (!header) return util::Unexpected{header.error()};
    block.header = *header;

    auto count = r.compact_size();
    if (!count) return util::Unexpected{count.error()};
    if (*count > (1u << 20)) return util::Unexpected{util::DecodeError::kOversizedField};
    block.txs.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
        auto tx = EbvTransaction::deserialize(r);
        if (!tx) return util::Unexpected{tx.error()};
        block.txs.push_back(std::move(*tx));
    }
    return block;
}

std::size_t EbvBlock::serialized_size() const {
    std::size_t size =
        chain::BlockHeader::kSerializedSize + util::compact_size_length(txs.size());
    for (const auto& tx : txs) size += tx.serialized_size();
    return size;
}

std::size_t EbvBlock::input_count() const {
    std::size_t count = 0;
    for (const auto& tx : txs) count += tx.inputs.size();
    return count;
}

std::size_t EbvBlock::output_count() const {
    std::size_t count = 0;
    for (const auto& tx : txs) count += tx.outputs.size();
    return count;
}

}  // namespace ebv::core
