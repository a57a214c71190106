#include "chain/sighash_template.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "script/interpreter.hpp"
#include "util/assert.hpp"
#include "util/endian.hpp"
#include "util/serialize.hpp"

namespace ebv::chain {

namespace {

void append_bytes(util::Bytes& b, util::ByteSpan data) {
    b.insert(b.end(), data.begin(), data.end());
}

void append_u32(util::Bytes& b, std::uint32_t v) {
    std::uint8_t tmp[4];
    util::store_le32(tmp, v);
    b.insert(b.end(), tmp, tmp + 4);
}

void append_i64(util::Bytes& b, std::int64_t v) {
    std::uint8_t tmp[8];
    util::store_le64(tmp, static_cast<std::uint64_t>(v));
    b.insert(b.end(), tmp, tmp + 8);
}

/// Writer::compact_size without a Writer; returns the encoded length.
std::size_t encode_compact_size(std::uint8_t out[9], std::uint64_t v) {
    if (v < 0xfd) {
        out[0] = static_cast<std::uint8_t>(v);
        return 1;
    }
    if (v <= 0xffff) {
        out[0] = 0xfd;
        util::store_le16(out + 1, static_cast<std::uint16_t>(v));
        return 3;
    }
    if (v <= 0xffffffff) {
        out[0] = 0xfe;
        util::store_le32(out + 1, static_cast<std::uint32_t>(v));
        return 5;
    }
    out[0] = 0xff;
    util::store_le64(out + 1, v);
    return 9;
}

void append_compact_size(util::Bytes& b, std::uint64_t v) {
    std::uint8_t tmp[9];
    b.insert(b.end(), tmp, tmp + encode_compact_size(tmp, v));
}

}  // namespace

SighashTemplateBuilder::SighashTemplateBuilder(std::uint32_t version, std::size_t input_count,
                                  std::size_t output_count, std::size_t size_hint) {
    if (size_hint == 0) {
        // Inputs dominate the blanked form: 36-byte prevout + 1-byte slot +
        // 4-byte sequence each; outputs are appended on top of the reserve.
        size_hint = 4 + util::compact_size_length(input_count) + 41 * input_count +
                    util::compact_size_length(output_count) + 4;
    }
    t_.base_.reserve(size_hint);
    t_.slots_.reserve(input_count);
    append_u32(t_.base_, version);
    append_compact_size(t_.base_, input_count);
}

void SighashTemplateBuilder::add_input(const OutPoint& prevout, std::uint32_t sequence) {
    append_bytes(t_.base_, prevout.txid.span());
    append_u32(t_.base_, prevout.index);
    t_.slots_.push_back({static_cast<std::uint32_t>(t_.base_.size()), {}});
    t_.base_.push_back(0x00);  // blanked script: CompactSize(0)
    append_u32(t_.base_, sequence);
}

void SighashTemplateBuilder::begin_outputs(std::size_t output_count) {
    append_compact_size(t_.base_, output_count);
}

void SighashTemplateBuilder::add_output(const TxOut& out) {
    append_i64(t_.base_, out.value);
    append_compact_size(t_.base_, out.lock_script.size());
    append_bytes(t_.base_, out.lock_script);
}

SighashTemplate SighashTemplateBuilder::finish(std::uint32_t locktime) {
    append_u32(t_.base_, locktime);

    // One streaming pass over the shared prefix, capturing the compression
    // state at each input slot's 64-byte block boundary. Slots are strictly
    // increasing, so the boundaries are non-decreasing and the pass feeds
    // every byte exactly once.
    crypto::Sha256 h;
    std::size_t fed = 0;
    for (auto& slot : t_.slots_) {
        const std::size_t boundary = slot.offset & ~std::size_t{63};
        h.update({t_.base_.data() + fed, boundary - fed});
        fed = boundary;
        slot.midstate = h.midstate();
    }
    return std::move(t_);
}

SighashTemplate SighashTemplate::build(const Transaction& tx) {
    std::size_t size = 4 + util::compact_size_length(tx.vin.size()) + 41 * tx.vin.size() +
                       util::compact_size_length(tx.vout.size()) + 4;
    for (const TxOut& out : tx.vout)
        size += 8 + util::compact_size_length(out.lock_script.size()) + out.lock_script.size();

    Builder b(tx.version, tx.vin.size(), tx.vout.size(), size);
    for (const TxIn& in : tx.vin) b.add_input(in.prevout, in.sequence);
    b.begin_outputs(tx.vout.size());
    for (const TxOut& out : tx.vout) b.add_output(out);
    return b.finish(tx.locktime);
}

crypto::Hash256 SighashTemplate::digest(std::size_t input_index, util::ByteSpan script_code,
                                        std::uint8_t hash_type) const {
    EBV_EXPECTS(input_index < slots_.size());
    const std::size_t slot = slots_[input_index].offset;
    const std::size_t boundary = slot & ~std::size_t{63};

    crypto::Sha256 h = crypto::Sha256::resume(slots_[input_index].midstate);
    h.update({base_.data() + boundary, slot - boundary});

    std::uint8_t len[9];
    h.update({len, encode_compact_size(len, script_code.size())});
    h.update(script_code);

    h.update({base_.data() + slot + 1, base_.size() - slot - 1});

    std::uint8_t tail[4];
    util::store_le32(tail, hash_type);
    h.update({tail, 4});

    const crypto::Sha256::Digest first = h.finalize();
    const crypto::Sha256::Digest second = crypto::Sha256::hash({first.data(), first.size()});
    return crypto::Hash256::from_span({second.data(), second.size()});
}

std::size_t SighashTemplate::preimage_size(std::size_t input_index,
                                           util::ByteSpan script_code) const {
    EBV_EXPECTS(input_index < slots_.size());
    // The blanked slot's single 0x00 is replaced by var_bytes(script_code).
    return base_.size() - 1 + util::compact_size_length(script_code.size()) +
           script_code.size() + 4;
}

void SighashTemplate::preimage(std::size_t input_index, util::ByteSpan script_code,
                               std::uint8_t hash_type, util::Bytes& out) const {
    EBV_EXPECTS(input_index < slots_.size());
    const std::size_t slot = slots_[input_index].offset;
    out.clear();
    out.reserve(preimage_size(input_index, script_code));
    append_bytes(out, {base_.data(), slot});
    append_compact_size(out, script_code.size());
    append_bytes(out, script_code);
    append_bytes(out, {base_.data() + slot + 1, base_.size() - slot - 1});
    append_u32(out, hash_type);
}

SighashCache::SighashCache(SighashTemplate tpl, std::span<const util::ByteSpan> lock_scripts)
    : tpl_(std::move(tpl)) {
    EBV_EXPECTS(lock_scripts.empty() || lock_scripts.size() == tpl_.input_count());
    const auto is_standard = [](util::ByteSpan lock) {
        return !lock.empty() && !script::is_pay_to_script_hash(lock);
    };
    const auto standard_count = static_cast<std::size_t>(
        std::count_if(lock_scripts.begin(), lock_scripts.end(), is_standard));
    if (standard_count < 2) return;

    // Materialize the standard preimages and hash them in one SIMD batch.
    standard_codes_.resize(lock_scripts.size());
    std::vector<util::Bytes> preimages(standard_count);
    std::vector<util::ByteSpan> spans;
    spans.reserve(standard_count);
    for (std::size_t i = 0; i < lock_scripts.size(); ++i) {
        if (!is_standard(lock_scripts[i])) continue;
        standard_codes_[i] = lock_scripts[i];
        util::Bytes& preimage = preimages[spans.size()];
        tpl_.preimage(i, lock_scripts[i], 0x01, preimage);
        spans.emplace_back(preimage.data(), preimage.size());
    }
    std::vector<crypto::Sha256::Digest> digests(standard_count);
    crypto::sha256d_many(spans.data(), digests.data(), standard_count);

    standard_.resize(lock_scripts.size());
    for (std::size_t i = 0, k = 0; i < standard_codes_.size(); ++i) {
        if (standard_codes_[i].empty()) continue;
        standard_[i] = crypto::Hash256::from_span({digests[k].data(), digests[k].size()});
        ++k;
    }
}

crypto::Hash256 SighashCache::digest(std::size_t input_index, util::ByteSpan script_code,
                                     std::uint8_t hash_type) const {
    static obs::Counter& bytes_saved =
        obs::Registry::global().counter("ebv.crypto.sighash_bytes_saved");
    bytes_saved.inc(static_cast<std::uint64_t>(tpl_.prefix_skipped(input_index)) +
                    tpl_.preimage_size(input_index, script_code));

    if (hash_type == 0x01 && input_index < standard_codes_.size()) {
        const util::ByteSpan code = standard_codes_[input_index];
        if (!code.empty() && std::equal(script_code.begin(), script_code.end(), code.begin(),
                                        code.end()))
            return standard_[input_index];
    }
    return tpl_.digest(input_index, script_code, hash_type);
}

}  // namespace ebv::chain
