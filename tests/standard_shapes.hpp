// Spends of every standard signature shape the verdict prefetch matches
// (chain::standard_candidates), honest and hostile, for the lane parity
// tests: each case is a locking script plus the unlocking script that
// spends it, and the tests compare every lane backend and thread count
// against scalar serial validation. ShapeChain lays the cases out as an
// EBV chain, BitcoinShapeChain as a Bitcoin-format one for the baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chain/miner.hpp"
#include "chain/params.hpp"
#include "core/chain_archive.hpp"
#include "core/ebv_transaction.hpp"
#include "crypto/ecdsa.hpp"
#include "script/opcodes.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"

namespace ebv::shapes {

/// DER signature || hash type over input `i` of `tx`, which spends `lock`.
/// With `tamper` the key signs a digest one bit off: the signature still
/// parses, so it reaches the curve check, and fails it.
inline util::Bytes sign_input(const core::EbvTransaction& tx, std::size_t i,
                              const script::Script& lock, const crypto::PrivateKey& key,
                              bool tamper = false, std::uint8_t hash_type = 0x01) {
    crypto::Hash256 digest = core::ebv_signature_hash(tx, i, lock, hash_type);
    if (tamper) digest.bytes()[0] ^= 0x01;
    util::Bytes sig = key.sign(digest).to_der();
    sig.push_back(hash_type);
    return sig;
}

/// `OP_m <key>… OP_n OP_CHECKMULTISIG` over raw key bytes, so a key may be
/// one no parser accepts.
inline script::Script multisig_lock(int m, const std::vector<util::Bytes>& keys) {
    script::Script lock{static_cast<std::uint8_t>(script::OP_1 + m - 1)};
    for (const util::Bytes& key : keys) {
        lock.push_back(static_cast<std::uint8_t>(key.size()));
        lock.insert(lock.end(), key.begin(), key.end());
    }
    lock.push_back(static_cast<std::uint8_t>(script::OP_1 + keys.size() - 1));
    lock.push_back(script::OP_CHECKMULTISIG);
    return lock;
}

/// One spend shape: `unlock(tx, i)` builds the unlocking script of input
/// `i` of `tx`, which spends `lock`. `valid` is the scalar verdict, and
/// `unused` the lane verdicts of the prefetch that its script never reads.
struct ShapeCase {
    std::string name;
    script::Script lock;
    std::function<script::Script(const core::EbvTransaction&, std::size_t)> unlock;
    bool valid;
    std::size_t unused;
};

/// Fifteen keys from one seed.
inline std::vector<crypto::PrivateKey> shape_keys(std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<crypto::PrivateKey> keys;
    for (int k = 0; k < 15; ++k) keys.push_back(crypto::PrivateKey::generate(rng));
    return keys;
}

/// The cases, which keep a reference to `keys`: P2PKH, P2PK, 1-of-M with
/// the signer first, in the middle and last, 2-of-3 and 3-of-5 valid and
/// with a bad signature, signatures out of key order, an unparseable key,
/// and the shapes that take the scalar path (OP_CODESEPARATOR, hash type
/// 0x81).
inline std::vector<ShapeCase> shape_cases(const std::vector<crypto::PrivateKey>& keys) {
    std::vector<util::Bytes> pub;
    for (const crypto::PrivateKey& k : keys) pub.push_back(k.public_key().serialize());
    const auto first = [&](std::size_t n) {
        return std::vector<util::Bytes>(pub.begin(), pub.begin() + static_cast<std::ptrdiff_t>(n));
    };
    // A multisig spend signed by `signers` (key indices), in that order;
    // signature s is tampered when `bad` holds s.
    const auto multisig = [&](std::string name, int m, std::vector<util::Bytes> lock_keys,
                              std::vector<std::size_t> signers, bool valid, std::size_t unused,
                              std::size_t bad = SIZE_MAX) {
        const script::Script lock = multisig_lock(m, lock_keys);
        return ShapeCase{std::move(name), lock,
                         [&keys, lock, signers, bad](const core::EbvTransaction& tx,
                                                     std::size_t i) {
                             std::vector<util::Bytes> sigs;
                             for (std::size_t s = 0; s < signers.size(); ++s)
                                 sigs.push_back(sign_input(tx, i, lock, keys[signers[s]], s == bad));
                             return script::make_multisig_unlock(sigs);
                         },
                         valid, unused};
    };
    const script::Script p2pkh = script::make_p2pkh(keys[0].public_key().id());
    const script::Script p2pk = script::make_p2pk(keys[1].public_key());
    util::Bytes junk(33, 0x11);
    junk[0] = 0x05;  // no such prefix: PublicKey::parse refuses it
    script::Script codesep{33};
    codesep.insert(codesep.end(), pub[2].begin(), pub[2].end());
    codesep.push_back(0xab);  // OP_CODESEPARATOR, which the interpreter refuses
    codesep.push_back(script::OP_CHECKSIG);

    std::vector<ShapeCase> cases;
    cases.push_back({"p2pkh", p2pkh,
                     [&keys, p2pkh](const core::EbvTransaction& tx, std::size_t i) {
                         return script::make_p2pkh_unlock(sign_input(tx, i, p2pkh, keys[0]),
                                                          keys[0].public_key());
                     },
                     true, 0});
    cases.push_back({"p2pk", p2pk,
                     [&keys, p2pk](const core::EbvTransaction& tx, std::size_t i) {
                         return script::make_p2pk_unlock(sign_input(tx, i, p2pk, keys[1]));
                     },
                     true, 0});
    cases.push_back({"p2pk bad signature", p2pk,
                     [&keys, p2pk](const core::EbvTransaction& tx, std::size_t i) {
                         return script::make_p2pk_unlock(sign_input(tx, i, p2pk, keys[1], true));
                     },
                     false, 0});
    cases.push_back(multisig("1-of-2 signer first", 1, first(2), {0}, true, 0));
    cases.push_back(multisig("1-of-3 signer in the middle", 1, first(3), {1}, true, 1));
    cases.push_back(multisig("1-of-15 signer last", 1, first(15), {14}, true, 0));
    cases.push_back(multisig("1-of-15 bad signature", 1, first(15), {14}, false, 0, 0));
    cases.push_back(multisig("2-of-3", 2, first(3), {0, 2}, true, 1));
    cases.push_back(multisig("2-of-3 bad second signature", 2, first(3), {0, 1}, false, 1, 1));
    cases.push_back(multisig("3-of-5", 3, first(5), {1, 2, 4}, true, 4));
    cases.push_back(multisig("3-of-5 bad first signature", 3, first(5), {1, 2, 4}, false, 6, 0));
    cases.push_back(multisig("2-of-3 signatures out of key order", 2, first(3), {1, 0}, false, 1));
    cases.push_back(multisig("1-of-3 unparseable middle key", 1, {pub[0], junk, pub[2]}, {2},
                             true, 0));
    cases.push_back({"OP_CODESEPARATOR", codesep,
                     [&keys, codesep](const core::EbvTransaction& tx, std::size_t i) {
                         return script::make_p2pk_unlock(sign_input(tx, i, codesep, keys[2]));
                     },
                     false, 0});
    cases.push_back({"hash type 0x81", p2pkh,
                     [&keys, p2pkh](const core::EbvTransaction& tx, std::size_t i) {
                         return script::make_p2pkh_unlock(
                             sign_input(tx, i, p2pkh, keys[0], false, 0x81),
                             keys[0].public_key());
                     },
                     false, 0});
    return cases;
}

/// An EBV chain for the cases: block 0's coinbase pays one output per
/// lock, empty blocks follow until it matures, then add_block() appends
/// blocks of spends. Coinbases claim the subsidy only.
class ShapeChain {
public:
    ShapeChain(const chain::ChainParams& params, const std::vector<script::Script>& locks)
        : params_(params) {
        core::EbvBlock funding;
        funding.txs.push_back(make_coinbase());
        funding.txs[0].outputs.clear();
        const chain::Amount each = params_.subsidy_at(0) / static_cast<chain::Amount>(locks.size());
        for (const script::Script& lock : locks) funding.txs[0].outputs.push_back({each, lock});
        append(std::move(funding));
        while (blocks.size() <= params_.coinbase_maturity) add_block({});
    }

    /// A transaction spending funding output `out` into one output, with
    /// the unlocking script `unlock` builds.
    [[nodiscard]] core::EbvTransaction spend(
        std::uint16_t out,
        const std::function<script::Script(const core::EbvTransaction&, std::size_t)>& unlock)
        const {
        core::EbvTransaction tx;
        tx.inputs.push_back(archive_.make_input(0, 0, out));
        tx.inputs[0].prevout.index = out;  // a distinct sighash per spend
        const chain::Amount value = tx.inputs[0].els.outputs[out].value;
        tx.outputs.push_back({value - 1000, script::Script{script::OP_1}});
        tx.inputs[0].unlock_script = unlock(tx, 0);
        return tx;
    }

    /// Appends a block of `txs` after a fresh coinbase.
    void add_block(std::vector<core::EbvTransaction> txs) {
        core::EbvBlock block;
        block.txs.push_back(make_coinbase());
        for (core::EbvTransaction& tx : txs) block.txs.push_back(std::move(tx));
        append(std::move(block));
    }

    std::vector<core::EbvBlock> blocks;

private:
    void append(core::EbvBlock block) {
        block.header.prev_hash = blocks.empty() ? crypto::Hash256{} : blocks.back().header.hash();
        block.assign_stake_positions();
        archive_.add_block(block);
        blocks.push_back(std::move(block));
    }

    [[nodiscard]] core::EbvTransaction make_coinbase() const {
        const auto height = static_cast<std::uint32_t>(blocks.size());
        core::EbvTransaction coinbase;
        coinbase.coinbase_data = {static_cast<std::uint8_t>(height),
                                  static_cast<std::uint8_t>(height >> 8), 0x5a};
        coinbase.outputs.push_back({params_.subsidy_at(height), script::Script{script::OP_1}});
        return coinbase;
    }

    chain::ChainParams params_;
    core::ChainArchive archive_;
};

/// The cases as a Bitcoin-format chain for the baseline validator: block
/// 0's coinbase pays `copies` outputs per lock (output copies · c + k is
/// copy k of lock c), then empty blocks follow until it matures.
class BitcoinShapeChain {
public:
    BitcoinShapeChain(const chain::ChainParams& params, const std::vector<script::Script>& locks,
                      std::size_t copies)
        : params_(params) {
        chain::Transaction funding = chain::make_coinbase(0, params_.subsidy_at(0), {});
        funding.vout.clear();
        const auto each = params_.subsidy_at(0) / static_cast<chain::Amount>(locks.size() * copies);
        for (const script::Script& lock : locks)
            for (std::size_t k = 0; k < copies; ++k) funding.vout.push_back({each, lock});
        funding.invalidate_cache();
        blocks.push_back(chain::assemble_block({}, std::move(funding), {}, 1000));
        while (blocks.size() <= params_.coinbase_maturity) blocks.push_back(next_block({}));
    }

    /// A transaction spending funding output `out` into one output. The
    /// case's `unlock` signs the transaction's EBV mirror (same prevouts,
    /// sequences and outputs), whose sighash is the Bitcoin one.
    [[nodiscard]] chain::Transaction spend(
        std::uint32_t out,
        const std::function<script::Script(const core::EbvTransaction&, std::size_t)>& unlock)
        const {
        const chain::Transaction& funding = blocks.front().txs[0];
        chain::Transaction tx;
        tx.vin.push_back(chain::TxIn{chain::OutPoint{funding.txid(), out}, {}, 0xffffffff});
        tx.vout.push_back({funding.vout[out].value - 1000, script::Script{script::OP_1}});
        core::EbvTransaction mirror;
        mirror.inputs.resize(1);
        mirror.inputs[0].prevout = tx.vin[0].prevout;
        mirror.outputs = tx.vout;
        tx.vin[0].unlock_script = unlock(mirror, 0);
        return tx;
    }

    /// A block of `txs` on the last block of `blocks`.
    [[nodiscard]] chain::Block next_block(std::vector<chain::Transaction> txs) const {
        const auto height = static_cast<std::uint32_t>(blocks.size());
        return chain::assemble_block(
            blocks.back().header.hash(),
            chain::make_coinbase(height, params_.subsidy_at(height), script::Script{script::OP_1}),
            std::move(txs), 1000 + height);
    }

    std::vector<chain::Block> blocks;

private:
    chain::ChainParams params_;
};

}  // namespace ebv::shapes
