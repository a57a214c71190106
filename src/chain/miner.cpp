#include "chain/miner.hpp"

#include "script/script.hpp"

namespace ebv::chain {

Transaction make_coinbase(std::uint32_t height, Amount reward,
                          const script::Script& lock_script, std::uint32_t extra_nonce) {
    Transaction tx;
    tx.vin.push_back(TxIn{OutPoint::null(),
                          script::ScriptBuilder()
                              .push_int(static_cast<std::int64_t>(height))
                              .push_int(static_cast<std::int64_t>(extra_nonce))
                              .take(),
                          0xffffffff});
    tx.vout.push_back(TxOut{reward, lock_script});
    return tx;
}

Block assemble_block(const crypto::Hash256& prev_hash, Transaction coinbase,
                     std::vector<Transaction> txs, std::uint32_t time) {
    Block block;
    block.txs.reserve(1 + txs.size());
    block.txs.push_back(std::move(coinbase));
    for (auto& tx : txs) block.txs.push_back(std::move(tx));

    block.header.prev_hash = prev_hash;
    block.header.merkle_root = block.compute_merkle_root();
    block.header.time = time;
    return block;
}

}  // namespace ebv::chain
