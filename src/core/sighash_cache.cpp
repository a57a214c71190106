#include "core/sighash_cache.hpp"

#include <vector>

#include "util/serialize.hpp"

namespace ebv::core {

namespace {

chain::SighashTemplate build_template(const EbvTransaction& tx) {
    std::size_t size = 4 + util::compact_size_length(tx.inputs.size()) + 41 * tx.inputs.size() +
                       util::compact_size_length(tx.outputs.size()) + 4;
    for (const chain::TxOut& out : tx.outputs)
        size += 8 + util::compact_size_length(out.lock_script.size()) + out.lock_script.size();

    chain::SighashTemplate::Builder b(tx.version, tx.inputs.size(), tx.outputs.size(), size);
    for (const EbvInput& in : tx.inputs) b.add_input(in.prevout, in.sequence);
    b.begin_outputs(tx.outputs.size());
    for (const chain::TxOut& out : tx.outputs) b.add_output(out);
    return b.finish(tx.locktime);
}

/// Empty below two inputs, where the cache has nothing to batch.
std::vector<util::ByteSpan> els_lock_scripts(const EbvTransaction& tx) {
    if (tx.inputs.size() < 2) return {};
    std::vector<util::ByteSpan> locks(tx.inputs.size());
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
        const EbvInput& in = tx.inputs[i];
        if (in.out_index < in.els.outputs.size())
            locks[i] = in.els.outputs[in.out_index].lock_script;
    }
    return locks;
}

}  // namespace

TxSighashCache::TxSighashCache(const EbvTransaction& tx)
    : chain::SighashCache(build_template(tx), els_lock_scripts(tx)) {}

}  // namespace ebv::core
