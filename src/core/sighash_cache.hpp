// The EBV side of the shared sighash rule (chain::SighashCache): a cache
// over the EBV transaction's legacy projection (prevouts + sequences +
// outputs, the bytes signatures commit to) whose standard script codes are
// the locking scripts inside each input's ELs. An input whose claimed
// out_index is not in its ELs (EV will reject it) has none.
#pragma once

#include "chain/sighash_template.hpp"
#include "core/ebv_transaction.hpp"

namespace ebv::core {

/// Keeps views of `tx`'s ELs lock scripts: `tx` must outlive the cache.
class TxSighashCache : public chain::SighashCache {
public:
    explicit TxSighashCache(const EbvTransaction& tx);
};

}  // namespace ebv::core
