// The signature cache lives in chain/ beside the checker that reads it;
// this alias keeps the core:: name for code outside src/.
#pragma once

#include "chain/sig_cache.hpp"

namespace ebv::core {
using chain::SigCache;
}  // namespace ebv::core
