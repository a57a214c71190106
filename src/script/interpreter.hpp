// The script virtual machine. Runs the unlocking script (Us) then the
// locking script (Ls) on the same stack — Script Validation (SV) in the
// paper's terminology. Signature checking is delegated to a caller-supplied
// SignatureChecker because the signature hash depends on the enclosing
// transaction format (Bitcoin-style in chain/, tidy EBV style in core/).
#pragma once

#include <cstdint>
#include <vector>

#include "script/script.hpp"
#include "util/result.hpp"
#include "util/span.hpp"

namespace ebv::script {

enum class ScriptError {
    kOk,
    kEvalFalse,         ///< script ran but left false on top
    kMalformedScript,   ///< truncated push / undecodable byte stream
    kBadOpcode,         ///< disabled or unknown opcode
    kStackUnderflow,
    kUnbalancedConditional,
    kVerifyFailed,
    kEqualVerifyFailed,
    kNumEqualVerifyFailed,
    kCheckSigVerifyFailed,
    kCheckMultiSigVerifyFailed,
    kOpReturn,
    kPushSizeExceeded,
    kOpCountExceeded,
    kStackSizeExceeded,
    kScriptSizeExceeded,
    kBadNumericOperand,  ///< ScriptNum overflow / non-minimal where required
    kInvalidStackOperation,
    kSigCountInvalid,
    kPubkeyCountInvalid,
    kCleanStackViolation,
};

[[nodiscard]] const char* to_string(ScriptError e);

/// Resource limits matching Bitcoin's consensus constants.
struct ScriptLimits {
    static constexpr std::size_t kMaxScriptSize = 10'000;
    static constexpr std::size_t kMaxPushSize = 520;
    static constexpr std::size_t kMaxOpsPerScript = 201;
    static constexpr std::size_t kMaxStackSize = 1'000;
    static constexpr int kMaxPubkeysPerMultisig = 20;
};

/// Callback for OP_CHECKSIG-family opcodes. `signature` is the DER encoding
/// followed by a 1-byte sighash type; `pubkey` is a compressed public key;
/// `script_code` is the currently executing locking script.
class SignatureChecker {
public:
    virtual ~SignatureChecker() = default;
    [[nodiscard]] virtual bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                               util::ByteSpan script_code) const = 0;
};

/// A checker that rejects everything — for contexts with no transaction.
class NullSignatureChecker final : public SignatureChecker {
public:
    [[nodiscard]] bool check_signature(util::ByteSpan, util::ByteSpan,
                                       util::ByteSpan) const override {
        return false;
    }
};

using Stack = std::vector<util::Bytes>;

/// Execute a single script on the given stack.
[[nodiscard]] ScriptError eval_script(util::ByteSpan script, Stack& stack,
                                      const SignatureChecker& checker);

/// Full SV: run Us, then Ls on the resulting stack; succeed iff the final
/// top-of-stack is truthy (and, with require_clean_stack, nothing is left
/// behind). Us must be push-only, as in Bitcoin policy. Pay-to-script-hash
/// locking scripts (HASH160 <20> EQUAL) get the standard extra evaluation:
/// the unlocking script's final push is deserialized as the redeem script
/// and executed against the remaining stack.
[[nodiscard]] ScriptError verify_script(util::ByteSpan unlocking, util::ByteSpan locking,
                                        const SignatureChecker& checker,
                                        bool require_clean_stack = true);

/// Is this locking script the P2SH pattern?
[[nodiscard]] bool is_pay_to_script_hash(util::ByteSpan locking);

/// Bitcoin's truthiness rule: nonempty and not negative zero.
[[nodiscard]] bool cast_to_bool(util::ByteSpan value);

}  // namespace ebv::script
