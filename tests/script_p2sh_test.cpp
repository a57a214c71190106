// Pay-to-script-hash semantics: the extra redeem-script evaluation, its
// interaction with real signatures, and classification.
#include <gtest/gtest.h>

#include "chain/sighash.hpp"
#include "chain/transaction.hpp"
#include "crypto/sha256.hpp"
#include "script/interpreter.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"

namespace ebv::script {
namespace {

const NullSignatureChecker kNullChecker;

TEST(P2sh, PatternDetection) {
    util::Rng rng(1);
    const auto key = crypto::PrivateKey::generate(rng);
    const Script redeem = make_p2pkh(key.public_key().id());
    const Script lock = make_p2sh(redeem);
    EXPECT_TRUE(is_pay_to_script_hash(lock));
    EXPECT_EQ(classify(lock), ScriptType::kP2Sh);
    EXPECT_FALSE(is_pay_to_script_hash(redeem));
}

TEST(P2sh, HashLockRedeemScriptEndToEnd) {
    // Redeem script: SHA256 <digest> EQUAL — spendable by whoever knows the
    // preimage, wrapped in P2SH.
    const util::Bytes preimage = util::to_bytes(std::string_view("p2sh secret"));
    const auto digest = crypto::Sha256::hash(preimage);
    const Script redeem = ScriptBuilder()
                              .op(OP_SHA256)
                              .push(util::ByteSpan{digest.data(), digest.size()})
                              .op(OP_EQUAL)
                              .take();
    const Script lock = make_p2sh(redeem);

    const Script unlock =
        make_p2sh_unlock(ScriptBuilder().push(preimage).take(), redeem);
    EXPECT_EQ(verify_script(unlock, lock, kNullChecker), ScriptError::kOk);

    // Wrong preimage: redeem script evaluates false.
    const Script bad_unlock =
        make_p2sh_unlock(ScriptBuilder().push(util::Bytes{1, 2}).take(), redeem);
    EXPECT_EQ(verify_script(bad_unlock, lock, kNullChecker), ScriptError::kEvalFalse);

    // Wrong redeem script: hash mismatch fails the outer script.
    const Script other_redeem = ScriptBuilder().op(OP_1).take();
    const Script wrong_unlock =
        make_p2sh_unlock(ScriptBuilder().push(preimage).take(), other_redeem);
    EXPECT_EQ(verify_script(wrong_unlock, lock, kNullChecker), ScriptError::kEvalFalse);
}

TEST(P2sh, WrappedMultisigWithRealSignatures) {
    util::Rng rng(2);
    const auto k1 = crypto::PrivateKey::generate(rng);
    const auto k2 = crypto::PrivateKey::generate(rng);
    const Script redeem = make_multisig(2, {k1.public_key(), k2.public_key()});
    const Script lock = make_p2sh(redeem);

    chain::Transaction tx;
    chain::OutPoint prevout;
    prevout.txid.bytes()[0] = 7;
    tx.vin.push_back(chain::TxIn{prevout, {}, 0xffffffff});
    tx.vout.push_back(chain::TxOut{90, Script{0x51}});

    // Signatures commit to the *redeem script* as script code (standard).
    const util::Bytes sig1 = chain::sign_input(tx, 0, redeem, k1);
    const util::Bytes sig2 = chain::sign_input(tx, 0, redeem, k2);
    tx.vin[0].unlock_script = make_p2sh_unlock(make_multisig_unlock({sig1, sig2}), redeem);
    tx.invalidate_cache();

    const chain::SighashCache cache(chain::SighashTemplate::build(tx));
    chain::SigChecker checker(cache, 0);
    EXPECT_EQ(verify_script(tx.vin[0].unlock_script, lock, checker), ScriptError::kOk);

    // One signature short fails the inner CHECKMULTISIG.
    tx.vin[0].unlock_script = make_p2sh_unlock(make_multisig_unlock({sig1}), redeem);
    tx.invalidate_cache();
    const chain::SighashCache cache2(chain::SighashTemplate::build(tx));
    chain::SigChecker checker2(cache2, 0);
    EXPECT_NE(verify_script(tx.vin[0].unlock_script, lock, checker2), ScriptError::kOk);
}

TEST(P2sh, EmptyUnlockRejected) {
    const Script lock = make_p2sh(Script{OP_1});
    EXPECT_EQ(verify_script({}, lock, kNullChecker), ScriptError::kStackUnderflow);
}

}  // namespace
}  // namespace ebv::script
