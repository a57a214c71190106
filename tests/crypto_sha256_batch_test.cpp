#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

/// Every selection the current CPU supports, scalar first. Composite rows
/// (batch + SHA-NI stream) are exercised alongside the pure ones.
std::vector<std::string> available_impls() {
    std::vector<std::string> impls{"scalar"};
    if (detail::have_avx2()) impls.emplace_back("avx2");
    if (detail::have_avx512()) impls.emplace_back("avx512");
    if (detail::have_shani()) {
        impls.emplace_back("sha-ni");
        if (detail::have_avx2()) impls.emplace_back("avx2+sha-ni");
        if (detail::have_avx512()) impls.emplace_back("avx512+sha-ni");
    }
    return impls;
}

/// Restores the auto-detected implementation when a test ends.
struct ImplGuard {
    ~ImplGuard() { sha256_force_batch_impl("auto"); }
};

TEST(Sha256Batch, ForceImplRejectsUnknownNames) {
    ImplGuard guard;
    const std::string before = sha256_impl();
    EXPECT_FALSE(sha256_force_batch_impl("sha512"));
    EXPECT_FALSE(sha256_force_batch_impl("bogus"));
    EXPECT_FALSE(sha256_force_batch_impl(""));
    EXPECT_EQ(before, sha256_impl());
    EXPECT_TRUE(sha256_force_batch_impl("scalar"));
    EXPECT_STREQ(sha256_batch_impl(), "scalar");
    EXPECT_STREQ(sha256_impl(), "scalar");
    EXPECT_EQ(sha256_impl_index(), 0);
    // "auto" hands the choice back to the CPU: the widest batch it
    // supports, paired with the SHA-NI stream when present.
    EXPECT_TRUE(sha256_force_batch_impl("auto"));
    EXPECT_EQ(available_impls().back(), sha256_impl());
}

TEST(Sha256Batch, ForceImplRejectsUnsupportedRows) {
    ImplGuard guard;
    // Forcing is strict: a row the CPU (or build) lacks returns false and
    // leaves the selection untouched. Supported rows always force, and each
    // keeps the gauge id that ebv.crypto.sha256_impl and artifacts record.
    const std::string before = sha256_impl();
    if (!detail::have_shani()) {
        EXPECT_FALSE(sha256_force_batch_impl("sha-ni"));
        EXPECT_FALSE(sha256_force_batch_impl("avx2+sha-ni"));
        EXPECT_EQ(before, sha256_impl());
    }
    if (!detail::have_avx512()) {
        EXPECT_FALSE(sha256_force_batch_impl("avx512"));
        EXPECT_EQ(before, sha256_impl());
    }
    // The retired SSE2 rows are unknown names now.
    EXPECT_FALSE(sha256_force_batch_impl("sse2"));
    EXPECT_FALSE(sha256_force_batch_impl("sse2+sha-ni"));
    EXPECT_EQ(before, sha256_impl());

    const std::map<std::string, int> ids = {{"scalar", 0},      {"avx2", 2},
                                            {"avx512", 3},      {"sha-ni", 4},
                                            {"avx2+sha-ni", 6}, {"avx512+sha-ni", 7}};
    for (const auto& impl : available_impls()) {
        EXPECT_TRUE(sha256_force_batch_impl(impl)) << impl;
        EXPECT_EQ(impl, sha256_impl());
        EXPECT_EQ(ids.at(impl), sha256_impl_index()) << impl;
    }
}

TEST(Sha256Batch, StreamingMatchesFipsVectorsOnEveryImpl) {
    ImplGuard guard;
    // Fixed vectors, independent of any code in this repo — this is what
    // catches a transform bug that self-consistency checks would miss.
    const std::string abc = "abc";
    const std::string two_block = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const std::string million(1000000, 'a');
    struct Vector {
        const std::string* msg;
        const char* digest_hex;
    } vectors[] = {
        {&abc, "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {&two_block, "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {&million, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const auto& impl : available_impls()) {
        ASSERT_TRUE(sha256_force_batch_impl(impl)) << impl;
        for (const auto& v : vectors) {
            const auto got = Sha256::hash(
                {reinterpret_cast<const std::uint8_t*>(v.msg->data()), v.msg->size()});
            EXPECT_EQ(util::hex_encode({got.data(), got.size()}), v.digest_hex)
                << impl << " len=" << v.msg->size();
        }
        // Empty message too (padding-only block).
        const auto empty = Sha256::hash({});
        EXPECT_EQ(util::hex_encode({empty.data(), empty.size()}),
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            << impl;
    }
}

TEST(Sha256Batch, MidstateResumeMatchesDirect) {
    util::Rng rng(47);
    // Resume from a captured midstate at every block boundary of a 5-block
    // message and hash the remaining suffix; must equal the one-shot digest.
    std::vector<std::uint8_t> msg(5 * 64 + 37);
    rng.fill(msg);
    const auto want = Sha256::hash({msg.data(), msg.size()});
    for (std::size_t cut = 0; cut <= 5 * 64; cut += 64) {
        Sha256 prefix;
        prefix.update({msg.data(), cut});
        const Sha256::Midstate m = prefix.midstate();
        EXPECT_EQ(m.bytes, cut);
        Sha256 rest = Sha256::resume(m);
        rest.update({msg.data() + cut, msg.size() - cut});
        EXPECT_EQ(rest.finalize(), want) << "cut=" << cut;
    }
}

TEST(Sha256Batch, Sha256d64MatchesSingleShotOnEveryImpl) {
    ImplGuard guard;
    util::Rng rng(7);
    // Cover lane remainders around every dispatch width: 0..33 messages
    // (past 2*16 so the AVX-512 row gets full batches plus stragglers).
    // Expected digests are pinned under forced scalar so a SIMD/SHA-NI bug
    // cannot agree with itself through double_sha256.
    for (std::size_t n = 0; n <= 33; ++n) {
        std::vector<std::uint8_t> in(n * 64);
        rng.fill(in);
        std::vector<std::uint8_t> want(n * 32);
        ASSERT_TRUE(sha256_force_batch_impl("scalar"));
        for (std::size_t i = 0; i < n; ++i) {
            const auto d = double_sha256({in.data() + 64 * i, 64});
            std::memcpy(want.data() + 32 * i, d.data(), 32);
        }
        for (const auto& impl : available_impls()) {
            ASSERT_TRUE(sha256_force_batch_impl(impl)) << impl;
            std::vector<std::uint8_t> out(n * 32);
            sha256d64_many(out.data(), in.data(), n);
            EXPECT_EQ(out, want) << impl << " n=" << n;
        }
    }
}

TEST(Sha256Batch, Sha256d64InPlace) {
    ImplGuard guard;
    util::Rng rng(11);
    for (const auto& impl : available_impls()) {
        ASSERT_TRUE(sha256_force_batch_impl(impl)) << impl;
        const std::size_t n = 29;
        std::vector<std::uint8_t> buf(n * 64);
        rng.fill(buf);
        std::vector<std::uint8_t> expected(n * 32);
        sha256d64_many(expected.data(), buf.data(), n);
        sha256d64_many(buf.data(), buf.data(), n);  // in place
        EXPECT_EQ(0, std::memcmp(buf.data(), expected.data(), n * 32)) << impl;
    }
}

TEST(Sha256Batch, VariableLengthMatchesDoubleSha256OnEveryImpl) {
    ImplGuard guard;
    util::Rng rng(23);
    // Mixed lengths spanning 1..6 padded blocks, plus empty messages, in a
    // shuffled order so the equal-block-count grouping has real work to do.
    // Enough copies that the 16-lane row forms full batches.
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::size_t len : {0u, 1u, 31u, 55u, 56u, 64u, 100u, 119u, 120u, 128u, 200u, 300u}) {
        for (int copies = 0; copies < 6; ++copies) {
            msgs.emplace_back(len + copies);
            rng.fill(msgs.back());
        }
    }
    std::vector<util::ByteSpan> spans;
    spans.reserve(msgs.size());
    for (const auto& m : msgs) spans.emplace_back(m.data(), m.size());

    ASSERT_TRUE(sha256_force_batch_impl("scalar"));
    std::vector<Sha256::Digest> expected(msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) expected[i] = double_sha256(spans[i]);

    for (const auto& impl : available_impls()) {
        ASSERT_TRUE(sha256_force_batch_impl(impl)) << impl;
        std::vector<Sha256::Digest> got(msgs.size());
        sha256d_many(spans.data(), got.data(), msgs.size());
        for (std::size_t i = 0; i < msgs.size(); ++i)
            EXPECT_EQ(expected[i], got[i]) << impl << " i=" << i;
    }
}

}  // namespace
}  // namespace ebv::crypto
