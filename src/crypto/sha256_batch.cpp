// Batched double-SHA256: runtime ISA dispatch and the public
// sha256d64_many / sha256d_many entry points used by the Merkle layer.
//
// A dispatch selection has two orthogonal dimensions: a multi-lane *batch*
// row (none / 8-way AVX2 / 16-way AVX-512) feeding the sha256d*_many entry
// points, and a single-stream *transform* (portable scalar or SHA-NI)
// feeding the streaming Sha256 hasher. The CPU alone picks the selection,
// once per process: the widest batch its features allow, paired with SHA-NI
// when present ("avx512+sha-ni" on a machine with both). Only the
// sha256_force_batch_impl test hook pins another row, so parity tests and
// benches can measure exactly one code path.
#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "util/endian.hpp"

namespace ebv::crypto {

namespace {

/// Double-SHA256 of one pre-padded message of `nblocks` blocks, where
/// `blocks[b]` is block b, through `tf` (the scalar core, or SHA-NI when
/// that row is active).
void sha256d_stream(std::uint8_t* out, const std::uint8_t* const* blocks, std::size_t nblocks,
                    detail::TransformFn tf) {
    std::uint32_t state[8];
    for (int k = 0; k < 8; ++k) state[k] = detail::kSha256Init[k];
    for (std::size_t b = 0; b < nblocks; ++b) tf(state, blocks[b]);

    // Second hash: the 32-byte digest padded into one fixed block.
    std::uint8_t second[64];
    for (int k = 0; k < 8; ++k) util::store_be32(second + 4 * k, state[k]);
    second[32] = 0x80;
    std::memset(second + 33, 0, 29);
    second[62] = 0x01;  // 256 bits, big-endian
    second[63] = 0x00;

    for (int k = 0; k < 8; ++k) state[k] = detail::kSha256Init[k];
    tf(state, second);
    for (int k = 0; k < 8; ++k) util::store_be32(out + 4 * k, state[k]);
}

using BatchFn = void (*)(std::uint8_t* out, const std::uint8_t* const* blocks,
                         std::size_t nblocks);

struct Selection {
    const char* name;        // full selection name, e.g. "avx512+sha-ni"
    int index;               // stable gauge id (see sha256_impl_index())
    const char* batch_name;  // batch dimension only, e.g. "avx512"
    std::size_t lanes;
    BatchFn batch;  // fixed-lane SIMD core, or nullptr for the scalar fallback
    detail::TransformFn transform;  // single-stream compression
};

/// In order of preference: each row beats every row above it that the CPU
/// also supports. Ids 1 and 5 belonged to the deleted SSE2 rows.
constexpr Selection kSelections[] = {
    {"scalar", 0, "scalar", 1, nullptr, &detail::sha256_transform},
    {"avx2", 2, "avx2", detail::kAvx2Lanes, &detail::sha256d_batch_avx2,
     &detail::sha256_transform},
    {"avx512", 3, "avx512", detail::kAvx512Lanes, &detail::sha256d_batch_avx512,
     &detail::sha256_transform},
    {"sha-ni", 4, "scalar", 1, nullptr, &detail::sha256_transform_shani},
    {"avx2+sha-ni", 6, "avx2", detail::kAvx2Lanes, &detail::sha256d_batch_avx2,
     &detail::sha256_transform_shani},
    {"avx512+sha-ni", 7, "avx512", detail::kAvx512Lanes, &detail::sha256d_batch_avx512,
     &detail::sha256_transform_shani},
};

bool selection_supported(const Selection& s) {
    if (s.batch == &detail::sha256d_batch_avx2 && !detail::have_avx2()) return false;
    if (s.batch == &detail::sha256d_batch_avx512 && !detail::have_avx512()) return false;
    if (s.transform == &detail::sha256_transform_shani && !detail::have_shani()) return false;
    return true;
}

const Selection* find_selection(std::string_view name) {
    for (const Selection& s : kSelections)
        if (name == s.name) return &s;
    return nullptr;
}

/// The last supported row: the widest batch, paired with SHA-NI when present.
const Selection* detect_selection() {
    const Selection* best = &kSelections[0];
    for (const Selection& s : kSelections)
        if (selection_supported(s)) best = &s;
    return best;
}

const Selection*& active_selection() {
    static const Selection* sel = detect_selection();
    return sel;
}

}  // namespace

namespace detail {

TransformFn sha256_transform_active() { return active_selection()->transform; }

}  // namespace detail

const char* sha256_batch_impl() { return active_selection()->batch_name; }

const char* sha256_impl() { return active_selection()->name; }

int sha256_impl_index() { return active_selection()->index; }

bool sha256_force_batch_impl(std::string_view name) {
    if (name == "auto") {
        active_selection() = detect_selection();
        return true;
    }
    const Selection* s = find_selection(name);
    if (s == nullptr || !selection_supported(*s)) return false;
    active_selection() = s;
    return true;
}

void sha256d64_many(std::uint8_t* out, const std::uint8_t* in, std::size_t n) {
    // Message count per call (not per lane): one relaxed add regardless of
    // batch width, so instrumentation cost is amortized over the batch.
    static obs::Counter& msgs =
        obs::Registry::global().counter("ebv.crypto.sha256d64_msgs");
    msgs.inc(n);
    // A 64-byte message pads to two blocks; the pad block is constant
    // (0x80, zeros, bit length 512) and shared across every lane.
    static constexpr std::uint8_t kPad64[64] = {
        0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x00};

    const Selection& impl = *active_selection();
    const std::size_t w = impl.lanes;
    std::size_t i = 0;
    if (impl.batch != nullptr) {
        // 16 lanes * 2 blocks max; blocks[b*W + l] = block b of lane l.
        const std::uint8_t* blocks[2 * detail::kAvx512Lanes];
        for (; i + w <= n; i += w) {
            for (std::size_t l = 0; l < w; ++l) {
                blocks[l] = in + 64 * (i + l);
                blocks[w + l] = kPad64;
            }
            // Safe in-place: the group's 32-byte outputs land inside its own
            // 64-byte inputs, which were fully consumed before any store.
            impl.batch(out + 32 * i, blocks, 2);
        }
    }
    for (; i < n; ++i) {
        const std::uint8_t* blocks[2] = {in + 64 * i, kPad64};
        sha256d_stream(out + 32 * i, blocks, 2, impl.transform);
    }
}

void sha256d_many(const util::ByteSpan* inputs, Sha256::Digest* outputs, std::size_t n) {
    static obs::Counter& msgs =
        obs::Registry::global().counter("ebv.crypto.sha256d_msgs");
    msgs.inc(n);
    const Selection& impl = *active_selection();
    const std::size_t w = impl.lanes;

    if (impl.batch == nullptr || n < w) {
        for (std::size_t i = 0; i < n; ++i) outputs[i] = double_sha256(inputs[i]);
        return;
    }

    // Group messages with equal padded block counts so each SIMD batch runs
    // the same number of transforms in every lane. stable_sort keeps the
    // grouping deterministic.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    const auto nblocks_of = [&](std::size_t i) { return (inputs[i].size() + 9 + 63) / 64; };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return nblocks_of(a) < nblocks_of(b); });

    std::vector<std::uint8_t> scratch;
    std::vector<const std::uint8_t*> blocks;
    std::uint8_t digests[detail::kAvx512Lanes * 32];

    std::size_t run = 0;
    while (run < n) {
        const std::size_t nblocks = nblocks_of(order[run]);
        std::size_t run_end = run;
        while (run_end < n && nblocks_of(order[run_end]) == nblocks) ++run_end;

        std::size_t i = run;
        for (; i + w <= run_end; i += w) {
            scratch.assign(w * nblocks * 64, 0);
            blocks.resize(w * nblocks);
            for (std::size_t l = 0; l < w; ++l) {
                const util::ByteSpan msg = inputs[order[i + l]];
                std::uint8_t* lane = scratch.data() + l * nblocks * 64;
                if (!msg.empty()) std::memcpy(lane, msg.data(), msg.size());
                lane[msg.size()] = 0x80;
                util::store_be64(lane + nblocks * 64 - 8,
                                 static_cast<std::uint64_t>(msg.size()) * 8);
                for (std::size_t b = 0; b < nblocks; ++b) blocks[b * w + l] = lane + b * 64;
            }
            impl.batch(digests, blocks.data(), nblocks);
            for (std::size_t l = 0; l < w; ++l)
                std::memcpy(outputs[order[i + l]].data(), digests + 32 * l, 32);
        }
        for (; i < run_end; ++i) outputs[order[i]] = double_sha256(inputs[order[i]]);
        run = run_end;
    }
}

}  // namespace ebv::crypto
