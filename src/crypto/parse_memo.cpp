#include "crypto/parse_memo.hpp"

#include <cstring>

#include "crypto/ecdsa_lanes.hpp"

namespace ebv::crypto {

namespace {

constexpr std::size_t kSlots = 64;  // power of two; direct-mapped
constexpr std::uint8_t kEmpty = 0xFF;

std::uint64_t fnv1a(util::ByteSpan bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// One direct-mapped slot: the full key bytes (compared on hit — the hash
/// only picks the slot), the parse outcome, and the parsed value.
template <typename T, std::size_t MaxKey>
struct Entry {
    std::uint8_t key[MaxKey];
    std::uint8_t len = kEmpty;  // kEmpty = unoccupied; valid keys are shorter
    bool ok = false;
    T value{};
};

template <typename T, std::size_t MaxKey>
void enter(Entry<T, MaxKey>& e, util::ByteSpan bytes, const std::optional<T>& parsed) {
    if (!bytes.empty()) std::memcpy(e.key, bytes.data(), bytes.size());
    e.len = static_cast<std::uint8_t>(bytes.size());
    e.ok = parsed.has_value();
    if (parsed) e.value = *parsed;
}

/// With `defer`, a miss returns T{} and enters nothing.
template <typename T, std::size_t MaxKey, typename ParseFn>
std::optional<T> memoized(Entry<T, MaxKey>* table, util::ByteSpan bytes, ParseFn parse,
                          std::uint64_t& hits, std::uint64_t& misses, bool defer = false) {
    if (bytes.size() >= kEmpty || bytes.size() > MaxKey) return parse(bytes);

    Entry<T, MaxKey>& e = table[fnv1a(bytes) & (kSlots - 1)];
    if (e.len == bytes.size() &&
        (bytes.empty() || std::memcmp(e.key, bytes.data(), bytes.size()) == 0)) {
        ++hits;
        if (!e.ok) return std::nullopt;
        return e.value;
    }

    ++misses;
    if (defer) return T{};
    std::optional<T> parsed = parse(bytes);
    enter(e, bytes, parsed);
    return parsed;
}

struct ThreadTables {
    // 33-byte compressed pubkeys; 72 bytes covers every strict-DER signature.
    Entry<PublicKey, 33> pubkeys[kSlots];
    Entry<Signature, 80> sigs[kSlots];
    ParseMemoStats stats;
};

ThreadTables& tables() {
    thread_local ThreadTables t;
    return t;
}

}  // namespace

std::optional<PublicKey> parse_public_key_memo(util::ByteSpan bytes, bool defer) {
    ThreadTables& t = tables();
    return memoized(t.pubkeys, bytes, [](util::ByteSpan b) { return PublicKey::parse(b); },
                    t.stats.pubkey_hits, t.stats.pubkey_misses,
                    defer && secp256k1::compressed_x(bytes).has_value());
}

std::uint8_t parse_public_keys_memo(std::span<const util::ByteSpan> encodings,
                                    std::span<PublicKey> keys) {
    const std::uint8_t parsed = parse_keys_lanes(encodings, keys);
    for (std::size_t i = 0; i < encodings.size(); ++i)  // 33 bytes each: deferred misses
        enter(tables().pubkeys[fnv1a(encodings[i]) & (kSlots - 1)], encodings[i],
              (parsed >> i & 1) != 0 ? std::optional(keys[i]) : std::nullopt);
    return parsed;
}

std::optional<Signature> parse_signature_der_memo(util::ByteSpan der) {
    ThreadTables& t = tables();
    return memoized(t.sigs, der, [](util::ByteSpan b) { return Signature::from_der(b); },
                    t.stats.sig_hits, t.stats.sig_misses);
}

ParseMemoStats parse_memo_stats() { return tables().stats; }

void parse_memo_reset() { tables() = ThreadTables{}; }

}  // namespace ebv::crypto
