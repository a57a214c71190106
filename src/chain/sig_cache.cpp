#include "chain/sig_cache.hpp"

#include <cstdlib>
#include <random>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace ebv::chain {

namespace {

/// Registry handles, resolved once (values survive Registry::reset()).
struct SigCacheMetrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& inserts;
    obs::Counter& evictions;
    obs::Gauge& entries;
    obs::Gauge& bytes;

    static SigCacheMetrics& get() {
        static SigCacheMetrics m{
            obs::Registry::global().counter("ebv.sigcache.hits"),
            obs::Registry::global().counter("ebv.sigcache.misses"),
            obs::Registry::global().counter("ebv.sigcache.inserts"),
            obs::Registry::global().counter("ebv.sigcache.evictions"),
            obs::Registry::global().gauge("ebv.sigcache.entries"),
            obs::Registry::global().gauge("ebv.sigcache.bytes"),
        };
        return m;
    }
};

std::size_t resolve_max_bytes(std::size_t fallback) {
    if (const char* env = std::getenv("EBV_SIGCACHE_BYTES")) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env) return static_cast<std::size_t>(v);
    }
    return fallback;
}

crypto::Hash256 random_salt() {
    std::random_device rd;
    std::array<std::uint8_t, 32> raw{};
    for (std::size_t i = 0; i < raw.size(); i += 4) {
        const std::uint32_t word = rd();
        raw[i] = static_cast<std::uint8_t>(word);
        raw[i + 1] = static_cast<std::uint8_t>(word >> 8);
        raw[i + 2] = static_cast<std::uint8_t>(word >> 16);
        raw[i + 3] = static_cast<std::uint8_t>(word >> 24);
    }
    return crypto::Hash256::from_span({raw.data(), raw.size()});
}

}  // namespace

SigCache::SigCache(std::size_t max_bytes)
    : salt_(random_salt()), max_bytes_(resolve_max_bytes(max_bytes)) {
    if (max_bytes_ != 0) {
        const std::size_t total_entries = max_bytes_ / kEntryCostBytes;
        shard_entry_cap_ = total_entries / kShardCount;
        if (shard_entry_cap_ == 0) shard_entry_cap_ = 1;
    }
}

crypto::Hash256 SigCache::key_for(const crypto::VerifyJob& job) const {
    // salt || sighash || compressed pubkey (33B) || r || s, hashed to 32B.
    std::uint8_t pub[33];
    pub[0] = job.key.point().y.is_odd() ? 0x03 : 0x02;
    job.key.point().x.to_be_bytes({pub + 1, 32});
    std::uint8_t rs[64];
    job.sig.r.to_be_bytes({rs, 32});
    job.sig.s.to_be_bytes({rs + 32, 32});

    crypto::Sha256 h;
    h.update(salt_.span());
    h.update(job.digest.span());
    h.update({pub, sizeof pub});
    h.update({rs, sizeof rs});
    const crypto::Sha256::Digest d = h.finalize();
    return crypto::Hash256::from_span({d.data(), d.size()});
}

SigCache::Shard& SigCache::shard_for(const crypto::Hash256& key) const {
    return shards_[key.bytes()[0] & (kShardCount - 1)];
}

bool SigCache::contains(const crypto::VerifyJob& job) const {
    const crypto::Hash256 key = key_for(job);
    Shard& shard = shard_for(key);
    bool hit = false;
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        hit = shard.keys.count(key) != 0;
    }
    SigCacheMetrics& m = SigCacheMetrics::get();
    if (hit) {
        m.hits.inc();
    } else {
        m.misses.inc();
    }
    return hit;
}

void SigCache::insert(const crypto::VerifyJob& job) {
    const crypto::Hash256 key = key_for(job);
    Shard& shard = shard_for(key);
    std::size_t inserted = 0;
    std::size_t evicted = 0;
    std::int64_t delta = 0;
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.keys.insert(key).second) {
            shard.order.push_back(key);
            inserted = 1;
            while (shard_entry_cap_ != 0 && shard.keys.size() > shard_entry_cap_) {
                shard.keys.erase(shard.order.front());
                shard.order.pop_front();
                ++evicted;
            }
        }
        delta = static_cast<std::int64_t>(inserted) - static_cast<std::int64_t>(evicted);
    }
    SigCacheMetrics& m = SigCacheMetrics::get();
    if (inserted) m.inserts.inc();
    if (evicted) m.evictions.inc(evicted);
    if (delta != 0) {
        m.entries.add(delta);
        m.bytes.add(delta * static_cast<std::int64_t>(kEntryCostBytes));
    }
}

bool SigCache::erase(const crypto::VerifyJob& job) {
    const crypto::Hash256 key = key_for(job);
    Shard& shard = shard_for(key);
    bool erased = false;
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        erased = shard.keys.erase(key) != 0;
        // Scrub the FIFO slot too, or budget eviction would later pop a
        // key that no longer exists and silently under-evict.
        if (erased) {
            for (auto it = shard.order.begin(); it != shard.order.end(); ++it) {
                if (*it == key) {
                    shard.order.erase(it);
                    break;
                }
            }
        }
    }
    if (erased) {
        SigCacheMetrics& m = SigCacheMetrics::get();
        m.evictions.inc();
        m.entries.add(-1);
        m.bytes.add(-static_cast<std::int64_t>(kEntryCostBytes));
    }
    return erased;
}

void SigCache::clear() {
    std::size_t dropped = 0;
    for (Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        dropped += shard.keys.size();
        shard.keys.clear();
        shard.order.clear();
    }
    if (dropped != 0) {
        SigCacheMetrics& m = SigCacheMetrics::get();
        m.evictions.inc(dropped);
        m.entries.add(-static_cast<std::int64_t>(dropped));
        m.bytes.add(-static_cast<std::int64_t>(dropped * kEntryCostBytes));
    }
}

std::size_t SigCache::size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.keys.size();
    }
    return total;
}

}  // namespace ebv::chain
