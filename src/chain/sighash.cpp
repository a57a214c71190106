#include "chain/sighash.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "crypto/ecdsa.hpp"
#include "crypto/parse_memo.hpp"
#include "obs/metrics.hpp"
#include "script/opcodes.hpp"
#include "util/assert.hpp"

namespace ebv::chain {

namespace {

/// Analytic preimage size so the Writer allocates exactly once.
std::size_t sighash_preimage_size(const Transaction& tx, util::ByteSpan script_code) {
    std::size_t size = 4 /* version */ + util::compact_size_length(tx.vin.size()) +
                       41 * (tx.vin.size() - 1)  /* blanked inputs */
                       + 40 + util::compact_size_length(script_code.size()) +
                       script_code.size()  /* the signed input */
                       + util::compact_size_length(tx.vout.size()) + 4 /* locktime */ +
                       4 /* hash type */;
    for (const TxOut& out : tx.vout)
        size += 8 + util::compact_size_length(out.lock_script.size()) + out.lock_script.size();
    return size;
}

bool same_bytes(util::ByteSpan a, util::ByteSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Reads the direct push (1–75 bytes) at `pos` and steps past it.
std::optional<util::ByteSpan> direct_push(util::ByteSpan script, std::size_t& pos) {
    if (pos >= script.size()) return std::nullopt;
    const std::size_t len = script[pos];
    if (len < 1 || len > 75 || script.size() - pos - 1 < len) return std::nullopt;
    const util::ByteSpan data = script.subspan(pos + 1, len);
    pos += 1 + len;
    return data;
}

}  // namespace

crypto::Hash256 signature_hash(const Transaction& tx, std::size_t input_index,
                               util::ByteSpan script_code, SigHashType type) {
    EBV_EXPECTS(input_index < tx.vin.size());

    util::Writer w(sighash_preimage_size(tx, script_code));
    w.u32(tx.version);
    w.compact_size(tx.vin.size());
    for (std::size_t i = 0; i < tx.vin.size(); ++i) {
        tx.vin[i].prevout.serialize(w);
        if (i == input_index) {
            w.var_bytes(script_code);
        } else {
            w.compact_size(0);  // blanked script
        }
        w.u32(tx.vin[i].sequence);
    }
    w.compact_size(tx.vout.size());
    for (const TxOut& out : tx.vout) {
        w.i64(out.value);
        w.var_bytes(out.lock_script);
    }
    w.u32(tx.locktime);
    w.u32(type);

    return crypto::hash256(w.data());
}

util::Bytes sign_input(const Transaction& tx, std::size_t input_index,
                       util::ByteSpan script_code, const crypto::PrivateKey& key,
                       SigHashType type) {
    const crypto::Hash256 digest = signature_hash(tx, input_index, script_code, type);
    util::Bytes sig = key.sign(digest).to_der();
    sig.push_back(static_cast<std::uint8_t>(type));
    return sig;
}

std::optional<crypto::VerifyJob> signature_job(const SighashCache& cache,
                                               std::size_t input_index,
                                               util::ByteSpan signature, util::ByteSpan pubkey,
                                               util::ByteSpan script_code, bool defer_key) {
    if (signature.empty()) return std::nullopt;
    const std::uint8_t hash_type = signature.back();
    if (hash_type != kSigHashAll) return std::nullopt;

    const auto sig = crypto::parse_signature_der_memo(signature.first(signature.size() - 1));
    if (!sig) return std::nullopt;
    const auto key = crypto::parse_public_key_memo(pubkey, defer_key);
    if (!key) return std::nullopt;
    return crypto::VerifyJob{*key, *sig, cache.digest(input_index, script_code, hash_type)};
}

std::size_t standard_candidates(const InputScripts& in,
                                std::span<SigCandidate, kMaxSigCandidates> out) {
    const util::ByteSpan lock = in.lock;
    const util::ByteSpan unlock = in.unlock;
    if (lock.size() < 3) return 0;
    std::size_t pos = 0;

    if (lock.back() == script::OP_CHECKSIG) {
        // P2PKH takes its key from the unlock, P2PK from the lock.
        const bool p2pkh = lock.size() == 25 && lock[0] == script::OP_DUP &&
                           lock[1] == script::OP_HASH160 && lock[2] == 20 &&
                           lock[23] == script::OP_EQUALVERIFY;
        std::size_t key_pos = 0;
        const auto sig = direct_push(unlock, pos);
        const auto pubkey = p2pkh ? direct_push(unlock, pos) : direct_push(lock, key_pos);
        if (!sig || !pubkey || pos != unlock.size() || (!p2pkh && key_pos + 1 != lock.size()))
            return 0;
        out[0] = {*sig, *pubkey};
        return 1;
    }

    if (lock.back() != script::OP_CHECKMULTISIG || unlock.empty() || unlock[0] != script::OP_0)
        return 0;
    const auto small_int = [](std::uint8_t op) -> std::size_t {
        return op >= script::OP_1 && op <= script::OP_16 ? op - script::OP_1 + 1 : 0;
    };
    const std::size_t m = small_int(lock[0]);
    const std::size_t n = small_int(lock[lock.size() - 2]);
    if (m == 0 || n < m || m * (n - m + 1) > 2 * n) return 0;
    std::array<util::ByteSpan, 16> keys;
    pos = 1;
    for (std::size_t j = 0; j < n; ++j) {
        const auto key = direct_push(lock, pos);
        if (!key) return 0;
        keys[j] = *key;
    }
    if (pos + 2 != lock.size()) return 0;
    pos = 1;
    std::size_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const auto sig = direct_push(unlock, pos);
        if (!sig) return 0;
        for (std::size_t j = i; j <= n - m + i; ++j) out[count++] = {*sig, keys[j]};
    }
    return pos == unlock.size() ? count : 0;
}

std::uint32_t claim_rank(const InputScripts& in, std::uint32_t block) {
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    std::uint32_t rank = 17;  // P2PKH, P2PK
    if (standard_candidates(in, pairs) == 0) {
        rank = 0;
    } else if (in.lock.back() == script::OP_CHECKMULTISIG) {
        rank -= in.lock[in.lock.size() - 2] - script::OP_1 + 1;  // n
    }
    return block << 5 | rank;
}

std::vector<std::uint32_t> claim_order(std::span<const std::uint32_t> ranks) {
    std::vector<std::uint32_t> order(ranks.size());
    std::iota(order.begin(), order.end(), 0u);
    if (!std::is_sorted(ranks.begin(), ranks.end()))
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t x, std::uint32_t y) { return ranks[x] < ranks[y]; });
    return order;
}

void LaneBatcher::add(const crypto::VerifyJob& job, SigVerdict* verdict, util::ByteSpan pubkey) {
    jobs_[size_] = job;
    pubkeys_[size_] = pubkey;
    verdicts_[size_++] = verdict;
    if (size_ == crypto::kVerifyLanes) flush();
}

void LaneBatcher::flush() {
    // The pending keys, decompressed together. One with no point stays
    // invalid: verify_lanes says false, and the pair is refused.
    std::array<util::ByteSpan, crypto::kVerifyLanes> pending;
    std::array<crypto::PublicKey, crypto::kVerifyLanes> keys;
    std::size_t count = 0;
    for (std::size_t k = 0; k < size_; ++k)
        if (!jobs_[k].key.valid()) pending[count++] = pubkeys_[k];
    (void)crypto::parse_public_keys_memo({pending.data(), count}, {keys.data(), count});
    for (std::size_t k = 0, i = 0; k < size_; ++k)
        if (!jobs_[k].key.valid()) jobs_[k].key = keys[i++];
    const std::uint8_t valid = crypto::verify_lanes({jobs_.data(), size_});
    for (std::size_t k = 0; k < size_; ++k) {
        *verdicts_[k] = !jobs_[k].key.valid()    ? SigVerdict::kRefused
                        : (valid >> k & 1) != 0 ? SigVerdict::kTrue
                                                : SigVerdict::kFalse;
    }
    size_ = 0;
}

void SigMemo::prefetch(const InputScripts& in, std::size_t input_index,
                       const SighashCache& cache, SigCache* sigcache, LaneBatcher& batcher) {
    std::array<SigCandidate, kMaxSigCandidates> pairs;
    const std::size_t count = standard_candidates(in, pairs);
    if (count == 0) return;
    cache_ = &cache;
    sigcache_ = sigcache;
    input_index_ = input_index;
    script_code_ = in.lock;
    entries_.resize(count);
    for (std::size_t k = 0; k < count; ++k) entries_[k].pair = pairs[k];
    // Sig-major order: the pairs share one signature only for 1-of-n,
    // whose script stops at the first true pair.
    const bool one_sig = pairs[0].sig.data() == pairs[count - 1].sig.data();
    queue(0, one_sig ? 1 : count, batcher);
}

void SigMemo::queue(std::size_t from, std::size_t to, LaneBatcher& batcher) {
    for (std::size_t k = from; k < to; ++k) {
        Entry& e = entries_[k];
        const auto job =
            signature_job(*cache_, input_index_, e.pair.sig, e.pair.pubkey, script_code_, true);
        if (!job) {
            e.verdict = SigVerdict::kRefused;
            continue;
        }
        e.job = *job;
        if (sigcache_ != nullptr && sigcache_->contains(e.job, e.pair.pubkey)) {
            e.verdict = SigVerdict::kCached;
            continue;
        }
        e.verdict = SigVerdict::kQueued;
        batcher.add(e.job, &e.verdict, e.pair.pubkey);
    }
}

bool SigMemo::advance(LaneBatcher& batcher) {
    for (const Entry& e : entries_)
        if (e.verdict == SigVerdict::kQueued) return false;
    if (entries_.size() < 2 || entries_[1].verdict != SigVerdict::kLater) return true;
    const SigVerdict head = entries_[0].verdict;
    if (head == SigVerdict::kTrue || head == SigVerdict::kCached) return true;
    queue(1, entries_.size(), batcher);
    return advance(batcher);
}

std::optional<bool> SigMemo::take(util::ByteSpan sig, util::ByteSpan pubkey,
                                  util::ByteSpan script_code) {
    if (entries_.empty() || !same_bytes(script_code, script_code_)) return std::nullopt;
    for (Entry& e : entries_) {
        if (e.verdict == SigVerdict::kLater || !same_bytes(e.pair.sig, sig) ||
            !same_bytes(e.pair.pubkey, pubkey))
            continue;
        EBV_ASSERT(e.verdict != SigVerdict::kQueued);
        if (e.verdict == SigVerdict::kTrue && !e.read && sigcache_ != nullptr)
            sigcache_->insert(e.job, e.pair.pubkey);
        e.read = true;
        return e.verdict == SigVerdict::kTrue || e.verdict == SigVerdict::kCached;
    }
    return std::nullopt;
}

void SigMemo::retire() const {
    static obs::Counter& lane_unused = obs::Registry::global().counter("ebv.crypto.lane_unused");
    std::uint64_t unused = 0;
    for (const Entry& e : entries_)
        unused += !e.read && (e.verdict == SigVerdict::kTrue || e.verdict == SigVerdict::kFalse);
    if (unused > 0) lane_unused.inc(unused);
}

PrefetchQueue::PrefetchQueue(Run run) : run_(run), lanes_(crypto::lanes_enabled()) {}

void PrefetchQueue::hold(std::size_t owner, std::span<const InputScripts> inputs,
                         std::size_t first, const SighashCache& cache, SigCache* sigcache) {
    if (!lanes_) return run_(owner, {});
    Held& item = held_.emplace_back(Held{owner, std::vector<SigMemo>(inputs.size())});
    for (std::size_t k = 0; k < inputs.size(); ++k)
        item.memos[k].prefetch(inputs[k], first + k, cache, sigcache, batcher_);
    run_ready();
}

void PrefetchQueue::drain() {
    // Two rounds: the queued verdicts, then the 1-of-n tails they call for.
    for (int round = 0; round < 2 && !held_.empty(); ++round) {
        batcher_.flush();
        run_ready();
    }
    EBV_ENSURES(held_.empty());
}

void PrefetchQueue::run_ready() {
    for (std::size_t h = 0; h < held_.size();) {
        bool ready = true;
        for (SigMemo& memo : held_[h].memos) ready = memo.advance(batcher_) && ready;
        if (!ready) {
            ++h;
            continue;
        }
        run_(held_[h].owner, held_[h].memos);
        for (const SigMemo& memo : held_[h].memos) memo.retire();
        if (h + 1 != held_.size()) held_[h] = std::move(held_.back());
        held_.pop_back();
    }
}

std::vector<util::Nanoseconds> claim_all(util::ThreadPool* pool,
                                         std::span<const std::uint32_t> order, Claim claim,
                                         PrefetchQueue::Run run) {
    const std::size_t count = order.size();
    std::vector<util::Nanoseconds> busy(pool != nullptr ? pool->thread_count() : 1, 0);
    std::atomic<std::size_t> next{0};
    const auto claimer = [&](std::size_t slot, std::size_t) {
        util::Stopwatch watch;
        PrefetchQueue queue(run);
        for (;;) {
            const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= count) break;
            claim(slot, order[k], queue);
        }
        queue.drain();
        busy[slot] += watch.elapsed_ns();
    };
    const std::size_t claimers = std::min(busy.size(), count);
    if (claimers > 1) {
        pool->parallel_for_slots(claimers, claimer);
    } else if (claimers == 1) {
        claimer(0, 0);
    }
    return busy;
}

bool SigChecker::check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                 util::ByteSpan script_code) const {
    if (memo_ != nullptr) {
        if (const auto verdict = memo_->take(signature, pubkey, script_code)) return *verdict;
    }
    const auto job = signature_job(cache_, input_index_, signature, pubkey, script_code);
    if (!job) return false;
    // Cache hit = this exact (sighash, pubkey, sig) triple already verified
    // TRUE (only successes are ever inserted), so the curve check is
    // redundant. Misses verify inline and, on success, warm the cache.
    if (sigcache_ != nullptr && sigcache_->contains(*job, pubkey)) return true;
    const bool ok = job->key.verify(job->digest, job->sig);
    if (ok && sigcache_ != nullptr) sigcache_->insert(*job, pubkey);
    return ok;
}

script::ScriptError verify_input(const InputScripts& scripts, std::size_t input_index,
                                 const SighashCache& cache, SigCache* sigcache, SigMemo* memo) {
    const SigChecker checker(cache, input_index, sigcache, memo);
    return script::verify_script(scripts.unlock, scripts.lock, checker);
}

}  // namespace ebv::chain
