// The repository benchmark: three workloads that drive the public APIs of
// core, ibd and util the way an EBV node does (perfbench/README.md).
//
//   ibd          EbvNode::submit_blocks over a signed mainnet-era chain:
//                pipelined, one caller, one batch (the Fig 17 path)
//   tip_connect  EbvNode::submit_block one block at a time on a skewed,
//                late-era chain, persisting blocks (the Fig 16 path)
//   mempool      rounds of TxPool::submit_batch -> build_template ->
//                submit_block -> evict_confirmed_spends, with one SigCache
//                shared by admission and block validation (the fig20 path)
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   ebv_perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Every run checks the node's final state against state derived from the
// generated inputs alone and ends by submitting one hostile input that must
// be refused. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "core/chain_archive.hpp"
#include "core/node.hpp"
#include "core/sig_cache.hpp"
#include "core/sighash_cache.hpp"
#include "core/tx_pool.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "intermediary/converter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "script/script.hpp"
#include "script/standard.hpp"
#include "util/affinity.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "workload/adversary.hpp"
#include "workload/era.hpp"
#include "workload/generator.hpp"
#include "yardstick.hpp"

using namespace ebv;

namespace {

// ---- Workload sizes --------------------------------------------------------
// Fixed here rather than on the command line, so every run of a workload
// measures the same amount of work; only --seed changes the inputs.

// The traffic intensities are those of the figures the workloads reproduce
// (fig17_ibd_compare: 0.2, fig16_validation_compare: 0.25); the block
// counts are cut to fit a run.
constexpr std::uint32_t kIbdBlocks = 1000;
constexpr double kIbdIntensity = 0.2;

constexpr std::uint32_t kTipPrefixBlocks = 20;
constexpr std::uint32_t kTipTimedBlocks = 200;
/// Untraced passes a tip_connect run makes at least. Two samples of each
/// pass lie beyond that pass's p99, so 10 lie beyond connect_ms_p99.
constexpr int kTipTailPasses = 5;
constexpr double kTipIntensity = 0.25;
constexpr double kTipSkew = 1.0;
/// The steady late-era profile the tip_connect chain is drawn from.
constexpr std::uint32_t kTipEraHeight = 650'000;

/// Transactions per round: one submit_batch burst, one template.
constexpr std::size_t kMempoolBurst = 256;
constexpr std::size_t kMempoolRounds = 24;
constexpr std::size_t kFundingOutputs = 128;

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;
/// Passes per run at least (per kind, traced and untraced, with --trace 1).
constexpr int kMinPasses = 2;
/// The machine-speed yardstick's time after a pass, as a share of the
/// pass's wall time, and its verifies per thread at least.
constexpr double kYardstickShare = 0.1;
constexpr std::size_t kYardstickMinVerifies = 100;

// ---- Clocks and statistics -------------------------------------------------

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// User + system CPU time of the whole process (every pool worker).
std::int64_t cpu_ns() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto ns = [](const timeval& t) {
        return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(t.tv_usec) * 1000;
    };
    return ns(u.ru_utime) + ns(u.ru_stime);
}

/// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- Memory ----------------------------------------------------------------

/// A field of /proc/self/status in MiB (VmRSS, VmHWM); 0 when unreadable.
double proc_status_mib(std::string_view field) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        const std::string_view l(line);
        if (l.starts_with(field) && l.size() > field.size() && l[field.size()] == ':') {
            kib = std::strtod(line + field.size() + 1, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

/// Return freed heap to the system and restart the peak-RSS high-water mark
/// at the current resident set, so VmHWM covers only what follows.
bool reset_peak_rss() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

// ---- Program counters around a timed section -------------------------------

/// Cumulative counters read at the edges of a timed section; the
/// difference of two reads is the section's work.
struct Counters {
    std::int64_t wall = 0;
    std::int64_t cpu = 0;
    std::uint64_t sha256_finalizes = 0;
    std::uint64_t sha256d64_msgs = 0;
    std::uint64_t sigcache_hits = 0;
    std::uint64_t sigcache_misses = 0;
    std::uint64_t ibd_windows = 0;
    std::uint64_t ibd_stall_ns = 0;
    std::uint64_t ibd_commit_ns = 0;
    std::uint64_t spans_recorded = 0;
    util::PoolStats pool;
    std::uint64_t busy_ns = 0;

    static Counters read(const util::ThreadPool& pool) {
        obs::Registry& r = obs::Registry::global();
        Counters c;
        c.sha256_finalizes = r.counter("ebv.crypto.sha256_finalizes").value();
        c.sha256d64_msgs = r.counter("ebv.crypto.sha256d64_msgs").value();
        c.sigcache_hits = r.counter("ebv.sigcache.hits").value();
        c.sigcache_misses = r.counter("ebv.sigcache.misses").value();
        c.ibd_windows = r.counter("ebv.ibd.windows").value();
        c.ibd_stall_ns = r.histogram("ebv.ibd.stall_ns").sum();
        c.ibd_commit_ns = r.histogram("ebv.ibd.commit_ns").sum();
        c.spans_recorded = r.counter("ebv.obs.spans_recorded").value();
        c.pool = pool.stats();
        for (const std::uint64_t ns : pool.slot_busy_ns()) c.busy_ns += ns;
        c.cpu = cpu_ns();
        c.wall = wall_ns();  // last, so the section's wall time excludes the reads
        return c;
    }

    Counters operator-(const Counters& o) const {
        Counters d;
        d.wall = wall - o.wall;
        d.cpu = cpu - o.cpu;
        d.sha256_finalizes = sha256_finalizes - o.sha256_finalizes;
        d.sha256d64_msgs = sha256d64_msgs - o.sha256d64_msgs;
        d.sigcache_hits = sigcache_hits - o.sigcache_hits;
        d.sigcache_misses = sigcache_misses - o.sigcache_misses;
        d.ibd_windows = ibd_windows - o.ibd_windows;
        d.ibd_stall_ns = ibd_stall_ns - o.ibd_stall_ns;
        d.ibd_commit_ns = ibd_commit_ns - o.ibd_commit_ns;
        d.spans_recorded = spans_recorded - o.spans_recorded;
        d.pool.parallel_fors = pool.parallel_fors - o.pool.parallel_fors;
        d.pool.barrier_wait_ns = pool.barrier_wait_ns - o.pool.barrier_wait_ns;
        d.pool.wakeup_ns = pool.wakeup_ns - o.pool.wakeup_ns;
        d.pool.wakeups = pool.wakeups - o.pool.wakeups;
        d.pool.steals = pool.steals - o.pool.steals;
        d.pool.steal_attempts = pool.steal_attempts - o.pool.steal_attempts;
        d.busy_ns = busy_ns - o.busy_ns;
        return d;
    }
};

/// One timed pass over a workload's prepared inputs.
struct Pass {
    bool traced = false;
    bool correct = true;
    Counters delta;  ///< over the timed section
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Signature checks made by the calls sig_checks_per_s times, and
    /// their wall time.
    std::uint64_t checks = 0;
    std::int64_t validate_ns = 0;
    std::vector<double> connect_ms;  ///< per-block connect wall times
    core::EbvTimings timings;
    std::uint64_t status_bytes = 0;
    // Exact work of the timed section, derived from the inputs:
    std::uint64_t signature_checks = 0;  ///< check_signature calls, one sighash each
    std::uint64_t input_checks = 0;      ///< per-input EV + UV checks
    /// The pass's interval on the tracer clock: its spans start inside it.
    util::Nanoseconds trace_from_ns = 0;
    util::Nanoseconds trace_to_ns = 0;
};

struct SetupTimes {
    std::int64_t total_ns = 0;  ///< generation + conversion + node build + prefix
    std::int64_t generate_ns = 0;
    std::int64_t convert_ns = 0;
};

/// The workload's own data, for the unit-cost probes.
struct ProbeData {
    std::vector<crypto::VerifyJob> jobs;     ///< P2PKH spends: key, signature, digest
    std::vector<util::Bytes> der;            ///< the same signatures, DER-encoded
    std::vector<util::Bytes> pubkeys;        ///< the same keys, serialized
    std::vector<crypto::Hash256> leaves;     ///< ELs leaf hashes of sampled inputs
    std::vector<crypto::MerkleBranch> branches;  ///< their MBrs
    std::vector<const core::EbvTransaction*> txs;  ///< sighash probe transactions
    std::vector<core::BitVectorSet::SpentRecord> positions;  ///< UV probe positions
    std::size_t distinct_keys = 0;           ///< signing keys the workload uses
};

/// Add P2PKH signatures, Merkle branches, transactions and positions from
/// `txs`, sampled evenly and capped at a few hundred of each.
void collect_probe_data(std::span<const core::EbvTransaction* const> txs, ProbeData& d) {
    constexpr std::size_t kLimit = 128;
    const std::size_t step = std::max<std::size_t>(1, txs.size() / kLimit);
    for (std::size_t t = 0; t < txs.size(); t += step) {
        const core::EbvTransaction& tx = *txs[t];
        if (d.txs.size() < kLimit) d.txs.push_back(&tx);
        for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
            const core::EbvInput& in = tx.inputs[i];
            d.positions.push_back({in.height, in.absolute_position()});
            if (d.leaves.size() < 4 * kLimit) {
                d.leaves.push_back(in.els.leaf_hash());
                d.branches.push_back(in.mbr);
            }
            const script::Script& lock = in.els.outputs[in.out_index].lock_script;
            if (d.jobs.size() >= kLimit || script::classify(lock) != script::ScriptType::kP2Pkh)
                continue;
            script::ScriptParser parser(in.unlock_script);
            const auto sig = parser.next();
            const auto pub = parser.next();
            if (!sig || !pub || sig->push_data.empty()) continue;
            util::Bytes der(sig->push_data.begin(), sig->push_data.end() - 1);
            const auto parsed = crypto::Signature::from_der(der);
            const auto key = crypto::PublicKey::parse(pub->push_data);
            if (!parsed || !key) continue;
            d.jobs.push_back({*key, *parsed, core::ebv_signature_hash(tx, i, lock, 0x01)});
            d.der.push_back(std::move(der));
            d.pubkeys.push_back(pub->push_data);
        }
    }
}

// ---- Workloads -------------------------------------------------------------

/// A node and what it owns for one pass; destroying it deletes the node's
/// block directory.
struct Replica {
    std::unique_ptr<core::SigCache> sigcache;
    std::unique_ptr<core::EbvNode> node;
    std::filesystem::path dir;

    Replica() = default;
    ~Replica() {
        node.reset();  // closes the block store before its directory goes
        std::error_code ec;
        if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    }
    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;
};

class Workload {
public:
    Workload(std::uint64_t seed, util::ThreadPool& pool, std::filesystem::path work_dir)
        : seed_(seed), pool_(pool), work_dir_(std::move(work_dir)) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Generate the inputs and leave a node ready for the first pass,
    /// timing that as `times.total_ns` (setup_s); run() repeats it.
    virtual void setup(SetupTimes& times) = 0;
    /// Digest of the generated inputs: equal across set-ups of one seed.
    [[nodiscard]] virtual crypto::Hash256 fingerprint() const = 0;
    /// One timed pass, on a fresh node in the post-setup state. Spans
    /// around the calls into a layer go to `tracer` while it is enabled.
    virtual Pass pass(obs::Tracer& tracer) = 0;
    /// Submit one hostile input to the last pass's node; true when refused
    /// with the expected error.
    virtual bool guard() = 0;
    [[nodiscard]] virtual ProbeData probe_data() const = 0;
    /// Untraced passes an untraced run makes at least.
    [[nodiscard]] virtual int min_passes() const { return kMinPasses; }
    /// The last pass's node.
    [[nodiscard]] const core::EbvNode& node() const { return *last_->node; }

protected:
    /// A node in the post-setup state.
    [[nodiscard]] virtual std::unique_ptr<Replica> build_replica() = 0;

    /// The node for the next pass: the one setup() built, else a new one.
    /// The last pass's node is freed first, so one node is alive at a time.
    std::unique_ptr<Replica> next_replica() {
        last_.reset();
        return ready_ ? std::move(ready_) : build_replica();
    }

    core::EbvNodeOptions node_options(const chain::ChainParams& params) const {
        core::EbvNodeOptions options;
        options.params = params;
        options.validator.script_pool = &pool_;
        options.pipeline.enabled = true;  // at its default window
        return options;
    }

    std::filesystem::path fresh_dir(const char* tag) {
        std::filesystem::path dir = work_dir_ / (std::string(tag) + "_" +
                                                 std::to_string(::getpid()) + "_" +
                                                 std::to_string(next_dir_++));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    }

    std::uint64_t seed_;
    util::ThreadPool& pool_;
    std::filesystem::path work_dir_;
    std::unique_ptr<Replica> ready_;  ///< node built by setup() for the first pass
    std::unique_ptr<Replica> last_;   ///< node of the last pass
    std::size_t next_dir_ = 0;
};

/// The set's serialized (height, vector) records, sorted by height.
/// serialize() walks hash maps, so equal sets built through different
/// insert and erase histories can serialize in different orders.
util::Bytes serialized(const core::BitVectorSet& status) {
    util::Writer w;
    status.serialize(w);
    util::Reader r(w.data());
    const auto count = r.u64();
    if (!count) throw std::runtime_error("status set does not serialize");
    std::map<std::uint32_t, util::Bytes> records;
    for (std::uint64_t i = 0; i < *count; ++i) {
        const std::size_t start = r.position();
        const auto height = r.u32();
        if (!height || !core::BitVector::deserialize(r))
            throw std::runtime_error("status set does not round-trip");
        records.emplace(*height, util::Bytes(w.data().begin() + static_cast<std::ptrdiff_t>(start),
                                             w.data().begin() + static_cast<std::ptrdiff_t>(r.position())));
    }
    util::Bytes out;
    for (const auto& [height, bytes] : records) out.insert(out.end(), bytes.begin(), bytes.end());
    return out;
}

/// The unspent set after connecting `blocks`, derived from the Bitcoin-format
/// chain alone: outpoints resolve to (height, block-wide position) by walking
/// outputs in chain order, with no proof or signature checks.
core::BitVectorSet expected_status(std::span<const chain::Block> blocks) {
    std::unordered_map<chain::OutPoint, core::BitVectorSet::SpentRecord, chain::OutPointHasher>
        live;
    core::BitVectorSet status;
    for (std::uint32_t h = 0; h < blocks.size(); ++h) {
        std::uint32_t outputs = 0;
        for (const chain::Transaction& tx : blocks[h].txs) {
            outputs += static_cast<std::uint32_t>(tx.vout.size());
            if (tx.is_coinbase()) continue;
            for (const chain::TxIn& in : tx.vin) {
                const auto it = live.find(in.prevout);
                if (it == live.end() || !status.spend(it->second.height, it->second.position))
                    throw std::runtime_error("generated chain spends an unknown output");
                live.erase(it);
            }
        }
        status.insert_block(h, outputs);
        std::uint32_t position = 0;
        for (const chain::Transaction& tx : blocks[h].txs) {
            const crypto::Hash256 txid = tx.txid();
            for (std::uint32_t o = 0; o < tx.vout.size(); ++o)
                live.emplace(chain::OutPoint{txid, o},
                             core::BitVectorSet::SpentRecord{h, position++});
        }
    }
    return status;
}

/// Signature checks one input costs SV, derived with no curve work: P2PKH
/// and P2PK check once; a 1-of-M multisig checks keys in order until the
/// signer's, so it costs the signer's 1-based position. The generator draws
/// its key pool first from Rng(seed); `key_index` maps those keys back to
/// their pool index, which tells the two 1-of-2 layouts apart (signer first
/// in the era mix, signer last in the skewed tail).
class SignatureChecks {
public:
    explicit SignatureChecks(const workload::GeneratorOptions& options)
        : pool_size_(options.key_pool_size) {
        util::Rng rng(options.seed);
        for (std::size_t i = 0; i < pool_size_; ++i) {
            const util::Bytes key = crypto::PrivateKey::generate(rng).public_key().serialize();
            index_.emplace(std::string(key.begin(), key.end()), i);
        }
    }

    [[nodiscard]] std::uint64_t of(const core::EbvInput& in) const {
        const script::Script& lock = in.els.outputs[in.out_index].lock_script;
        switch (script::classify(lock)) {
            case script::ScriptType::kP2Pkh:
            case script::ScriptType::kP2Pk:
                return 1;
            case script::ScriptType::kMultisig:
                break;
            default:
                throw std::runtime_error("unexpected locking script in the generated chain");
        }
        std::vector<std::size_t> keys;
        script::ScriptParser parser(lock);
        while (const auto op = parser.next()) {
            if (op->is_push() && op->push_data.size() == 33) keys.push_back(key(op->push_data));
        }
        if (keys.size() != 2) return keys.size();  // the skewed tail: signer last
        if (keys[1] == (keys[0] + 1) % pool_size_) return 1;
        if (keys[0] == (keys[1] + 1) % pool_size_) return 2;
        throw std::runtime_error("1-of-2 multisig with an unknown key layout");
    }

private:
    [[nodiscard]] std::size_t key(const util::Bytes& pubkey) const {
        const auto it = index_.find(std::string(pubkey.begin(), pubkey.end()));
        if (it == index_.end()) throw std::runtime_error("multisig key outside the key pool");
        return it->second;
    }

    std::size_t pool_size_;
    std::map<std::string, std::size_t> index_;
};

/// The block's first spend with its unlocking script tampered
/// (Mutation::kUnlockScript); SV must refuse it.
core::EbvBlock hostile_block(const core::EbvBlock& honest, std::uint64_t seed) {
    std::vector<core::EbvBlock> one{honest};
    workload::Adversary adversary(seed);
    if (!adversary.apply(workload::Mutation::kUnlockScript, one, 0))
        throw std::runtime_error("guard block has no spend to tamper");
    return std::move(one[0]);
}

/// Shared by ibd and tip_connect: a generated, signed, converted chain whose
/// last block is kept back for the hostile-input guard.
class ChainWorkload : public Workload {
public:
    using Workload::Workload;

    void setup(SetupTimes& times) override {
        ready_.reset();
        blocks_.clear();
        const workload::GeneratorOptions options = generator_options();
        const std::uint32_t count = chain_length() + 1;

        const std::int64_t start = wall_ns();
        std::int64_t t0 = start;
        std::vector<chain::Block> generated;
        generated.reserve(count);
        workload::ChainGenerator generator(options);
        for (std::uint32_t i = 0; i < count; ++i) generated.push_back(generator.next_block());
        times.generate_ns = wall_ns() - t0;

        t0 = wall_ns();
        intermediary::Converter converter;
        blocks_.reserve(count);
        for (const chain::Block& block : generated) {
            auto converted = converter.convert_block(block);
            if (!converted)
                throw std::runtime_error(std::string("conversion failed: ") +
                                         intermediary::to_string(converted.error()));
            blocks_.push_back(std::move(*converted));
        }
        times.convert_ns = wall_ns() - t0;

        ready_ = build_replica();
        times.total_ns = wall_ns() - start;

        // Not part of the set-up a node pays: the reference state and the
        // exact work counts.
        expected_ = serialized(
            expected_status(std::span(generated).first(chain_length())));
        const SignatureChecks checks(options);
        timed_inputs_ = timed_checks_ = 0;
        std::size_t timed_txs = 0;
        for (std::uint32_t b = timed_from(); b < chain_length(); ++b) {
            timed_txs += blocks_[b].txs.size() - 1;
            for (std::size_t t = 1; t < blocks_[b].txs.size(); ++t) {
                for (const core::EbvInput& in : blocks_[b].txs[t].inputs) {
                    ++timed_inputs_;
                    timed_checks_ += checks.of(in);
                }
            }
        }
        const double timed_blocks = chain_length() - timed_from();
        std::fprintf(stderr,
                     "perfbench: per timed block %.1f transactions, %.1f inputs, "
                     "%.1f signature checks\n",
                     static_cast<double>(timed_txs) / timed_blocks,
                     static_cast<double>(timed_inputs_) / timed_blocks,
                     static_cast<double>(timed_checks_) / timed_blocks);
    }

    [[nodiscard]] crypto::Hash256 fingerprint() const override {
        return blocks_.back().header.hash();
    }

    [[nodiscard]] ProbeData probe_data() const override {
        std::vector<const core::EbvTransaction*> txs;
        for (std::uint32_t b = timed_from(); b < chain_length(); ++b) {
            for (std::size_t t = 1; t < blocks_[b].txs.size(); ++t)
                txs.push_back(&blocks_[b].txs[t]);
        }
        ProbeData d;
        collect_probe_data(txs, d);
        d.distinct_keys = generator_options().key_pool_size;
        return d;
    }

protected:
    [[nodiscard]] virtual workload::GeneratorOptions generator_options() const = 0;
    /// Blocks the node connects (the guard block comes after them).
    [[nodiscard]] virtual std::uint32_t chain_length() const = 0;
    /// First timed block; earlier blocks are the untimed prefix.
    [[nodiscard]] virtual std::uint32_t timed_from() const = 0;

    [[nodiscard]] bool state_matches(const core::EbvNode& node) const {
        return node.headers().size() == chain_length() &&
               node.headers().tip_hash() == blocks_[chain_length() - 1].header.hash() &&
               serialized(node.status()) == expected_;
    }

    std::vector<core::EbvBlock> blocks_;
    util::Bytes expected_;  ///< serialized expected unspent set
    std::uint64_t timed_inputs_ = 0;
    std::uint64_t timed_checks_ = 0;
};

class IbdWorkload final : public ChainWorkload {
public:
    using ChainWorkload::ChainWorkload;

    Pass pass(obs::Tracer& tracer) override {
        std::unique_ptr<Replica> replica = next_replica();
        core::EbvNode& node = *replica->node;
        Pass p;
        p.trace_from_ns = obs::Tracer::now_ns();
        const Counters before = Counters::read(pool_);
        ibd::BatchResult result;
        {
            obs::ScopedSpan span("ibd.EbvNode::submit_blocks", "bench", nullptr, tracer);
            result = node.submit_blocks(std::span(blocks_).first(kIbdBlocks));
        }
        p.delta = Counters::read(pool_) - before;
        p.trace_to_ns = obs::Tracer::now_ns();
        p.attempted = kIbdBlocks;
        p.failed = kIbdBlocks - result.connected;
        p.input_checks = timed_inputs_;
        p.checks = p.signature_checks = timed_checks_;
        p.validate_ns = p.delta.wall;
        p.connect_ms.push_back(static_cast<double>(p.delta.wall) / 1e6 / kIbdBlocks);
        p.timings = result.timings;
        p.status_bytes = node.status_memory_bytes();
        p.correct = result.ok() && state_matches(node);
        last_ = std::move(replica);
        return p;
    }

    bool guard() override {
        const core::EbvBlock bad = hostile_block(blocks_.back(), seed_);
        const ibd::BatchResult r = last_->node->submit_blocks(std::span(&bad, 1));
        return r.failure && r.failure->failure.error == core::EbvError::kScriptFailure;
    }

private:
    [[nodiscard]] workload::GeneratorOptions generator_options() const override {
        workload::GeneratorOptions g;
        g.seed = seed_;
        g.signed_mode = true;
        g.height_scale = 650'000.0 / kIbdBlocks;  // the whole mainnet era profile
        g.intensity = kIbdIntensity;
        g.skew = 0.0;
        return g;
    }
    [[nodiscard]] std::uint32_t chain_length() const override { return kIbdBlocks; }
    [[nodiscard]] std::uint32_t timed_from() const override { return 0; }

    std::unique_ptr<Replica> build_replica() override {
        auto r = std::make_unique<Replica>();
        r->node = std::make_unique<core::EbvNode>(node_options(generator_options().params));
        return r;
    }
};

class TipConnectWorkload final : public ChainWorkload {
public:
    using ChainWorkload::ChainWorkload;

    Pass pass(obs::Tracer& tracer) override {
        std::unique_ptr<Replica> replica = next_replica();
        core::EbvNode& node = *replica->node;
        Pass p;
        p.trace_from_ns = obs::Tracer::now_ns();
        p.connect_ms.reserve(kTipTimedBlocks);
        const Counters before = Counters::read(pool_);
        for (std::uint32_t b = kTipPrefixBlocks; b < chain_length(); ++b) {
            obs::ScopedSpan span("core.EbvNode::submit_block", "bench", nullptr, tracer);
            const std::int64_t t0 = wall_ns();
            const auto result = node.submit_block(blocks_[b]);
            p.connect_ms.push_back(static_cast<double>(wall_ns() - t0) / 1e6);
            ++p.attempted;
            if (!result) {
                ++p.failed;
                break;
            }
            p.timings += *result;
        }
        p.delta = Counters::read(pool_) - before;
        p.trace_to_ns = obs::Tracer::now_ns();
        p.input_checks = timed_inputs_;
        p.checks = p.signature_checks = timed_checks_;
        p.validate_ns = p.delta.wall;
        p.status_bytes = node.status_memory_bytes();
        p.correct = p.failed == 0 && state_matches(node);
        last_ = std::move(replica);
        return p;
    }

    bool guard() override {
        const core::EbvBlock bad = hostile_block(blocks_.back(), seed_);
        const auto r = last_->node->submit_block(bad);
        return !r && r.error().error == core::EbvError::kScriptFailure;
    }

    [[nodiscard]] int min_passes() const override { return kTipTailPasses; }

private:
    [[nodiscard]] workload::GeneratorOptions generator_options() const override {
        workload::GeneratorOptions g;
        g.seed = seed_;
        g.signed_mode = true;
        g.schedule = workload::EraSchedule(
            {workload::EraSchedule::bitcoin_mainnet().at(kTipEraHeight)});
        g.intensity = kTipIntensity;
        g.skew = kTipSkew;
        return g;
    }
    [[nodiscard]] std::uint32_t chain_length() const override {
        return kTipPrefixBlocks + kTipTimedBlocks;
    }
    [[nodiscard]] std::uint32_t timed_from() const override { return kTipPrefixBlocks; }

    /// A node persisting blocks to its own directory, with the prefix replayed.
    std::unique_ptr<Replica> build_replica() override {
        auto r = std::make_unique<Replica>();
        r->dir = fresh_dir("tip_connect");
        core::EbvNodeOptions options = node_options(generator_options().params);
        options.data_dir = r->dir.string();
        r->node = std::make_unique<core::EbvNode>(options);
        const ibd::BatchResult prefix =
            r->node->submit_blocks(std::span(blocks_).first(kTipPrefixBlocks));
        if (!prefix.ok()) throw std::runtime_error("tip_connect prefix replay rejected");
        return r;
    }
};

class MempoolWorkload final : public Workload {
public:
    MempoolWorkload(std::uint64_t seed, util::ThreadPool& pool, std::filesystem::path dir)
        : Workload(seed, pool, std::move(dir)) {
        params_.coinbase_maturity = 1;
    }

    void setup(SetupTimes& times) override {
        ready_.reset();
        funding_.clear();
        txs_.clear();
        const std::int64_t t0 = wall_ns();
        util::Rng rng(seed_);
        key_ = crypto::PrivateKey::generate(rng);
        lock_ = script::make_p2pkh(key_.public_key().id());

        // Self-mined funding chain: each coinbase splits the subsidy into
        // kFundingOutputs outputs paying one key; one more output than the
        // rounds spend is kept for the guard.
        const std::size_t spends = kMempoolRounds * kMempoolBurst + 1;
        const std::size_t funding_blocks = (spends + kFundingOutputs - 1) / kFundingOutputs + 1;
        core::ChainArchive archive;
        for (std::uint32_t h = 0; h < funding_blocks; ++h) {
            core::EbvBlock block;
            core::EbvTransaction coinbase;
            coinbase.coinbase_data = {static_cast<std::uint8_t>(h),
                                      static_cast<std::uint8_t>(h >> 8), 0x20};
            for (std::size_t k = 0; k < kFundingOutputs; ++k)
                coinbase.outputs.push_back(chain::TxOut{output_value(h, k), lock_});
            block.txs.push_back(std::move(coinbase));
            block.header.prev_hash =
                funding_.empty() ? crypto::Hash256{} : funding_.back().header.hash();
            block.assign_stake_positions();
            archive.add_block(block);
            funding_.push_back(std::move(block));
        }

        // Single-input P2PKH spends, shuffled so bursts mix feerates and
        // funding heights; each gets a distinct legacy outpoint so no two
        // share a sighash (and thus a signature).
        std::vector<std::pair<std::uint32_t, std::uint16_t>> outputs;
        for (std::uint32_t h = 0; h + params_.coinbase_maturity < funding_blocks; ++h) {
            for (std::size_t k = 0; k < kFundingOutputs; ++k)
                outputs.emplace_back(h, static_cast<std::uint16_t>(k));
        }
        for (std::size_t i = outputs.size(); i > 1; --i)
            std::swap(outputs[i - 1], outputs[rng.below(i)]);
        outputs.resize(spends);
        std::vector<chain::Amount> fees(spends);
        for (chain::Amount& fee : fees)
            fee = 1'000'000 + static_cast<chain::Amount>(rng.below(64)) * 250'000;
        txs_.resize(spends);
        spent_.clear();
        for (std::size_t i = 0; i < spends; ++i) {
            const auto [h, k] = outputs[i];
            core::EbvTransaction& tx = txs_[i];
            tx.inputs.push_back(archive.make_input(h, 0, k));
            tx.inputs[0].prevout.index = h * static_cast<std::uint32_t>(kFundingOutputs) + k;
            tx.outputs.push_back(chain::TxOut{output_value(h, k) - fees[i], lock_});
            spent_.push_back({h, k});
        }
        pool_.parallel_for(spends, [&](std::size_t i) { sign(txs_[i], i + 1 == spends); });
        times.generate_ns = wall_ns() - t0;
        times.convert_ns = 0;  // the funding chain is mined as EBV blocks

        ready_ = build_replica();
        times.total_ns = wall_ns() - t0;
    }

    [[nodiscard]] crypto::Hash256 fingerprint() const override {
        return txs_.back().leaf_hash();
    }

    Pass pass(obs::Tracer& tracer) override {
        std::unique_ptr<Replica> replica = next_replica();
        core::EbvNode& node = *replica->node;
        core::TxPoolOptions pool_options;
        pool_options.pool = &pool_;
        pool_options.sigcache = replica->sigcache.get();
        core::TxPool txpool(params_, node.headers(), node.status(), pool_options);

        Pass p;
        p.trace_from_ns = obs::Tracer::now_ns();
        const Counters before = Counters::read(pool_);
        for (std::size_t r = 0; r < kMempoolRounds; ++r) {
            obs::ScopedSpan round("mempool.round", "bench", nullptr, tracer);
            {
                const std::span<const core::EbvTransaction> burst(
                    txs_.data() + r * kMempoolBurst, kMempoolBurst);
                obs::ScopedSpan span("core.TxPool::submit_batch", "bench", nullptr, tracer);
                const std::int64_t t0 = wall_ns();
                const auto verdicts = txpool.submit_batch(burst);
                p.validate_ns += wall_ns() - t0;
                for (const core::TxAdmission v : verdicts) {
                    ++p.attempted;
                    // An admitted spend has one input: one signature check.
                    if (v == core::TxAdmission::kAccepted) ++p.checks;
                    else ++p.failed;
                }
            }
            core::EbvBlock block;
            {
                obs::ScopedSpan span("core.TxPool::build_template", "bench", nullptr, tracer);
                block = txpool.build_template(lock_, kMempoolBurst);
            }
            {
                obs::ScopedSpan span("core.EbvNode::submit_block", "bench", nullptr, tracer);
                const std::int64_t t0 = wall_ns();
                const auto result = node.submit_block(block);
                p.connect_ms.push_back(static_cast<double>(wall_ns() - t0) / 1e6);
                ++p.attempted;
                if (result) p.timings += *result;
                else ++p.failed;
            }
            {
                obs::ScopedSpan span("core.TxPool::evict_confirmed_spends", "bench", nullptr,
                                     tracer);
                txpool.evict_confirmed_spends(block);
            }
            p.correct = p.correct && txpool.size() == 0 && block.txs.size() == kMempoolBurst + 1;
        }
        p.delta = Counters::read(pool_) - before;
        p.trace_to_ns = obs::Tracer::now_ns();
        // Each transaction is validated twice: at admission and in its template.
        p.input_checks = p.signature_checks = 2 * kMempoolRounds * kMempoolBurst;
        p.status_bytes = node.status_memory_bytes();
        p.correct = p.correct && p.failed == 0 && state_matches(node);
        last_ = std::move(replica);
        return p;
    }

    bool guard() override {
        core::TxPool txpool(params_, last_->node->headers(), last_->node->status());
        return txpool.submit(txs_.back()) == core::TxAdmission::kScriptFailed;
    }

    [[nodiscard]] ProbeData probe_data() const override {
        std::vector<const core::EbvTransaction*> txs;
        for (std::size_t i = 0; i + 1 < txs_.size(); ++i) txs.push_back(&txs_[i]);
        ProbeData d;
        collect_probe_data(txs, d);
        d.distinct_keys = 1;
        return d;
    }

private:
    [[nodiscard]] chain::Amount output_value(std::uint32_t h, std::size_t k) const {
        const chain::Amount subsidy = params_.subsidy_at(h);
        const chain::Amount per_out = subsidy / static_cast<chain::Amount>(kFundingOutputs);
        return k == 0 ? per_out + subsidy % static_cast<chain::Amount>(kFundingOutputs)
                      : per_out;
    }

    /// Sign input 0; `tamper` signs a digest one bit off instead, which
    /// still parses but must fail SV (the guard transaction).
    void sign(core::EbvTransaction& tx, bool tamper) const {
        crypto::Hash256 digest = core::ebv_signature_hash(tx, 0, lock_, 0x01);
        if (tamper) digest.bytes()[0] ^= 0x01;
        util::Bytes sig = key_.sign(digest).to_der();
        sig.push_back(0x01);
        tx.inputs[0].unlock_script = script::make_p2pkh_unlock(sig, key_.public_key());
    }

    /// Node with its own SigCache, the funding chain replayed.
    std::unique_ptr<Replica> build_replica() override {
        auto r = std::make_unique<Replica>();
        r->sigcache = std::make_unique<core::SigCache>();
        core::EbvNodeOptions options = node_options(params_);
        options.validator.sigcache = r->sigcache.get();
        r->node = std::make_unique<core::EbvNode>(options);
        if (!r->node->submit_blocks(funding_).ok())
            throw std::runtime_error("mempool funding chain rejected");
        return r;
    }

    /// Funding blocks with the spent outputs cleared, then one fully unspent
    /// template block (coinbase + one output per transaction) per round.
    [[nodiscard]] bool state_matches(const core::EbvNode& node) const {
        core::BitVectorSet expected;
        for (std::uint32_t h = 0; h < funding_.size(); ++h)
            expected.insert_block(h, kFundingOutputs);
        for (std::size_t i = 0; i + 1 < spent_.size(); ++i) {
            if (!expected.spend(spent_[i].height, spent_[i].position)) return false;
        }
        for (std::size_t r = 0; r < kMempoolRounds; ++r)
            expected.insert_block(static_cast<std::uint32_t>(funding_.size() + r),
                                  kMempoolBurst + 1);
        return node.headers().size() == funding_.size() + kMempoolRounds &&
               serialized(node.status()) == serialized(expected);
    }

    chain::ChainParams params_ = chain::ChainParams::simnet();
    crypto::PrivateKey key_;
    script::Script lock_;
    std::vector<core::EbvBlock> funding_;
    std::vector<core::EbvTransaction> txs_;  ///< the rounds' spends, then the guard's
    std::vector<core::BitVectorSet::SpentRecord> spent_;  ///< funding output of each
};

// ---- Unit-cost probes ------------------------------------------------------

struct Probe {
    double value = 0;  ///< median cost of one call, in the metric's unit
    std::size_t samples = 0;
};

/// Median over `samples` timings of `batch` calls of body(i), after
/// `samples / 4` warm-up timings; the result is per call, times `scale`
/// (1 for ns, 1e-3 for µs).
template <typename Body>
Probe probe(std::size_t samples, std::size_t batch, double scale, Body&& body) {
    std::vector<double> per_call;
    std::size_t i = 0;
    for (std::size_t s = 0; s < samples + samples / 4; ++s) {
        const std::int64_t t0 = wall_ns();
        for (std::size_t b = 0; b < batch; ++b) body(i++);
        const double ns = static_cast<double>(wall_ns() - t0) / static_cast<double>(batch);
        if (s >= samples / 4) per_call.push_back(ns * scale);
    }
    return {median(per_call), per_call.size()};
}

struct Probes {
    Probe ecdsa_verify_us, sig_parse_ns, pubkey_parse_ns, sha256d64_ns, merkle_fold_us,
        sighash_digest_ns, bit_test_ns, sigcache_lookup_ns, parallel_for_empty_us;
    bool sound = true;  ///< every probed verify and fold gave the right answer
};

Probes run_probes(const ProbeData& d, const core::BitVectorSet& status,
                  util::ThreadPool& pool) {
    if (d.jobs.empty() || d.leaves.size() < 2 || d.txs.empty())
        throw std::runtime_error("workload has too little data to probe");
    Probes p;
    std::uint64_t sink = 0;
    const std::size_t nj = d.jobs.size();

    p.ecdsa_verify_us = probe(128, 1, 1e-3, [&](std::size_t i) {
        const crypto::VerifyJob& j = d.jobs[i % nj];
        p.sound = p.sound && j.key.verify(j.digest, j.sig);
    });
    p.sig_parse_ns = probe(200, 64, 1, [&](std::size_t i) {
        sink += crypto::Signature::from_der(d.der[i % nj]).has_value();
    });
    p.pubkey_parse_ns = probe(64, 1, 1, [&](std::size_t i) {
        sink += crypto::PublicKey::parse(d.pubkeys[i % nj]).has_value();
    });

    // 64-byte messages: adjacent pairs of the workload's ELs leaf hashes.
    constexpr std::size_t kMsgs = 64;
    std::vector<std::uint8_t> in(kMsgs * 64), out(kMsgs * 32);
    for (std::size_t m = 0; m < kMsgs * 2; ++m) {
        const auto& leaf = d.leaves[m % d.leaves.size()].bytes();
        std::copy(leaf.begin(), leaf.end(), in.begin() + static_cast<std::ptrdiff_t>(32 * m));
    }
    p.sha256d64_ns = probe(200, 1, 1.0 / kMsgs, [&](std::size_t) {
        crypto::sha256d64_many(out.data(), in.data(), kMsgs);
        sink += out[0];
    });

    const std::size_t nb = d.branches.size();
    std::vector<crypto::Hash256> roots(nb);
    for (std::size_t i = 0; i < nb; ++i) roots[i] = crypto::fold_branch(d.leaves[i], d.branches[i]);
    p.merkle_fold_us = probe(400, 1, 1e-3, [&](std::size_t i) {
        p.sound = p.sound && crypto::fold_branch(d.leaves[i % nb], d.branches[i % nb]) ==
                                 roots[i % nb];
    });

    // Template digests of every input of each probe transaction.
    std::vector<std::unique_ptr<core::TxSighashCache>> caches;
    std::vector<std::pair<std::size_t, std::size_t>> slots;  // (tx, input)
    for (const core::EbvTransaction* tx : d.txs) {
        caches.push_back(std::make_unique<core::TxSighashCache>(*tx));
        for (std::size_t i = 0; i < tx->inputs.size(); ++i) slots.emplace_back(caches.size() - 1, i);
    }
    p.sighash_digest_ns = probe(400, 1, 1, [&](std::size_t k) {
        const auto [t, i] = slots[k % slots.size()];
        const core::EbvInput& input = d.txs[t]->inputs[i];
        sink += caches[t]->tpl()
                    .digest(i, input.els.outputs[input.out_index].lock_script, 0x01)
                    .bytes()[0];
    });

    const std::size_t np = d.positions.size();
    p.bit_test_ns = probe(200, 256, 1, [&](std::size_t i) {
        const auto& pos = d.positions[i % np];
        sink += status.check_unspent(pos.height, pos.position).has_value();
    });

    core::SigCache cache;  // half the workload's signatures cached
    for (std::size_t i = 0; i < nj; i += 2) cache.insert(d.jobs[i]);
    p.sigcache_lookup_ns = probe(200, 64, 1, [&](std::size_t i) {
        sink += cache.contains(d.jobs[i % nj]);
    });

    const std::size_t slots_n = pool.thread_count();
    p.parallel_for_empty_us = probe(400, 1, 1e-3, [&](std::size_t) {
        pool.parallel_for(slots_n, [](std::size_t) {});
    });

    std::fprintf(stderr, "perfbench: probes done (sink %llu)\n",
                 static_cast<unsigned long long>(sink));
    return p;
}

// ---- Machine-speed yardstick -----------------------------------------------

/// Fixed yardstick inputs, the same for every workload and seed: 64
/// signatures by 16 keys over digests drawn from a constant seed.
std::vector<perfbench::YardstickJob> yardstick_jobs() {
    const auto limbs = [](const crypto::U256& v) { return v.limbs; };
    util::Rng rng(0x7961726473746963ULL);
    std::vector<crypto::PrivateKey> keys;
    for (int k = 0; k < 16; ++k) keys.push_back(crypto::PrivateKey::generate(rng));
    std::vector<perfbench::YardstickJob> jobs;
    for (std::size_t i = 0; i < 64; ++i) {
        const crypto::PrivateKey& key = keys[i % keys.size()];
        crypto::Hash256 digest;
        rng.fill(digest.bytes());
        const crypto::Signature sig = key.sign(digest);
        const crypto::PublicKey pub = key.public_key();
        jobs.push_back({limbs(pub.point().x), limbs(pub.point().y),
                        limbs(crypto::U256::from_be_bytes(digest.span())), limbs(sig.r),
                        limbs(sig.s)});
    }
    return jobs;
}

// ---- Metrics ---------------------------------------------------------------

struct MetricSpec {
    const char* name;
    const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sig_checks_per_s", "checks/s"},
    {"connect_ms_p50", "ms"},
    {"connect_ms_p99", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"crypto.ecdsa_verify_us", "us"},
    {"crypto.ecdsa_verify_us.samples", "count"},
    {"crypto.ecdsa_verifies", "count"},
    {"crypto.der_parse_ns", "ns"},
    {"crypto.der_parse_ns.samples", "count"},
    {"crypto.sha256d64_ns_per_msg", "ns"},
    {"crypto.sha256d64_ns_per_msg.samples", "count"},
    {"crypto.sha256d64_msgs", "count"},
    {"crypto.merkle_fold_us", "us"},
    {"crypto.merkle_fold_us.samples", "count"},
    {"crypto.sha256_finalizes", "count"},
    {"chain.sighash_digest_ns", "ns"},
    {"chain.sighash_digest_ns.samples", "count"},
    {"chain.sighash_digests", "count"},
    {"core.ev_ms", "ms"},
    {"core.uv_ms", "ms"},
    {"core.sv_ms", "ms"},
    {"core.update_ms", "ms"},
    {"core.other_ms", "ms"},
    {"core.bit_test_ns", "ns"},
    {"core.bit_test_ns.samples", "count"},
    {"core.sigcache_lookup_ns", "ns"},
    {"core.sigcache_lookup_ns.samples", "count"},
    {"core.sigcache_hits", "count"},
    {"core.sigcache_misses", "count"},
    {"core.sigcache_hit_ratio", "ratio"},
    {"core.submit_batch_ms_p50", "ms"},
    {"core.build_template_ms", "ms"},
    {"core.evict_ms", "ms"},
    {"ibd.windows", "count"},
    {"ibd.stall_ms", "ms"},
    {"ibd.commit_ms", "ms"},
    {"util.pool_busy_pct", "%"},
    {"util.pool_barrier_wait_ms", "ms"},
    {"util.pool_wakeup_us", "us"},
    {"util.pool_steal_ratio", "ratio"},
    {"util.pool_parallel_fors", "count"},
    {"util.parallel_for_empty_us", "us"},
    {"util.parallel_for_empty_us.samples", "count"},
    {"workload.generate_s", "s"},
    {"intermediary.convert_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans_recorded", "count"},
    {"closure.cpu_ms", "ms"},
    {"closure.residual_pct", "%"},
    {"core.status_bytes", "B"},
    {"bench.yardstick_verify_us", "us"},
};

/// The benchmark's spans that started inside pass `p`.
std::vector<const obs::Span*> pass_spans(const std::vector<obs::Span>& spans, const Pass& p) {
    std::vector<const obs::Span*> out;
    for (const obs::Span& s : spans) {
        if (s.start_ns >= p.trace_from_ns && s.start_ns < p.trace_to_ns) out.push_back(&s);
    }
    return out;
}

/// Median duration (ms) of the spans called `name`.
double span_median_ms(const std::vector<const obs::Span*>& spans, std::string_view name) {
    std::vector<double> ms;
    for (const obs::Span* s : spans) {
        if (s->name == name) ms.push_back(static_cast<double>(s->wall_ns) / 1e6);
    }
    return median(ms);
}

/// Per-layer values of one traced pass; `spans` are the benchmark's own.
std::map<std::string, double> pass_layers(const Pass& p, const Probes& u,
                                          const std::vector<obs::Span>& spans,
                                          std::size_t slots, std::size_t distinct_keys) {
    const Counters& d = p.delta;
    const std::vector<const obs::Span*> own = pass_spans(spans, p);
    const auto ms = [](util::TimeCost c) { return static_cast<double>(c.total_ns()) / 1e6; };
    const double verifies =
        static_cast<double>(p.signature_checks) - static_cast<double>(d.sigcache_hits);
    const double lookups = static_cast<double>(d.sigcache_hits + d.sigcache_misses);

    // Accounting closure: unit cost x exact work count, against the CPU
    // time of the timed section. Merkle folds are inside the sha256d64 term
    // (each fold step is one 64-byte message). Signature parses count one
    // per validated input and pubkey parses one per key per pool slot,
    // because the parse memo absorbs repeats.
    const double explained_ns =
        u.ecdsa_verify_us.value * 1e3 * verifies +
        u.sha256d64_ns.value * static_cast<double>(d.sha256d64_msgs) +
        u.sighash_digest_ns.value * static_cast<double>(p.signature_checks) +
        u.sig_parse_ns.value * static_cast<double>(p.input_checks) +
        u.pubkey_parse_ns.value *
            static_cast<double>(std::min<std::uint64_t>(p.input_checks, distinct_keys * slots)) +
        u.bit_test_ns.value * static_cast<double>(p.input_checks) +
        u.sigcache_lookup_ns.value * lookups +
        u.parallel_for_empty_us.value * 1e3 * static_cast<double>(d.pool.parallel_fors);

    std::map<std::string, double> m;
    m["crypto.ecdsa_verifies"] = verifies;
    m["crypto.sha256d64_msgs"] = static_cast<double>(d.sha256d64_msgs);
    m["crypto.sha256_finalizes"] = static_cast<double>(d.sha256_finalizes);
    m["chain.sighash_digests"] = static_cast<double>(p.signature_checks);
    m["core.ev_ms"] = ms(p.timings.ev);
    m["core.uv_ms"] = ms(p.timings.uv);
    m["core.sv_ms"] = ms(p.timings.sv);
    m["core.update_ms"] = ms(p.timings.update);
    m["core.other_ms"] = ms(p.timings.other);
    m["core.sigcache_hits"] = static_cast<double>(d.sigcache_hits);
    m["core.sigcache_misses"] = static_cast<double>(d.sigcache_misses);
    m["core.sigcache_hit_ratio"] = ratio(static_cast<double>(d.sigcache_hits), lookups);
    m["core.submit_batch_ms_p50"] = span_median_ms(own, "core.TxPool::submit_batch");
    m["core.build_template_ms"] = span_median_ms(own, "core.TxPool::build_template");
    m["core.evict_ms"] = span_median_ms(own, "core.TxPool::evict_confirmed_spends");
    m["ibd.windows"] = static_cast<double>(d.ibd_windows);
    m["ibd.stall_ms"] = static_cast<double>(d.ibd_stall_ns) / 1e6;
    m["ibd.commit_ms"] = static_cast<double>(d.ibd_commit_ns) / 1e6;
    m["util.pool_busy_pct"] =
        100 * ratio(static_cast<double>(d.busy_ns), static_cast<double>(slots) * static_cast<double>(d.wall));
    m["util.pool_barrier_wait_ms"] = static_cast<double>(d.pool.barrier_wait_ns) / 1e6;
    m["util.pool_wakeup_us"] =
        ratio(static_cast<double>(d.pool.wakeup_ns), static_cast<double>(d.pool.wakeups)) / 1e3;
    m["util.pool_steal_ratio"] =
        ratio(static_cast<double>(d.pool.steals), static_cast<double>(d.pool.steal_attempts));
    m["util.pool_parallel_fors"] = static_cast<double>(d.pool.parallel_fors);
    // The registry counts every tracer's spans; keep the program's own.
    m["obs.spans_recorded"] = static_cast<double>(d.spans_recorded - own.size());
    m["closure.cpu_ms"] = static_cast<double>(d.cpu) / 1e6;
    m["closure.residual_pct"] = 100 * (1 - ratio(explained_ns, static_cast<double>(d.cpu)));
    return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  std::span<const MetricSpec> specs, const std::map<std::string, double>& values) {
    std::fprintf(stderr, "%-38s %18s  %s\n", "metric", "value", "unit");
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = values.find(specs[i].name);
        const double v = it == values.end() || !std::isfinite(it->second) ? 0 : it->second;
        std::fprintf(stderr, "%-38s %18.6f  %s\n", specs[i].name, v, specs[i].unit);
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

// ---- Run loop --------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::filesystem::path work_dir = ".";
};

std::unique_ptr<Workload> make_workload(const Args& a, util::ThreadPool& pool) {
    if (a.workload == "ibd") return std::make_unique<IbdWorkload>(a.seed, pool, a.work_dir);
    if (a.workload == "tip_connect")
        return std::make_unique<TipConnectWorkload>(a.seed, pool, a.work_dir);
    if (a.workload == "mempool") return std::make_unique<MempoolWorkload>(a.seed, pool, a.work_dir);
    return nullptr;
}

int run(const Args& args) {
    const std::size_t slots = std::max(1u, util::affinity_cpu_count());
    util::ThreadPool pool(util::ThreadPool::Options{slots, {}, {}});
    std::unique_ptr<Workload> w = make_workload(args, pool);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(args.work_dir);
    std::printf("{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"pool_slots\": %zu, "
                "\"scheduler\": \"%s\", \"affinity\": %s, \"sha256_impl\": \"%s\", "
                "\"pipeline_window\": %zu, \"batch_verify\": false, \"sighash_template\": true}}\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), slots,
                util::to_string(pool.scheduler()), pool.affinity_applied() ? "true" : "false",
                crypto::sha256_impl(), ibd::PipelineOptions{}.window);

    bool correct = true;
    const std::vector<perfbench::YardstickJob> yardstick = yardstick_jobs();
    // The yardstick runs after the warm-up and after each timed pass, for
    // kYardstickShare of that pass's wall time. A single short sample moved
    // by 20 % within a run, so a run's pass figures are all scaled by its
    // mean verify time over the whole run, not pass by pass.
    double yardstick_wall_us = 0, yardstick_verifies = 0;
    std::vector<double> yardstick_us;  // per sample, for the log
    const auto run_yardstick = [&](std::int64_t pass_ns) {
        const double share_us = kYardstickShare * static_cast<double>(pass_ns) / 1e3;
        const std::size_t verifies = std::max(
            kYardstickMinVerifies, static_cast<std::size_t>(share_us / perfbench::kNominalVerifyUs));
        const perfbench::YardstickSample y = perfbench::measure_yardstick(yardstick, slots, verifies);
        if (!y.sound) {
            std::fprintf(stderr, "perfbench: a yardstick verify failed\n");
            correct = false;
        }
        yardstick_wall_us += y.wall_us;
        yardstick_verifies += static_cast<double>(verifies);
        yardstick_us.push_back(y.wall_us / static_cast<double>(verifies));
    };

    // Set-up is not scaled. It runs mostly on one thread, and the time of
    // one thread moved by up to 2x with a neighbour's load on the reference
    // VM, unlike the yardstick's, which keeps every slot busy.
    std::vector<double> setup_s, generate_s, convert_s;
    crypto::Hash256 fingerprint;
    for (int k = 0; k < kSetups; ++k) {
        SetupTimes t;
        w->setup(t);
        setup_s.push_back(static_cast<double>(t.total_ns) / 1e9);
        generate_s.push_back(static_cast<double>(t.generate_ns) / 1e9);
        convert_s.push_back(static_cast<double>(t.convert_ns) / 1e9);
        if (k == 0) fingerprint = w->fingerprint();
        if (w->fingerprint() != fingerprint) {
            std::fprintf(stderr, "perfbench: set-up is not deterministic for this seed\n");
            correct = false;
        }
        std::fprintf(stderr, "perfbench: set-up %d took %.3f s\n", k + 1, setup_s.back());
    }

    // Peak memory covers the passes only, not the set-ups' transient buffers.
    if (!reset_peak_rss())
        std::fprintf(stderr, "perfbench: cannot reset the peak RSS; it includes set-up\n");
    const double base_rss_mib = proc_status_mib("VmRSS");

    // One untimed warm-up pass fills caches and finishes lazy set-up. Then
    // the timed passes: with --trace 1, odd passes record the benchmark's
    // spans and the even ones are the untraced reference for the tracing
    // overhead.
    obs::Tracer tracer;
    tracer.set_enabled(false);
    tracer.set_capacity(1 << 20);
    const Pass warm_up = w->pass(tracer);
    correct = warm_up.correct && correct;
    run_yardstick(warm_up.delta.wall);
    std::vector<Pass> passes;
    int traced_n = 0, untraced_n = 0;
    const int min_untraced = args.trace ? kMinPasses : w->min_passes();
    const std::int64_t budget = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t start = wall_ns();
    for (std::size_t i = 0;; ++i) {
        const bool enough =
            traced_n >= (args.trace ? kMinPasses : 0) && untraced_n >= min_untraced;
        if (enough && wall_ns() - start >= budget) break;
        const bool traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        Pass p = w->pass(tracer);
        run_yardstick(p.delta.wall);
        p.traced = traced;
        (traced ? traced_n : untraced_n)++;
        correct = correct && p.correct;
        passes.push_back(std::move(p));
    }
    tracer.set_enabled(false);
    const double peak_rss_mib = proc_status_mib("VmHWM");
    std::fprintf(stderr, "perfbench: resident %.1f MiB after set-up, peak %.1f MiB in passes\n",
                 base_rss_mib, peak_rss_mib);
    std::fprintf(stderr, "perfbench: %zu passes in %.2f s; timed ms:", passes.size(),
                 static_cast<double>(wall_ns() - start) / 1e9);
    for (const Pass& p : passes)
        std::fprintf(stderr, " %.1f%s", static_cast<double>(p.delta.wall) / 1e6, p.traced ? "t" : "");
    // Scaled time = measured time × scale (yardstick.hpp).
    const double mean_yardstick_us = yardstick_wall_us / yardstick_verifies;
    const double scale = perfbench::kNominalVerifyUs / mean_yardstick_us;
    std::fprintf(stderr, "\nperfbench: yardstick verify us:");
    for (const double us : yardstick_us) std::fprintf(stderr, " %.0f", us);
    std::fprintf(stderr, "; mean %.1f\n", mean_yardstick_us);

    if (!w->guard()) {
        std::fprintf(stderr, "perfbench: the hostile input was accepted\n");
        correct = false;
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> throughput, raw_throughput, connect_p50, connect_p99, traced_wall,
        untraced_wall;
    std::size_t connect_samples = 0;
    for (const Pass& p : passes) {
        attempted += p.attempted;
        failed += p.failed;
        const double scaled_wall = static_cast<double>(p.delta.wall) * scale;
        if (p.traced) {
            traced_wall.push_back(scaled_wall);
            continue;
        }
        untraced_wall.push_back(scaled_wall);
        raw_throughput.push_back(ratio(static_cast<double>(p.checks) * 1e9,
                                       static_cast<double>(p.validate_ns)));
        throughput.push_back(raw_throughput.back() / scale);
        connect_p50.push_back(percentile(p.connect_ms, 50) * scale);
        connect_p99.push_back(percentile(p.connect_ms, 99) * scale);
        connect_samples += p.connect_ms.size();
    }
    if (!correct) std::fprintf(stderr, "perfbench: output check FAILED\n");
    std::fprintf(stderr, "perfbench: %zu connect samples over %zu untraced passes\n",
                 connect_samples, throughput.size());
    std::fprintf(stderr, "perfbench: unscaled: sig_checks_per_s %.1f\n", median(raw_throughput));

    std::map<std::string, double> values;
    if (!args.trace) {
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mib;
        values["sig_checks_per_s"] = median(throughput);
        // Per-pass percentiles, median over passes: one disturbed pass
        // cannot move the tail.
        values["connect_ms_p50"] = median(connect_p50);
        values["connect_ms_p99"] = median(connect_p99);
        print_result(correct, attempted, failed, kEndToEnd, values);
        return correct ? 0 : 1;
    }

    const ProbeData data = w->probe_data();
    const Probes u = run_probes(data, w->node().status(), pool);
    if (!u.sound) {
        std::fprintf(stderr, "perfbench: a probe returned a wrong answer\n");
        correct = false;
    }
    const std::vector<obs::Span> spans = tracer.snapshot();
    std::map<std::string, std::vector<double>> per_pass;
    for (const Pass& p : passes) {
        if (!p.traced) continue;
        for (const auto& [name, v] : pass_layers(p, u, spans, slots, data.distinct_keys))
            per_pass[name].push_back(v);
    }
    for (const auto& [name, v] : per_pass) values[name] = median(v);
    const auto put = [&](const std::string& name, const Probe& pr) {
        values[name] = pr.value;
        values[name + ".samples"] = static_cast<double>(pr.samples);
    };
    put("crypto.ecdsa_verify_us", u.ecdsa_verify_us);
    put("crypto.der_parse_ns", {u.sig_parse_ns.value + u.pubkey_parse_ns.value,
                                std::min(u.sig_parse_ns.samples, u.pubkey_parse_ns.samples)});
    put("crypto.sha256d64_ns_per_msg", u.sha256d64_ns);
    put("crypto.merkle_fold_us", u.merkle_fold_us);
    put("chain.sighash_digest_ns", u.sighash_digest_ns);
    put("core.bit_test_ns", u.bit_test_ns);
    put("core.sigcache_lookup_ns", u.sigcache_lookup_ns);
    put("util.parallel_for_empty_us", u.parallel_for_empty_us);
    values["core.status_bytes"] = static_cast<double>(passes.back().status_bytes);
    values["bench.yardstick_verify_us"] = mean_yardstick_us;
    values["workload.generate_s"] = median(generate_s);
    values["intermediary.convert_s"] = median(convert_s);
    values["obs.trace_overhead_pct"] =
        100 * (ratio(median(traced_wall), median(untraced_wall)) - 1);

    const std::filesystem::path trace_path =
        args.work_dir / ("trace_" + args.workload + "_" + std::to_string(args.seed) + ".json");
    if (obs::write_chrome_trace(trace_path.string(), tracer))
        std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                     trace_path.c_str());
    print_result(correct, attempted, failed, kPerLayer, values);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
            return 2;
        }
        const char* value = argv[++i];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace") args.trace = std::strtoul(value, nullptr, 10) != 0;
        else if (flag == "--work-dir") args.work_dir = value;
        else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n", argv[i - 1]);
            return 2;
        }
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
