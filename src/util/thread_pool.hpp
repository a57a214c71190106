// A low-overhead owned thread pool for the parallel proof-checking pipeline
// (fused EV+SV) and parallel script validation. Work is submitted as index
// ranges, OpenMP-style: the caller publishes one job, persistent workers
// execute it, and parallel_for is a barrier. There is no per-task
// allocation and no central task queue: one job descriptor lives in the
// pool and is broadcast by bumping a generation counter.
//
// Two schedulers distribute a job's [0, n) index space (EBV_SCHEDULER):
//
//  * `steal` (default) — each slot owns a bounded Chase–Lev deque
//    (util::StealDeque) seeded with one contiguous span of [0, n). Owners
//    pop LIFO and split ranges in half down to a chunk floor; idle workers
//    steal FIFO halves from victims chosen by randomized probing, with
//    exponential backoff (pause → yield → micro-sleep parking) between
//    failed sweeps. Contiguous per-slot spans preserve cache locality for
//    the EV leaf-hash and sighash-template paths; stealing bounds the
//    straggler tail under skewed per-input cost.
//  * `counter` — the original shared atomic counter: workers claim
//    contiguous chunks off `fetch_add`. Kept as an A/B reference and used
//    automatically for jobs with n >= 2^32 (deque cells pack 32-bit
//    indices).
//
// Determinism note: neither scheduler makes ordering promises — ranges run
// in whatever order threads claim them. Callers that need deterministic
// results (the EBV validator's failure reporting) must resolve them from
// per-index results after the barrier; see docs/PARALLELISM.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/steal_deque.hpp"

namespace ebv::util {

/// Non-owning reference to a callable. parallel_for is synchronous, so the
/// referenced callable only needs to outlive the call — a temporary lambda
/// argument is fine. Avoids std::function's possible heap allocation on the
/// submission path.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
public:
    template <typename F,
              std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef>, int> = 0>
    FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F>*>(obj))(
                  std::forward<Args>(args)...);
          }) {}

    R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

private:
    void* obj_;
    R (*call_)(void*, Args...);
};

/// Lowers `target` to `value` when that is smaller (CAS-min): a parallel
/// pass's first-failure index, which only ever decreases.
inline void atomic_min(std::atomic<std::size_t>& target, std::size_t value) {
    std::size_t cur = target.load(std::memory_order_relaxed);
    while (value < cur &&
           !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
}

/// Cooperative early-exit flag. Checked by the pool between chunks: once
/// cancelled, remaining chunks are claimed but their bodies are skipped, so
/// parallel_for still returns promptly (and deterministically terminates).
class CancelToken {
public:
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
    [[nodiscard]] bool cancelled() const noexcept {
        return cancelled_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

private:
    std::atomic<bool> cancelled_{false};
};

/// Cumulative pool counters (relaxed atomics; snapshot via stats()).
/// `barrier_wait_ns` (exported as `ebv.pool.barrier_wait_ns`; named
/// steal_wait_ns before real steals existed) is the time submitting threads
/// spent blocked after finishing their own share, waiting for workers to
/// drain the rest — a straggler/load-imbalance indicator. `wakeup_ns`
/// totals the queue latency between a job's publication and each worker
/// attaching to it (`wakeups` attachments observed), exported as
/// `ebv.pool.wakeup_ns`. The stealing scheduler additionally reports
/// `local_pops` (ranges taken from the executing slot's own deque),
/// `steals` / `steal_attempts` (successful thefts / victim probes), and
/// `steal_ns` (time spent in the probing loop while out of local work,
/// exported as `ebv.pool.steal_ns`).
struct PoolStats {
    std::uint64_t parallel_fors = 0;
    std::uint64_t tasks = 0;  ///< chunks executed (across all threads)
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t wakeup_ns = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t local_pops = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t steal_ns = 0;
};

/// Opaque two-word ambient context carried from a parallel_for's submitter
/// to the workers running its chunks. The pool itself attaches no meaning;
/// ebv::obs uses it to propagate the current trace span (trace id, span id)
/// so worker-side spans nest under the submitting thread's open span.
struct TaskContext {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

enum class SchedulerMode {
    kCounter,  ///< shared-counter chunk claiming (pre-PR7 behaviour)
    kSteal,    ///< per-slot Chase–Lev deques with split-stealing
};

[[nodiscard]] const char* to_string(SchedulerMode mode) noexcept;

/// Process default from EBV_SCHEDULER ("counter" | "steal"); kSteal when
/// unset or unrecognized.
[[nodiscard]] SchedulerMode default_scheduler_mode() noexcept;

/// Process default from EBV_AFFINITY ("1"/"true"/"on" enable); off when
/// unset.
[[nodiscard]] bool default_affinity() noexcept;

class ThreadPool {
public:
    struct Options {
        /// 0 selects hardware_concurrency (min 1). The calling thread
        /// participates in parallel_for, so this is the total parallelism:
        /// N means the caller plus N-1 spawned workers.
        std::size_t threads = 0;
        /// Unset falls back to default_scheduler_mode() (EBV_SCHEDULER).
        std::optional<SchedulerMode> scheduler;
        /// Pin spawned workers to CPUs (slot s -> cpu s, modulo the CPUs
        /// available to the process; the calling thread is never pinned).
        /// Unset falls back to default_affinity() (EBV_AFFINITY). No-op
        /// where unsupported — see util/affinity.hpp.
        std::optional<bool> affinity;
    };

    explicit ThreadPool(Options options);
    explicit ThreadPool(std::size_t threads = 0) : ThreadPool(Options{threads, {}, {}}) {}
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total execution slots: spawned workers + the calling thread.
    [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

    [[nodiscard]] SchedulerMode scheduler() const { return scheduler_; }

    /// True when worker pinning was requested *and* every spawned worker
    /// was successfully pinned.
    [[nodiscard]] bool affinity_applied() const {
        return affinity_requested_ &&
               pins_applied_.load(std::memory_order_relaxed) == workers_.size();
    }

    /// Run body(i) for i in [0, n), partitioned across the pool plus the
    /// calling thread by the active scheduler. Blocks until all chunks
    /// complete. The first exception thrown by a body is rethrown on the
    /// caller (exactly once); remaining chunks are skipped. If `cancel` is
    /// provided and fires, chunks not yet started are skipped.
    /// Re-entrant calls (from inside a body) degrade to serial execution.
    void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body,
                      CancelToken* cancel = nullptr);

    /// As parallel_for, but body(slot, i) also receives the executing slot
    /// index in [0, thread_count()): slot 0 is the calling thread, slots
    /// 1..N-1 are pool workers. Each slot runs on exactly one thread at a
    /// time, so callers can keep per-slot partial results (timings, sums)
    /// without any synchronization.
    void parallel_for_slots(std::size_t n,
                            FunctionRef<void(std::size_t, std::size_t)> body,
                            CancelToken* cancel = nullptr);

    [[nodiscard]] PoolStats stats() const {
        return PoolStats{parallel_fors_.load(std::memory_order_relaxed),
                         tasks_.load(std::memory_order_relaxed),
                         barrier_wait_ns_.load(std::memory_order_relaxed),
                         wakeup_ns_.load(std::memory_order_relaxed),
                         wakeups_.load(std::memory_order_relaxed),
                         local_pops_.load(std::memory_order_relaxed),
                         steals_.load(std::memory_order_relaxed),
                         steal_attempts_.load(std::memory_order_relaxed),
                         steal_ns_.load(std::memory_order_relaxed)};
    }

    /// Cumulative busy time (ns spent inside chunk bodies) per execution
    /// slot — slot 0 is the submitting thread. Per-worker utilization over
    /// an interval is the delta divided by the interval's wall time.
    [[nodiscard]] std::vector<std::uint64_t> slot_busy_ns() const;

    /// Peak deque occupancy per slot during the most recent stealing-mode
    /// job (all zeros after counter-mode or serial runs) — the per-slot
    /// queue-depth gauge. Meaningful once the submitting parallel_for has
    /// returned; sampling mid-job reads are safe but racy.
    [[nodiscard]] std::vector<std::uint64_t> slot_queue_depth_peak() const;

    /// Install process-wide ambient-context hooks: `capture` runs on the
    /// submitting thread at job publication; `swap` runs on each worker to
    /// install the captured context before its chunks (returning the
    /// previous context, restored afterwards). Pass nullptrs to clear.
    /// Intended to be called once from a static initializer (ebv::obs does
    /// this to propagate trace spans); not synchronized against running
    /// pools.
    static void set_task_context_hooks(TaskContext (*capture)(),
                                       TaskContext (*swap)(TaskContext));

private:
    /// Type-erased chunk invoker: run body over [begin, end) on `slot`.
    using Invoke = void (*)(void* ctx, std::size_t slot, std::size_t begin,
                            std::size_t end);

    /// The one in-flight job. Plain fields are written by the submitter
    /// under mutex_ while no worker is attached (workers_attached_ == 0)
    /// and read by workers after they observe the new generation under the
    /// same mutex, so they need no atomicity of their own. The per-slot
    /// deques are seeded in the same quiescent window.
    struct Job {
        Invoke invoke = nullptr;
        void* ctx = nullptr;
        std::size_t total = 0;
        std::size_t chunk = 1;
        bool steal = false;  ///< stealing scheduler for this job?
        CancelToken* cancel = nullptr;
        TaskContext task_context{};     ///< ambient context captured at submit
        std::int64_t submit_ns = 0;     ///< publication time (wakeup latency)
        std::atomic<std::size_t> next{0};       ///< first unclaimed index (counter)
        std::atomic<std::size_t> completed{0};  ///< indices claimed AND finished
        std::atomic<bool> has_error{false};
        std::exception_ptr error;  ///< first error; guarded by mutex_
    };

    void run(std::size_t n, Invoke invoke, void* ctx, CancelToken* cancel);
    void run_chunks(std::size_t slot);
    void run_ranges(std::size_t slot);
    void worker_loop(std::size_t slot);

    std::vector<std::thread> workers_;
    std::mutex submit_mutex_;  ///< serializes concurrent submitters

    std::mutex mutex_;
    std::condition_variable work_cv_;  ///< workers: new generation or stop
    std::condition_variable done_cv_;  ///< submitter: completion / detach
    Job job_;
    std::uint64_t generation_ = 0;
    std::size_t workers_attached_ = 0;  ///< workers currently touching job_
    bool stopping_ = false;

    SchedulerMode scheduler_ = SchedulerMode::kSteal;
    bool affinity_requested_ = false;
    std::atomic<std::size_t> pins_applied_{0};
    /// One deque per slot (stealing scheduler), sized at construction.
    std::unique_ptr<StealDeque[]> deques_;

    std::atomic<std::uint64_t> parallel_fors_{0};
    std::atomic<std::uint64_t> tasks_{0};
    std::atomic<std::uint64_t> barrier_wait_ns_{0};
    std::atomic<std::uint64_t> wakeup_ns_{0};
    std::atomic<std::uint64_t> wakeups_{0};
    std::atomic<std::uint64_t> local_pops_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> steal_attempts_{0};
    std::atomic<std::uint64_t> steal_ns_{0};
    /// Busy ns per slot, index 0..thread_count()-1 (sized at construction).
    std::unique_ptr<std::atomic<std::uint64_t>[]> slot_busy_ns_;
    /// Peak deque depth per slot for the current/most recent stealing job.
    std::unique_ptr<std::atomic<std::uint64_t>[]> slot_queue_peak_;
};

}  // namespace ebv::util
