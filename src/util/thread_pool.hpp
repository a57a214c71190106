// A low-overhead owned thread pool for the parallel proof-checking pipeline
// (fused EV+SV) and parallel script validation. Work is submitted as index
// ranges, OpenMP-style: the caller publishes one job, persistent workers
// execute it, and parallel_for is a barrier. There is no per-task
// allocation and no central task queue: one job descriptor lives in the
// pool and is broadcast by bumping a generation counter.
//
// One scheduler: every thread claims contiguous chunks of
// max(1, n / (N·64)) indices off the job's shared atomic cursor. The SV
// passes, whose per-item cost is skewed, need no more: chain::claim_all
// starts one claimer per slot, and the claimers take single inputs,
// costliest first, off their own cursor. What is left for the pool's
// cursor is cheap, even work (the pipeline's input-hash pass, signing),
// where a fine chunk bounds the tail at one small chunk.
//
// Determinism note: the pool makes no ordering promises — chunks run in
// whatever order threads claim them. Callers that need deterministic
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
/// `barrier_wait_ns` (exported as `ebv.pool.barrier_wait_ns`) is the time
/// submitting threads spent blocked after finishing their own share,
/// waiting for workers to drain the rest — a straggler/load-imbalance
/// indicator. `wakeup_ns` totals the queue latency between a job's
/// publication and each worker attaching to it (`wakeups` attachments
/// observed), exported as `ebv.pool.wakeup_ns`.
struct PoolStats {
    std::uint64_t parallel_fors = 0;
    std::uint64_t tasks = 0;  ///< chunks executed (across all threads)
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t wakeup_ns = 0;
    std::uint64_t wakeups = 0;
    /// Always 0: the pool does not steal. Kept only because perfbench/
    /// still reads them (its `util.pool_steal_ratio` then reads 0).
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
};

/// Opaque two-word ambient context carried from a parallel_for's submitter
/// to the workers running its chunks. The pool itself attaches no meaning;
/// ebv::obs uses it to propagate the current trace span (trace id, span id)
/// so worker-side spans nest under the submitting thread's open span.
struct TaskContext {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/// The pool's one scheduler, the shared cursor. The enum, to_string and
/// ThreadPool::scheduler() are kept only because perfbench/ prints the
/// scheduler in its settings line.
enum class SchedulerMode {
    kCounter,  ///< chunks claimed off one shared atomic cursor
};

[[nodiscard]] const char* to_string(SchedulerMode mode) noexcept;

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
        /// Ignored: there is one scheduler. Kept only so perfbench/'s
        /// three-member initializer compiles.
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

    /// Always SchedulerMode::kCounter; kept for perfbench/ (see the enum).
    [[nodiscard]] SchedulerMode scheduler() const { return SchedulerMode::kCounter; }

    /// True when worker pinning was requested *and* every spawned worker
    /// was successfully pinned.
    [[nodiscard]] bool affinity_applied() const {
        return affinity_requested_ &&
               pins_applied_.load(std::memory_order_relaxed) == workers_.size();
    }

    /// Run body(i) for i in [0, n), partitioned across the pool plus the
    /// calling thread in chunks claimed off a shared cursor. Blocks until
    /// all chunks complete. The first exception thrown by a body is
    /// rethrown on the caller (exactly once); remaining chunks are skipped.
    /// If `cancel` is provided and fires, chunks not yet started are
    /// skipped.
    /// Re-entrant calls (from inside a body) run serially on the calling
    /// body's thread.
    void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body,
                      CancelToken* cancel = nullptr);

    /// As parallel_for, but body(slot, i) also receives the executing slot
    /// index in [0, thread_count()): slot 0 is the calling thread, slots
    /// 1..N-1 are pool workers. Each slot runs on exactly one thread at a
    /// time, so callers can keep per-slot partial results (timings, sums)
    /// without any synchronization. A re-entrant call passes its bodies the
    /// slot of the body that made it.
    void parallel_for_slots(std::size_t n,
                            FunctionRef<void(std::size_t, std::size_t)> body,
                            CancelToken* cancel = nullptr);

    [[nodiscard]] PoolStats stats() const {
        return PoolStats{parallel_fors_.load(std::memory_order_relaxed),
                         tasks_.load(std::memory_order_relaxed),
                         barrier_wait_ns_.load(std::memory_order_relaxed),
                         wakeup_ns_.load(std::memory_order_relaxed),
                         wakeups_.load(std::memory_order_relaxed)};
    }

    /// Cumulative busy time (ns spent inside chunk bodies) per execution
    /// slot — slot 0 is the submitting thread. Per-worker utilization over
    /// an interval is the delta divided by the interval's wall time.
    [[nodiscard]] std::vector<std::uint64_t> slot_busy_ns() const;

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
    /// same mutex, so they need no atomicity of their own.
    struct Job {
        Invoke invoke = nullptr;
        void* ctx = nullptr;
        std::size_t total = 0;
        std::size_t chunk = 1;
        CancelToken* cancel = nullptr;
        TaskContext task_context{};     ///< ambient context captured at submit
        std::int64_t submit_ns = 0;     ///< publication time (wakeup latency)
        std::atomic<bool> has_error{false};
        std::exception_ptr error;  ///< first error; guarded by mutex_
        /// First unclaimed index (the cursor), alone on its cache line: every
        /// claim writes it, and the fields above are read per chunk.
        alignas(64) std::atomic<std::size_t> next{0};
        /// Indices claimed and finished, added once per thread per job.
        alignas(64) std::atomic<std::size_t> completed{0};
    };

    void run(std::size_t n, Invoke invoke, void* ctx, CancelToken* cancel);
    void run_chunks(std::size_t slot);
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

    bool affinity_requested_ = false;
    std::atomic<std::size_t> pins_applied_{0};

    std::atomic<std::uint64_t> parallel_fors_{0};
    std::atomic<std::uint64_t> tasks_{0};
    std::atomic<std::uint64_t> barrier_wait_ns_{0};
    std::atomic<std::uint64_t> wakeup_ns_{0};
    std::atomic<std::uint64_t> wakeups_{0};
    /// Busy ns per slot, index 0..thread_count()-1 (sized at construction).
    std::unique_ptr<std::atomic<std::uint64_t>[]> slot_busy_ns_;
};

}  // namespace ebv::util
