#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "util/affinity.hpp"
#include "util/stopwatch.hpp"

namespace ebv::util {

namespace {

/// The pool and slot whose chunk this thread is running (null outside pool
/// work). A re-entrant parallel_for from a body must not block on the
/// submit mutex its outer call already holds, so it runs serially, on the
/// slot of the body that made it.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_slot = 0;

/// Records, for its scope, that this thread runs `pool`'s chunks on `slot`.
class SlotScope {
public:
    SlotScope(const ThreadPool* pool, std::size_t slot) : outer_pool_(t_pool), outer_slot_(t_slot) {
        t_pool = pool;
        t_slot = slot;
    }
    ~SlotScope() {
        t_pool = outer_pool_;
        t_slot = outer_slot_;
    }
    SlotScope(const SlotScope&) = delete;
    SlotScope& operator=(const SlotScope&) = delete;

private:
    const ThreadPool* outer_pool_;
    std::size_t outer_slot_;
};

/// Ambient-context hooks (trace-span propagation). Written once at static
/// init (see obs/trace.cpp), read on every submit/attach.
TaskContext (*g_context_capture)() = nullptr;
TaskContext (*g_context_swap)(TaskContext) = nullptr;

std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

const char* to_string(SchedulerMode) noexcept { return "counter"; }

bool default_affinity() noexcept {
    const char* env = std::getenv("EBV_AFFINITY");
    if (env == nullptr) return false;
    const std::string_view v(env);
    return v == "1" || v == "true" || v == "on" || v == "yes";
}

void ThreadPool::set_task_context_hooks(TaskContext (*capture)(),
                                        TaskContext (*swap)(TaskContext)) {
    g_context_capture = capture;
    g_context_swap = swap;
}

ThreadPool::ThreadPool(Options options) {
    std::size_t threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }
    affinity_requested_ = options.affinity.value_or(default_affinity());
    // The calling thread participates in parallel_for, so spawn one fewer.
    const std::size_t spawn = threads > 1 ? threads - 1 : 0;
    workers_.reserve(spawn);
    for (std::size_t i = 0; i < spawn; ++i) {
        try {
            // Slot 0 is the submitting thread; workers take 1..spawn. The
            // caller is never pinned — it belongs to whoever called us.
            workers_.emplace_back([this, slot = i + 1] { worker_loop(slot); });
            // Pin from here (not from the worker) so affinity_applied() is
            // settled the moment the constructor returns.
            if (affinity_requested_ &&
                pin_thread(workers_.back().native_handle(),
                           static_cast<unsigned>(i + 1)))
                pins_applied_.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::system_error&) {
            // Restricted environments (containers, sandboxes) may refuse
            // thread creation; degrade to whatever parallelism we got —
            // parallel_for still runs everything on the calling thread.
            break;
        }
    }
    const std::size_t slots = thread_count();
    slot_busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t s = 0; s < slots; ++s) slot_busy_ns_[s].store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> ThreadPool::slot_busy_ns() const {
    std::vector<std::uint64_t> busy(thread_count());
    for (std::size_t s = 0; s < busy.size(); ++s)
        busy[s] = slot_busy_ns_[s].load(std::memory_order_relaxed);
    return busy;
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(std::size_t slot) {
    Job& job = job_;
    const SlotScope scope(this, slot);
    std::uint64_t chunks_run = 0;
    std::uint64_t busy_ns = 0;
    std::size_t claimed = 0;
    for (;;) {
        // Claim first, examine afterwards: a straggler attached to an
        // already-finished job touches only the atomics and leaves without
        // dereferencing ctx/cancel (which may belong to a caller that has
        // long since returned).
        const std::size_t begin = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
        if (begin >= job.total) break;
        const std::size_t end = std::min(begin + job.chunk, job.total);
        const bool skip = job.has_error.load(std::memory_order_relaxed) ||
                          (job.cancel != nullptr && job.cancel->cancelled());
        if (!skip) {
            try {
                Stopwatch chunk_watch;
                job.invoke(job.ctx, slot, begin, end);
                busy_ns += static_cast<std::uint64_t>(chunk_watch.elapsed_ns());
                ++chunks_run;
            } catch (...) {
                std::lock_guard lock(mutex_);
                if (!job.has_error.load(std::memory_order_relaxed)) {
                    job.error = std::current_exception();
                    job.has_error.store(true, std::memory_order_relaxed);
                }
            }
        }
        claimed += end - begin;
    }
    // Stats first, so a submitter released by the add below reads them.
    if (chunks_run > 0) tasks_.fetch_add(chunks_run, std::memory_order_relaxed);
    if (busy_ns > 0)
        slot_busy_ns_[slot].fetch_add(busy_ns, std::memory_order_relaxed);
    // This thread's chunks are finished once the cursor is spent, so they
    // are retired in one add rather than one per chunk.
    if (claimed > 0 &&
        job.completed.fetch_add(claimed, std::memory_order_acq_rel) + claimed == job.total) {
        // Completion must be signalled under the lock so the final
        // increment cannot slip between the submitter's predicate check
        // and its sleep.
        std::lock_guard lock(mutex_);
        done_cv_.notify_all();
    }
}

void ThreadPool::worker_loop(std::size_t slot) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        TaskContext token{};
        {
            std::unique_lock lock(mutex_);
            work_cv_.wait(lock, [&] {
                return stopping_ || generation_ != seen_generation;
            });
            if (stopping_) return;
            seen_generation = generation_;
            ++workers_attached_;
            token = job_.task_context;
            const std::int64_t waited = steady_now_ns() - job_.submit_ns;
            if (waited > 0)
                wakeup_ns_.fetch_add(static_cast<std::uint64_t>(waited),
                                     std::memory_order_relaxed);
            wakeups_.fetch_add(1, std::memory_order_relaxed);
        }
        // Install the submitter's ambient context (trace span) around this
        // job's chunks so spans recorded inside nest under it causally.
        TaskContext prev{};
        if (g_context_swap != nullptr) prev = g_context_swap(token);
        run_chunks(slot);
        if (g_context_swap != nullptr) g_context_swap(prev);
        {
            std::lock_guard lock(mutex_);
            --workers_attached_;
            if (workers_attached_ == 0) done_cv_.notify_all();
        }
    }
}

void ThreadPool::run(std::size_t n, Invoke invoke, void* ctx, CancelToken* cancel) {
    if (n == 0) return;
    parallel_fors_.fetch_add(1, std::memory_order_relaxed);

    // One chunk size for both paths: fine enough that the last chunk to
    // finish is short, coarse enough that a big cheap pass touches the
    // cursor a few hundred times, not n times.
    const std::size_t chunk = std::max<std::size_t>(1, n / (thread_count() * 64));

    // Serial fast path: no workers, a single item, or a re-entrant call
    // from inside a body (blocking on submit_mutex_ there would deadlock
    // against our own outer barrier). A re-entrant call runs on the slot of
    // the body that made it and charges no busy time: that body's stopwatch
    // already covers it. Still chunked, so a CancelToken fired from inside
    // a nested region stops with comparable latency.
    if (workers_.empty() || n == 1 || t_pool != nullptr) {
        const bool nested = t_pool != nullptr;
        const std::size_t slot = t_pool == this ? t_slot : 0;
        const SlotScope scope(this, slot);
        Stopwatch serial_watch;
        for (std::size_t begin = 0; begin < n; begin += chunk) {
            if (cancel != nullptr && cancel->cancelled()) break;
            invoke(ctx, slot, begin, std::min(begin + chunk, n));  // may throw
            tasks_.fetch_add(1, std::memory_order_relaxed);
        }
        if (!nested)
            slot_busy_ns_[0].fetch_add(static_cast<std::uint64_t>(serial_watch.elapsed_ns()),
                                       std::memory_order_relaxed);
        return;
    }

    std::lock_guard submit_lock(submit_mutex_);
    {
        std::unique_lock lock(mutex_);
        // Wait out stragglers from the previous generation before rewriting
        // the job descriptor they may still be reading.
        done_cv_.wait(lock, [&] { return workers_attached_ == 0; });
        job_.invoke = invoke;
        job_.ctx = ctx;
        job_.total = n;
        job_.chunk = chunk;
        job_.cancel = cancel;
        job_.next.store(0, std::memory_order_relaxed);
        job_.completed.store(0, std::memory_order_relaxed);
        job_.has_error.store(false, std::memory_order_relaxed);
        job_.error = nullptr;
        job_.task_context =
            g_context_capture != nullptr ? g_context_capture() : TaskContext{};
        job_.submit_ns = steady_now_ns();
        ++generation_;
    }
    work_cv_.notify_all();

    run_chunks(/*slot=*/0);

    std::exception_ptr error;
    {
        Stopwatch wait_watch;
        std::unique_lock lock(mutex_);
        done_cv_.wait(lock, [&] {
            return job_.completed.load(std::memory_order_acquire) >= job_.total;
        });
        const auto waited = wait_watch.elapsed_ns();
        if (waited > 0)
            barrier_wait_ns_.fetch_add(static_cast<std::uint64_t>(waited),
                                       std::memory_order_relaxed);
        error = job_.error;
    }
    if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body,
                              CancelToken* cancel) {
    run(
        n,
        [](void* ctx, std::size_t, std::size_t begin, std::size_t end) {
            auto& f = *static_cast<FunctionRef<void(std::size_t)>*>(ctx);
            for (std::size_t i = begin; i < end; ++i) f(i);
        },
        &body, cancel);
}

void ThreadPool::parallel_for_slots(std::size_t n,
                                    FunctionRef<void(std::size_t, std::size_t)> body,
                                    CancelToken* cancel) {
    run(
        n,
        [](void* ctx, std::size_t slot, std::size_t begin, std::size_t end) {
            auto& f = *static_cast<FunctionRef<void(std::size_t, std::size_t)>*>(ctx);
            for (std::size_t i = begin; i < end; ++i) f(slot, i);
        },
        &body, cancel);
}

}  // namespace ebv::util
