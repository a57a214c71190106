#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/affinity.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::util {
namespace {

TEST(ThreadPool, ZeroItemsIsNoop) {
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);

    CancelToken cancel;
    cancel.cancel();
    pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); }, &cancel);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
        }
    }
}

TEST(ThreadPool, BodyExceptionRethrownExactlyOnce) {
    ThreadPool pool(4);
    for (int repeat = 0; repeat < 20; ++repeat) {
        std::atomic<int> ran{0};
        int caught = 0;
        try {
            pool.parallel_for(256, [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 17) throw std::runtime_error("boom");
            });
        } catch (const std::runtime_error& e) {
            ++caught;
            EXPECT_STREQ(e.what(), "boom");
        }
        EXPECT_EQ(caught, 1);
        // The pool must stay usable after an exception.
        std::atomic<int> after{0};
        pool.parallel_for(64, [&](std::size_t) { after.fetch_add(1); });
        EXPECT_EQ(after.load(), 64);
    }
}

TEST(ThreadPool, PreCancelledTokenSkipsAllBodies) {
    ThreadPool pool(4);
    CancelToken cancel;
    cancel.cancel();
    std::atomic<int> ran{0};
    pool.parallel_for(1000, [&](std::size_t) { ran.fetch_add(1); }, &cancel);
    EXPECT_EQ(ran.load(), 0);

    cancel.reset();
    pool.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); }, &cancel);
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, MidRunCancellationStopsRemainingChunks) {
    for (std::size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        CancelToken cancel;
        std::atomic<int> ran{0};
        const std::size_t n = 100000;
        pool.parallel_for(n, [&](std::size_t) {
            if (ran.fetch_add(1) == 10) cancel.cancel();
        }, &cancel);
        // Everything after the in-flight chunks must be skipped. The exact
        // count depends on chunking; it just must be far below n.
        EXPECT_GE(ran.load(), 11);
        EXPECT_LT(static_cast<std::size_t>(ran.load()), n / 2) << "threads=" << threads;
    }
}

TEST(ThreadPool, SlotsAreWithinRangeAndStable) {
    ThreadPool pool(4);
    const std::size_t n = 4096;
    std::vector<std::size_t> slot_of(n, SIZE_MAX);
    pool.parallel_for_slots(n, [&](std::size_t slot, std::size_t i) {
        ASSERT_LT(slot, pool.thread_count());
        slot_of[i] = slot;  // each index visited once; no race
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_NE(slot_of[i], SIZE_MAX);
    // No promise that any *particular* slot participates (the other threads
    // can race to claim everything off the cursor); a pool of one is the
    // degenerate case where slot 0 must do all the work.
    ThreadPool solo(1);
    std::vector<std::size_t> solo_slot(64, SIZE_MAX);
    solo.parallel_for_slots(64, [&](std::size_t slot, std::size_t i) {
        solo_slot[i] = slot;
    });
    EXPECT_EQ(std::count(solo_slot.begin(), solo_slot.end(), 0u), 64);
}

TEST(ThreadPool, PerSlotPartialsNeedNoSynchronization) {
    ThreadPool pool(4);
    const std::size_t n = 100000;
    std::vector<std::uint64_t> partial(pool.thread_count(), 0);
    pool.parallel_for_slots(n, [&](std::size_t slot, std::size_t i) { partial[slot] += i; });
    const std::uint64_t sum = std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
    EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ReentrantParallelForRunsSerially) {
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallel_for(8, [&](std::size_t) {
        pool.parallel_for(16, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

// Each outer body holds its slot until every slot has started one (at most
// ~2 s), so the outer items run on distinct threads; the nested pass inside
// each must report that body's slot, and add no busy time of its own.
TEST(ThreadPool, NestedPassRunsOnTheOuterSlot) {
    ThreadPool pool(4);
    const std::size_t slots = pool.thread_count();
    std::atomic<std::size_t> started{0};
    std::vector<std::size_t> outer_slot(slots, SIZE_MAX);
    std::vector<std::vector<std::size_t>> inner_slots(slots);
    const std::vector<std::uint64_t> busy_before = pool.slot_busy_ns();
    const Stopwatch wall;
    pool.parallel_for_slots(slots, [&](std::size_t slot, std::size_t i) {
        outer_slot[i] = slot;
        started.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (started.load() < slots && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        pool.parallel_for_slots(8, [&](std::size_t inner, std::size_t) {
            inner_slots[i].push_back(inner);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    });
    const auto wall_ns = static_cast<std::uint64_t>(wall.elapsed_ns());
    for (std::size_t i = 0; i < slots; ++i) {
        ASSERT_EQ(inner_slots[i].size(), 8u) << "item " << i;
        for (const std::size_t inner : inner_slots[i])
            EXPECT_EQ(inner, outer_slot[i]) << "item " << i;
    }
    const std::vector<std::uint64_t> busy_after = pool.slot_busy_ns();
    for (std::size_t s = 0; s < slots; ++s)
        EXPECT_LE(busy_after[s] - busy_before[s], wall_ns) << "slot " << s;
}

TEST(ThreadPool, StressTinyAndHugeChunkCounts) {
    ThreadPool pool(8);
    // Many tiny jobs: exercises submit/broadcast churn.
    for (int round = 0; round < 500; ++round) {
        std::atomic<int> ran{0};
        pool.parallel_for(3, [&](std::size_t) { ran.fetch_add(1); });
        ASSERT_EQ(ran.load(), 3);
    }
    // One huge job: exercises counter claiming under contention.
    const std::size_t n = 1 << 20;
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(n, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPool, StatsAccumulate) {
    ThreadPool pool(2);
    const PoolStats before = pool.stats();
    pool.parallel_for(1000, [](std::size_t) {});
    pool.parallel_for(1000, [](std::size_t) {});
    const PoolStats after = pool.stats();
    EXPECT_EQ(after.parallel_fors, before.parallel_fors + 2);
    EXPECT_GT(after.tasks, before.tasks);
    EXPECT_EQ(after.steals, 0u);
    EXPECT_EQ(after.steal_attempts, 0u);
}

// ---------------------------------------------------------------------------
// The pool's contracts under both scheduler requests Options could make
// before the pool had one scheduler: an explicit SchedulerMode::kCounter
// ("counter"), and the unset default that used to select work stealing
// ("steal"). The request is ignored now, so both must behave the same.
// ---------------------------------------------------------------------------

enum class SchedulerRequest { kCounter, kSteal };

class SchedulerContract : public ::testing::TestWithParam<SchedulerRequest> {
protected:
    static std::unique_ptr<ThreadPool> make_pool(std::size_t threads) {
        std::optional<SchedulerMode> mode;
        if (GetParam() == SchedulerRequest::kCounter) mode = SchedulerMode::kCounter;
        return std::make_unique<ThreadPool>(ThreadPool::Options{threads, mode, {}});
    }
    static const char* request_name() {
        return GetParam() == SchedulerRequest::kCounter ? "counter" : "steal";
    }
};

TEST_P(SchedulerContract, CoversEveryIndexExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        auto pool = make_pool(threads);
        for (std::size_t n : {1u, 2u, 7u, 64u, 1000u, 4097u}) {
            std::vector<std::atomic<int>> hits(n);
            pool->parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << request_name() << " threads=" << threads << " n=" << n << " i=" << i;
        }
    }
}

TEST_P(SchedulerContract, ExceptionRethrownExactlyOnceAndPoolSurvives) {
    auto pool = make_pool(4);
    for (int repeat = 0; repeat < 10; ++repeat) {
        int caught = 0;
        try {
            pool->parallel_for(512, [&](std::size_t i) {
                if (i == 301) throw std::runtime_error("contract-boom");
            });
        } catch (const std::runtime_error& e) {
            ++caught;
            EXPECT_STREQ(e.what(), "contract-boom");
        }
        EXPECT_EQ(caught, 1);
        std::atomic<int> after{0};
        pool->parallel_for(64, [&](std::size_t) { after.fetch_add(1); });
        EXPECT_EQ(after.load(), 64);
    }
}

TEST_P(SchedulerContract, MidRunCancellationStopsRemainingWork) {
    auto pool = make_pool(4);
    CancelToken cancel;
    std::atomic<int> ran{0};
    const std::size_t n = 100000;
    pool->parallel_for(n, [&](std::size_t) {
        if (ran.fetch_add(1) == 10) cancel.cancel();
    }, &cancel);
    EXPECT_GE(ran.load(), 11);
    EXPECT_LT(static_cast<std::size_t>(ran.load()), n / 2);
}

TEST_P(SchedulerContract, SlotsAreExclusivePerThread) {
    auto pool = make_pool(4);
    const std::size_t n = 100000;
    std::vector<std::uint64_t> partial(pool->thread_count(), 0);
    pool->parallel_for_slots(n, [&](std::size_t slot, std::size_t i) {
        ASSERT_LT(slot, pool->thread_count());
        partial[slot] += i;  // exclusive slot -> no synchronization needed
    });
    const std::uint64_t sum = std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
    EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST_P(SchedulerContract, ReentrantParallelForRunsSerially) {
    auto pool = make_pool(4);
    std::atomic<int> inner_total{0};
    pool->parallel_for(8, [&](std::size_t) {
        pool->parallel_for(1000, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 8 * 1000);
}

INSTANTIATE_TEST_SUITE_P(BothSchedulers, SchedulerContract,
                         ::testing::Values(SchedulerRequest::kCounter,
                                           SchedulerRequest::kSteal),
                         [](const ::testing::TestParamInfo<SchedulerRequest>& info) {
                             return info.param == SchedulerRequest::kCounter ? "counter"
                                                                             : "steal";
                         });

// ---------------------------------------------------------------------------
// Affinity
// ---------------------------------------------------------------------------

TEST(Affinity, PinCurrentThreadWorksWhereSupported) {
    if (!affinity_supported()) {
        GTEST_SKIP() << "affinity not supported on this platform";
    }
    EXPECT_GE(affinity_cpu_count(), 1u);
    EXPECT_TRUE(pin_current_thread(0));
    // Out-of-range CPU indices wrap onto the usable set rather than failing.
    EXPECT_TRUE(pin_current_thread(affinity_cpu_count() + 3));
}

TEST(Affinity, PinnedPoolStillSatisfiesContracts) {
    ThreadPool pool(ThreadPool::Options{4, {}, true});
    if (affinity_supported()) {
        EXPECT_TRUE(pool.affinity_applied());
    } else {
        EXPECT_FALSE(pool.affinity_applied());
    }
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Affinity, DisabledByDefault) {
    ThreadPool pool(ThreadPool::Options{2, {}, false});
    EXPECT_FALSE(pool.affinity_applied());
}

}  // namespace
}  // namespace ebv::util
