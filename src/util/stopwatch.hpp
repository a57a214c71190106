// Timing primitives. Wall-clock measurement (Stopwatch) is kept separate
// from modelled time (SimTimeLedger): the storage layer's disk latency is
// *accounted*, not slept, so experiments run fast yet report the latency a
// real HDD/SSD would have added. TimeBreakdown values always carry both.
#pragma once

#include <chrono>
#include <cstdint>

namespace ebv::util {

using Nanoseconds = std::int64_t;

class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    void restart() { start_ = Clock::now(); }

    [[nodiscard]] Nanoseconds elapsed_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
            .count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// Accumulates modelled (simulated) time, e.g. HDD seeks that are charged
/// but not actually slept. Single-writer per validation pass; benches read
/// deltas between operations.
class SimTimeLedger {
public:
    void charge(Nanoseconds ns) { total_ns_ += ns; }
    [[nodiscard]] Nanoseconds total_ns() const { return total_ns_; }
    void reset() { total_ns_ = 0; }

private:
    Nanoseconds total_ns_ = 0;
};

/// A measured interval: real CPU time plus modelled device time.
struct TimeCost {
    Nanoseconds wall_ns = 0;
    Nanoseconds simulated_ns = 0;

    [[nodiscard]] Nanoseconds total_ns() const { return wall_ns + simulated_ns; }

    TimeCost& operator+=(const TimeCost& o) {
        wall_ns += o.wall_ns;
        simulated_ns += o.simulated_ns;
        return *this;
    }
};

inline TimeCost operator+(TimeCost a, const TimeCost& b) { return a += b; }

/// Adds the wall time of its scope to one phase's TimeCost.
class PhaseTimer {
public:
    explicit PhaseTimer(TimeCost& target) : target_(target) {}
    ~PhaseTimer() { target_.wall_ns += watch_.elapsed_ns(); }

private:
    TimeCost& target_;
    Stopwatch watch_;
};

inline double to_ms(Nanoseconds ns) { return static_cast<double>(ns) / 1e6; }
inline double to_sec(Nanoseconds ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace ebv::util
