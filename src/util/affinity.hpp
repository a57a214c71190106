// CPU-affinity portability shim for util::ThreadPool's optional worker
// pinning (EBV_AFFINITY). Pinning keeps each slot's working set — its
// sighash templates and lane batches — on one core's private caches, and
// is the first rung toward the NUMA-aware partitioning the ROADMAP names.
// Everything degrades gracefully: on non-Linux platforms (or when the
// syscall is refused, e.g. by a sandbox) pin_current_thread() returns
// false and the pool simply runs unpinned.
#pragma once

#include <thread>

namespace ebv::util {

/// True when this build can pin threads at all (Linux with pthreads).
bool affinity_supported() noexcept;

/// CPUs usable by this process (affinity-mask aware on Linux); >= 1.
unsigned affinity_cpu_count() noexcept;

/// Pin the calling thread to `cpu % affinity_cpu_count()`. Returns false
/// when unsupported or when the kernel refuses.
bool pin_current_thread(unsigned cpu) noexcept;

/// Pin another thread by its std::thread::native_handle(). Lets a pool pin
/// its workers synchronously at construction instead of racing their
/// startup.
bool pin_thread(std::thread::native_handle_type handle, unsigned cpu) noexcept;

}  // namespace ebv::util
