// Thread-to-core pinning for the throughput-mode pipeline scheduler.
//
// Pinning a long-lived worker to one core keeps its element chain's state
// (filter delay lines, ring cache lines) resident in that core's private
// caches and stops the OS from migrating the thread mid-stream. It is an
// optimization, never a requirement: on platforms without an affinity API
// (or when the mask is rejected — containers often expose fewer cores than
// the host has) pinning degrades to a graceful no-op and the caller keeps
// running unpinned.
#pragma once

#include <cstddef>

namespace ff {

/// Number of CPUs the calling thread may run on right now (the affinity
/// mask cardinality where available, else std::thread::hardware_concurrency,
/// else 1). This is what a cgroup-limited CI container actually sees.
std::size_t visible_cpu_count();

/// Pin the calling thread to `core` (modulo the online CPU count, so any
/// chain index is a valid argument). Returns true when the affinity call
/// succeeded; false on unsupported platforms or a rejected mask. Never
/// throws — failure to pin is a performance note, not an error.
bool pin_current_thread_to_core(std::size_t core);

}  // namespace ff
