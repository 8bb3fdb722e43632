// Pure host computation on the idle cores, under the one-thread DES.
//
// The event loop and every fiber run on one OS thread, so a simulation uses
// one core. parallel_pure() lets a fiber fan a pure kernel (contouring,
// rasterizing, ray casting) out over a process-wide pool and join before it
// returns: the event loop never runs while the pool does, so the timeline
// stays single-threaded and bit-reproducible.
//
// Charging. Inside charge_scoped the region still costs what it would on one
// core: parallel_pure reports the host time its tasks overlapped (the CPU
// time its threads spent on tasks, minus the region's elapsed wall time)
// through Simulation::replay_host_ns, which the enclosing charge_scoped adds
// to what it measured. Tasks are measured in thread CPU time because a busy
// host preempts some of a region's threads, and their wall time would
// charge that wait. A fixed_scoped_charge ignores the replay, like any
// measurement.
#pragma once

#include <cstddef>
#include <functional>

namespace colza::des {

// Threads a parallel_pure call can use: the calling thread plus the pool's
// helpers, min(the host's hardware concurrency, 8), at least 1. Asking
// starts no thread.
[[nodiscard]] std::size_t parallel_width() noexcept;

// Runs fn(0), ..., fn(n - 1), each exactly once, on the calling thread and
// the pool's helpers; indices are claimed in increasing order, and the call
// returns once every task has finished. The pool's helpers start with the
// process, before main(), and idle on a condition variable between calls.
//
// fn must be pure host code: it must not touch a Simulation (on a helper
// Simulation::current() is null), block on a DES primitive, or use
// process-global registries (BufferPool::global(), obs metrics, the tracer).
//
// If tasks throw, no index is claimed after the first throw, and once every
// running task has stopped the exception of the lowest throwing index is
// rethrown -- the one a serial loop would have thrown. A parallel_pure called
// from inside a task, or while another thread's call holds the pool, runs its
// tasks inline on the calling thread.
void parallel_pure(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace colza::des
