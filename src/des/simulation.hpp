// The discrete-event simulation engine.
//
// One Simulation owns a virtual clock, an event queue, and all fibers.
// Simulated "processes" and "nodes" are layered on top by colza::net; at this
// level there are only fibers (cooperative tasks) and timed events.
//
// Execution model
//   * Single OS thread. Events fire in (time, sequence) order, so a fixed
//     seed reproduces the timeline bit-for-bit.
//   * A fiber blocks by returning control to the scheduler (sleep, or a
//     primitive from des/sync.hpp). Blocking never spins.
//   * Compute cost is *charged*: charge(d) advances the fiber's position in
//     virtual time, exactly like sleep; charge_scoped() runs real code,
//     measures its wall-clock duration, and charges that, which is how real
//     filter/render computation lands on the owning rank's clock.
//     Work that skips a repeated pure kernel reports the host time the
//     kernel took when it did run (replay_host_ns), and the enclosing
//     charge_scoped charges it as if measured -- SMPI's SMPI_SAMPLE_* idea.
//     A pure kernel fanned out over host cores (des/parallel.hpp) reports
//     the host time its tasks overlapped the same way, so it is charged its
//     serial cost.
//
// Termination
//   * Fibers and events are daemon or non-daemon (daemon-ness is inherited
//     from the spawning/scheduling fiber unless overridden). run() returns
//     when no non-daemon fiber is alive and no non-daemon event is pending --
//     background gossip loops don't keep the simulation alive.
//   * If the event queue drains while non-daemon fibers are still blocked,
//     run() throws DeadlockError naming them.
//   * Fibers are never cancelled: a fiber still parked when the Simulation
//     is destroyed is freed without being resumed, and nothing on its stack
//     is unwound. So an object a fiber or timer captures must stay
//     allocated while the simulation can still run that fiber or timer
//     (DESIGN.md S4) -- in practice, until the run is over.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/event_queue.hpp"
#include "des/fiber.hpp"
#include "des/time.hpp"

namespace colza::des {

struct SimConfig {
  std::uint64_t seed = 42;
  std::size_t default_stack_size = 512 * 1024;
  // Reproducibility switch for the chaos/replay harness: when nonzero,
  // charge_scoped ignores the wall clock and charges exactly this duration
  // per call. The work still runs (its results are real); only its modeled
  // cost becomes host-independent, making the whole virtual timeline -- and
  // therefore every injected fault's timestamp -- bit-identical run to run.
  Duration fixed_scoped_charge = 0;
};

struct SpawnOptions {
  bool daemon = false;
  bool inherit_daemon = true;  // if spawned from a daemon fiber, be daemon too
  std::size_t stack_size = 0;  // 0 = simulation default
  std::uint64_t tag = 0;       // 0 = inherit spawner's tag
};

class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

class Simulation {
 public:
  explicit Simulation(SimConfig config = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- observers -------------------------------------------------------
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool in_fiber() const noexcept { return current_ != nullptr; }
  // Tag of the currently running fiber (0 when called from scheduler/timer
  // context). colza::net uses tags to map fibers to simulated processes.
  [[nodiscard]] std::uint64_t current_tag() const noexcept;
  [[nodiscard]] std::uint64_t current_fiber_id() const noexcept;
  [[nodiscard]] std::size_t live_fiber_count() const noexcept {
    return live_fibers_;
  }
  // Total events processed so far (fiber resumes + scheduler callbacks);
  // the denominator of the runtime microbenchmark's events/sec figure.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }
  // The pending-event store (depth, ladder stats); obs/bench sample this
  // for the per-iteration runtime gauges.
  [[nodiscard]] const EventQueue& event_queue() const noexcept {
    return queue_;
  }

  // ---- fiber creation & control ----------------------------------------
  FiberHandle spawn(std::string name, std::function<void()> body,
                    SpawnOptions opts = {});

  // Blocks the calling fiber until `h` finishes. Returns immediately if it
  // already has. Must be called from a fiber.
  void join(FiberHandle h);
  [[nodiscard]] bool finished(FiberHandle h) const noexcept;

  // ---- timed events (scheduler context callbacks) -----------------------
  // The callback runs in scheduler context: it must not block. daemon-ness
  // defaults to the scheduling fiber's (non-daemon from outside a fiber).
  // Callables up to CallbackNode::kInlineSize bytes are stored inline in a
  // pooled node -- scheduling such an event performs no heap allocation in
  // steady state (std::function is only the fallback for oversized
  // captures). This is what keeps per-message delivery events off the
  // allocator.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    schedule_callback(t, std::forward<F>(fn), current_daemon());
  }
  template <typename F>
  void schedule_after(Duration d, F&& fn) {
    schedule_callback(saturating_after(d), std::forward<F>(fn),
                      current_daemon());
  }
  template <typename F>
  void schedule_after(Duration d, F&& fn, bool daemon) {
    schedule_callback(saturating_after(d), std::forward<F>(fn), daemon);
  }

  // ---- fiber-facing operations (must run inside a fiber) ----------------
  void sleep_for(Duration d);
  void sleep_until(Time t);
  void yield();  // requeue at current time, after already-pending events

  // Advance this fiber's virtual clock by a modeled compute cost.
  // (Semantically sleep_for; separate so traces can label compute spans.)
  void charge(Duration d);

  // Run `work` for real, measure it, charge measured + the host ns `work`
  // replayed. Returns work's result. The measurement is clean because
  // nothing else runs concurrently on the host thread.
  template <typename F>
  auto charge_scoped(F&& work) {
    if (config_.fixed_scoped_charge > 0) {
      if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        work();
        charge(config_.fixed_scoped_charge);
        return;
      } else {
        auto result = work();
        charge(config_.fixed_scoped_charge);
        return result;
      }
    }
    const std::uint64_t replayed0 = replayed_ns_;
    const std::uint64_t t0 = wall_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      work();
      charge(wall_ns() - t0 + (replayed_ns_ - replayed0));
    } else {
      auto result = work();
      charge(wall_ns() - t0 + (replayed_ns_ - replayed0));
      return result;
    }
  }

  // Reports `ns` of host compute that the caller skipped because it reused
  // an earlier run's result; the enclosing charge_scoped adds it to the time
  // it measured (a fixed_scoped_charge ignores it, like the measurement).
  // Outside any charge_scoped nothing charges it.
  void replay_host_ns(std::uint64_t ns) noexcept { replayed_ns_ += ns; }
  // Running total of replay_host_ns: the difference across a piece of work
  // is what it replayed (a parallel_pure region's overlap included).
  [[nodiscard]] std::uint64_t replayed_host_ns() const noexcept {
    return replayed_ns_;
  }

  // ---- main loop ---------------------------------------------------------
  // Runs until no non-daemon work remains. Throws DeadlockError if
  // non-daemon fibers are blocked with an empty event queue, and rethrows
  // the first exception escaping any fiber body.
  void run();
  // Processes all events with time <= horizon, then sets now = horizon.
  void run_until(Time horizon);

  // The simulation running the currently-executing fiber, or nullptr. Per OS
  // thread: null on a parallel_pure helper.
  static Simulation* current() noexcept;

  // ---- primitives for des/sync.hpp (and other blocking abstractions) ----
  // Block the current fiber until some agent calls unblock_for_sync on it.
  void block_current();
  // Same, with a timeout; returns true if the block ended by timeout.
  bool block_current_for(Duration timeout);

  // ---- tracing -----------------------------------------------------------
  // External charge observer (the obs tracer folds compute spans into its
  // unified trace through this). Called from inside charge() BEFORE the
  // fiber advances, with the charged interval's start and duration; it must
  // not block, schedule, or recurse into charge. A plain function pointer so
  // des keeps zero link-time dependencies on observers.
  using ChargeListener = void (*)(void* ctx, Simulation& sim,
                                  const char* fiber_name, std::uint64_t tag,
                                  std::uint64_t fiber_id, Time start,
                                  Duration d);
  void set_charge_listener(ChargeListener fn, void* ctx) noexcept {
    charge_listener_ = fn;
    charge_ctx_ = ctx;
  }

 private:
  friend class Fiber;

  // Event, CallbackNode, EventOrder and kDaemonBit live in des/event_queue.hpp
  // (the pending-event store needs them at namespace scope).

  [[nodiscard]] bool current_daemon() const noexcept;

  // now_ + d with saturation: a "negative" duration arriving through the
  // unsigned Duration type shows up as a huge value whose sum wraps past
  // now_, which used to silently schedule in the past. Clamp to the end of
  // virtual time instead (and trip an assert in debug builds).
  [[nodiscard]] Time saturating_after(Duration d) const noexcept {
    assert(d <= kTimeInfinity - now_ &&
           "schedule_after/sleep_for: duration overflows virtual time");
    return d > kTimeInfinity - now_ ? kTimeInfinity : now_ + d;
  }

  template <typename F>
  void schedule_callback(Time t, F&& fn, bool daemon) {
    using Fn = std::decay_t<F>;
    CallbackNode* n = acquire_node();
    if constexpr (sizeof(Fn) <= CallbackNode::kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->invoke = [](CallbackNode& node) {
        (*reinterpret_cast<Fn*>(node.storage))();
      };
      n->destroy = [](CallbackNode& node) {
        reinterpret_cast<Fn*>(node.storage)->~Fn();
      };
    } else {
      n->big = std::forward<F>(fn);
      n->invoke = [](CallbackNode& node) { node.big(); };
      n->destroy = [](CallbackNode& node) { node.big = nullptr; };
    }
    push_callback_event(t, daemon, n);
  }

  [[nodiscard]] CallbackNode* acquire_node();
  void release_node(CallbackNode* n) noexcept;
  void push_callback_event(Time t, bool daemon, CallbackNode* n);
  void drain_reap();

  void schedule_resume(Fiber* f, Time t);
  void switch_to(Fiber* f);
  void fiber_finished(Fiber* f);
  bool step();  // process one event; false if queue empty
  void check_deadlock() const;
  static std::uint64_t wall_ns() noexcept;

  SimConfig config_;
  Rng rng_;
  Time now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_fiber_id_ = 1;
  EventQueue queue_;
  CallbackNode* free_nodes_ = nullptr;  // recycled callback nodes
  // Live fibers, directly indexed by id - 1 (ids are handed out
  // sequentially, so the slot for a new fiber is always the next index).
  // step() resolves a fiber id per resume event; at 4k simulated procs even
  // an unordered_map's hash+probe per event was measurable, while this is a
  // bounds check and a load. Finished fibers leave a null slot behind --
  // 8 bytes per fiber ever spawned, which stays small next to the stacks.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t live_fibers_ = 0;
  [[nodiscard]] Fiber* fiber_at(std::uint64_t id) const noexcept {
    return id - 1 < fibers_.size() ? fibers_[id - 1].get() : nullptr;
  }
  std::vector<std::unique_ptr<Fiber>> reap_;  // finished, free on next step
  // Recycled fiber stacks (default size only -- the dominant case: every
  // mona::async request fiber). Spawning from the pool skips a half-MB
  // allocation + first-touch faulting per request fiber.
  std::vector<std::unique_ptr<char[]>> stack_pool_;
  static constexpr std::size_t kMaxPooledStacks = 64;
  Fiber* current_ = nullptr;
#if COLZA_FAST_CONTEXT
  void* scheduler_sp_ = nullptr;
#else
  ucontext_t scheduler_context_{};
#endif
#if defined(COLZA_ASAN_FIBERS)
  // Bounds of the scheduler's (OS thread's) stack, captured on the first
  // fiber entry; every switch back to the scheduler announces them to ASan.
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
  // Called from Fiber::trampoline on first entry to a fiber stack: completes
  // the pending switch and records the scheduler stack bounds.
  void asan_on_fiber_entry() noexcept;
  friend class Fiber;
#endif
  std::uint64_t replayed_ns_ = 0;  // running total of replay_host_ns
  ChargeListener charge_listener_ = nullptr;
  void* charge_ctx_ = nullptr;
  std::size_t nondaemon_fibers_ = 0;
  std::size_t nondaemon_events_ = 0;
  std::exception_ptr pending_error_;

  friend void unblock_for_sync(Simulation& sim, std::uint64_t fiber_id);
};

// Used by des/sync.hpp: wake a blocked fiber at the current time.
void unblock_for_sync(Simulation& sim, std::uint64_t fiber_id);

}  // namespace colza::des
