// Unit tests for the discrete-event simulation core: fibers, virtual time,
// daemon semantics, deadlock detection, and the sync primitives.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "des/event_queue.hpp"
#include "des/parallel.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "des/time.hpp"

namespace colza::des {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(3), 3000u);
  EXPECT_EQ(milliseconds(2), 2000000u);
  EXPECT_EQ(seconds(1), 1000000000u);
  EXPECT_EQ(from_seconds(1.5), 1500000000u);
  EXPECT_EQ(from_micros(2.5), 2500u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

TEST(Simulation, RunsSingleFiber) {
  Simulation sim;
  bool ran = false;
  sim.spawn("f", [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulation, SleepAdvancesVirtualTime) {
  Simulation sim;
  Time seen = 0;
  sim.spawn("sleeper", [&] {
    sim.sleep_for(milliseconds(5));
    seen = sim.now();
    sim.sleep_until(milliseconds(100));
    EXPECT_EQ(sim.now(), milliseconds(100));
  });
  sim.run();
  EXPECT_EQ(seen, milliseconds(5));
  EXPECT_EQ(sim.now(), milliseconds(100));
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TieBreakBySequence) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(milliseconds(1), [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ChargeModelsComputeCost) {
  Simulation sim;
  sim.spawn("worker", [&] {
    sim.charge(microseconds(250));
    EXPECT_EQ(sim.now(), microseconds(250));
  });
  sim.run();
}

TEST(Simulation, ChargeScopedRunsWorkAndAdvancesClock) {
  Simulation sim;
  int result = 0;
  sim.spawn("worker", [&] {
    result = sim.charge_scoped([] {
      int acc = 0;
      for (int i = 0; i < 100000; ++i) acc += i % 7;
      return acc;
    });
    EXPECT_GT(sim.now(), 0u);  // real work took nonzero wall time
  });
  sim.run();
  EXPECT_GT(result, 0);
}

// A body that reports replayed host time (a memoized kernel's recorded cost)
// is charged at least that much under wall-clock charging, and exactly the
// fixed charge in fixed mode. Replay outside any charge_scoped is charged by
// nobody, in particular not by the next charge_scoped.
TEST(Simulation, ChargeScopedAddsReplayedHostTime) {
  constexpr std::uint64_t kReplay = milliseconds(40);
  for (const Duration fixed : {Duration{0}, milliseconds(2)}) {
    Simulation sim(SimConfig{.fixed_scoped_charge = fixed});
    Duration void_body = 0, value_body = 0, after_stray = 0;
    int value = 0;
    sim.spawn("worker", [&] {
      Time t0 = sim.now();
      sim.charge_scoped([&] { sim.replay_host_ns(kReplay); });
      void_body = sim.now() - t0;
      t0 = sim.now();
      value = sim.charge_scoped([&] {
        sim.replay_host_ns(kReplay / 2);
        sim.replay_host_ns(kReplay / 2);
        return 7;
      });
      value_body = sim.now() - t0;
      sim.replay_host_ns(seconds(100));
      t0 = sim.now();
      sim.charge_scoped([] {});
      after_stray = sim.now() - t0;
    });
    sim.run();
    EXPECT_EQ(value, 7);
    if (fixed == 0) {
      EXPECT_GE(void_body, kReplay);
      EXPECT_GE(value_body, kReplay);
      EXPECT_LT(after_stray, seconds(100));
    } else {
      EXPECT_EQ(void_body, fixed);
      EXPECT_EQ(value_body, fixed);
      EXPECT_EQ(after_stray, fixed);
    }
  }
}

TEST(Simulation, YieldInterleavesFibers) {
  Simulation sim;
  std::string trace;
  sim.spawn("a", [&] {
    trace += 'a';
    sim.yield();
    trace += 'A';
  });
  sim.spawn("b", [&] {
    trace += 'b';
    sim.yield();
    trace += 'B';
  });
  sim.run();
  EXPECT_EQ(trace, "abAB");
}

TEST(Simulation, JoinWaitsForChild) {
  Simulation sim;
  bool child_done = false;
  sim.spawn("parent", [&] {
    auto h = sim.spawn("child", [&] {
      sim.sleep_for(seconds(2));
      child_done = true;
    });
    sim.join(h);
    EXPECT_TRUE(child_done);
    EXPECT_EQ(sim.now(), seconds(2));
  });
  sim.run();
  EXPECT_TRUE(child_done);
}

TEST(Simulation, JoinFinishedFiberReturnsImmediately) {
  Simulation sim;
  sim.spawn("parent", [&] {
    auto h = sim.spawn("quick", [] {});
    sim.sleep_for(seconds(1));
    EXPECT_TRUE(sim.finished(h));
    sim.join(h);  // must not block
    EXPECT_EQ(sim.now(), seconds(1));
  });
  sim.run();
}

TEST(Simulation, DaemonFiberDoesNotKeepSimAlive) {
  Simulation sim;
  int beats = 0;
  sim.spawn(
      "heartbeat",
      [&] {
        while (true) {
          sim.sleep_for(seconds(1));
          ++beats;
        }
      },
      SpawnOptions{.daemon = true});
  sim.spawn("main", [&] { sim.sleep_for(from_seconds(3.5)); });
  sim.run();
  EXPECT_EQ(beats, 3);  // daemon ran while main was alive, then sim stopped
}

TEST(Simulation, DaemonnessInheritedBySpawnedChildren) {
  Simulation sim;
  int child_iters = 0;
  sim.spawn(
      "daemon-parent",
      [&] {
        sim.spawn("child", [&] {
          while (true) {
            sim.sleep_for(seconds(1));
            ++child_iters;
          }
        });
        sim.sleep_for(seconds(100));
      },
      SpawnOptions{.daemon = true});
  sim.spawn("main", [&] { sim.sleep_for(seconds(2)); });
  sim.run();
  EXPECT_LE(child_iters, 2);
}

TEST(Simulation, DeadlockDetected) {
  Simulation sim;
  Mutex m(sim);
  sim.spawn("stuck", [&] {
    m.lock();
    m.lock();  // self-deadlock
  });
  EXPECT_THROW(sim.run(), DeadlockError);
}

TEST(Simulation, FiberExceptionPropagates) {
  Simulation sim;
  sim.spawn("thrower", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int ticks = 0;
  sim.spawn(
      "ticker",
      [&] {
        while (true) {
          sim.sleep_for(seconds(1));
          ++ticks;
        }
      },
      SpawnOptions{.daemon = true});
  sim.run_until(from_seconds(5.5));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), from_seconds(5.5));
  sim.run_until(from_seconds(7.5));
  EXPECT_EQ(ticks, 7);
}

TEST(Simulation, TagInheritance) {
  Simulation sim;
  std::uint64_t child_tag = 0;
  sim.spawn(
      "proc",
      [&] {
        EXPECT_EQ(sim.current_tag(), 17u);
        sim.spawn("child", [&] { child_tag = sim.current_tag(); });
        sim.sleep_for(seconds(1));
      },
      SpawnOptions{.tag = 17});
  sim.run();
  EXPECT_EQ(child_tag, 17u);
}

TEST(Simulation, CurrentPointsToRunningSim) {
  Simulation sim;
  EXPECT_EQ(Simulation::current(), nullptr);
  sim.spawn("f", [&] { EXPECT_EQ(Simulation::current(), &sim); });
  sim.run();
  EXPECT_EQ(Simulation::current(), nullptr);
}

TEST(Simulation, ManyFibersDeterministicSchedule) {
  auto run_once = [] {
    Simulation sim(SimConfig{.seed = 9});
    std::vector<int> order;
    for (int i = 0; i < 200; ++i) {
      sim.spawn("f" + std::to_string(i), [&sim, &order, i] {
        sim.sleep_for(microseconds(sim.rng().below(1000)));
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --------------------------------------------------------------- sync

TEST(Sync, MutexMutualExclusion) {
  Simulation sim;
  Mutex m(sim);
  int inside = 0, max_inside = 0;
  for (int i = 0; i < 10; ++i) {
    sim.spawn("w", [&] {
      LockGuard g(m);
      ++inside;
      max_inside = std::max(max_inside, inside);
      sim.sleep_for(milliseconds(1));
      --inside;
    });
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
}

TEST(Sync, MutexFifoFairness) {
  Simulation sim;
  Mutex m(sim);
  std::vector<int> order;
  sim.spawn("holder", [&] {
    m.lock();
    sim.sleep_for(milliseconds(10));
    m.unlock();
  });
  for (int i = 0; i < 4; ++i) {
    sim.spawn("w" + std::to_string(i), [&, i] {
      sim.sleep_for(milliseconds(i + 1));  // arrive in order
      m.lock();
      order.push_back(i);
      m.unlock();
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Sync, TryLock) {
  Simulation sim;
  Mutex m(sim);
  sim.spawn("f", [&] {
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  sim.run();
}

TEST(Sync, CondVarNotifyOne) {
  Simulation sim;
  Mutex m(sim);
  CondVar cv(sim);
  bool flag = false;
  Time woke_at = 0;
  sim.spawn("waiter", [&] {
    LockGuard g(m);
    cv.wait(m, [&] { return flag; });
    woke_at = sim.now();
  });
  sim.spawn("setter", [&] {
    sim.sleep_for(seconds(3));
    LockGuard g(m);
    flag = true;
    cv.notify_one();
  });
  sim.run();
  EXPECT_EQ(woke_at, seconds(3));
}

TEST(Sync, CondVarNotifyAll) {
  Simulation sim;
  Mutex m(sim);
  CondVar cv(sim);
  bool go = false;
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn("waiter", [&] {
      LockGuard g(m);
      cv.wait(m, [&] { return go; });
      ++woken;
    });
  }
  sim.spawn("setter", [&] {
    sim.sleep_for(milliseconds(1));
    LockGuard g(m);
    go = true;
    cv.notify_all();
  });
  sim.run();
  EXPECT_EQ(woken, 5);
}

TEST(Sync, CondVarWaitForTimesOut) {
  Simulation sim;
  Mutex m(sim);
  CondVar cv(sim);
  bool timed_out = false;
  sim.spawn("waiter", [&] {
    LockGuard g(m);
    timed_out = !cv.wait_for(m, seconds(2), [] { return false; });
    EXPECT_EQ(sim.now(), seconds(2));
  });
  sim.run();
  EXPECT_TRUE(timed_out);
}

TEST(Sync, CondVarWaitForSucceedsBeforeDeadline) {
  Simulation sim;
  Mutex m(sim);
  CondVar cv(sim);
  bool flag = false;
  bool ok = false;
  sim.spawn("waiter", [&] {
    LockGuard g(m);
    ok = cv.wait_for(m, seconds(10), [&] { return flag; });
    EXPECT_EQ(sim.now(), seconds(1));
  });
  sim.spawn("setter", [&] {
    sim.sleep_for(seconds(1));
    LockGuard g(m);
    flag = true;
    cv.notify_all();
  });
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Sync, StaleTimeoutDoesNotWakeLaterBlock) {
  // A fiber that times out once and then blocks again must not be woken by
  // the first (stale) timer.
  Simulation sim;
  Mutex m(sim);
  CondVar cv(sim);
  Time second_wake = 0;
  sim.spawn("waiter", [&] {
    LockGuard g(m);
    cv.wait_for(m, milliseconds(10), [] { return false; });  // times out
    cv.wait_for(m, seconds(5), [] { return false; });        // full wait
    second_wake = sim.now();
  });
  sim.run();
  EXPECT_EQ(second_wake, milliseconds(10) + seconds(5));
}

TEST(Sync, EventualDeliversToMultipleWaiters) {
  Simulation sim;
  Eventual<int> ev(sim);
  int sum = 0;
  for (int i = 0; i < 3; ++i)
    sim.spawn("w", [&] { sum += ev.wait(); });
  sim.spawn("setter", [&] {
    sim.sleep_for(seconds(1));
    ev.set_value(7);
  });
  sim.run();
  EXPECT_EQ(sum, 21);
}

TEST(Sync, EventualWaitAfterSet) {
  Simulation sim;
  Eventual<std::string> ev(sim);
  ev.set_value("ready");
  std::string got;
  sim.spawn("w", [&] { got = ev.wait(); });
  sim.run();
  EXPECT_EQ(got, "ready");
}

TEST(Sync, EventualDoubleSetThrows) {
  Simulation sim;
  Eventual<int> ev(sim);
  ev.set_value(1);
  EXPECT_THROW(ev.set_value(2), std::logic_error);
}

TEST(Sync, EventualWaitForTimeout) {
  Simulation sim;
  Eventual<int> ev(sim);
  bool got_null = false;
  sim.spawn("w", [&] {
    got_null = (ev.wait_for(seconds(1)) == nullptr);
    EXPECT_EQ(sim.now(), seconds(1));
  });
  sim.run();
  EXPECT_TRUE(got_null);
}

TEST(Sync, BarrierReleasesAllTogether) {
  Simulation sim;
  Barrier bar(sim, 4);
  std::vector<Time> release_times;
  for (int i = 0; i < 4; ++i) {
    sim.spawn("p" + std::to_string(i), [&, i] {
      sim.sleep_for(seconds(static_cast<std::uint64_t>(i)));
      bar.arrive_and_wait();
      release_times.push_back(sim.now());
    });
  }
  sim.run();
  ASSERT_EQ(release_times.size(), 4u);
  for (Time t : release_times) EXPECT_EQ(t, seconds(3));  // last arrival
}

TEST(Sync, BarrierReusableAcrossGenerations) {
  Simulation sim;
  Barrier bar(sim, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    sim.spawn("p", [&] {
      for (int r = 0; r < 3; ++r) {
        sim.sleep_for(milliseconds(sim.rng().below(5) + 1));
        bar.arrive_and_wait();
      }
      ++rounds_done;
    });
  }
  sim.run();
  EXPECT_EQ(rounds_done, 2);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int inside = 0, max_inside = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn("w", [&] {
      sem.acquire();
      ++inside;
      max_inside = std::max(max_inside, inside);
      sim.sleep_for(milliseconds(1));
      --inside;
      sem.release();
    });
  }
  sim.run();
  EXPECT_EQ(max_inside, 2);
}

TEST(Sync, BarrierZeroCountThrows) {
  Simulation sim;
  EXPECT_THROW(Barrier(sim, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EventQueue: the ladder implementation must reproduce the heap's pop
// sequence exactly -- (time, seq & ~kDaemonBit) order -- for any input.

namespace {

Event make_event(Time t, std::uint64_t seq, bool daemon) {
  Event e;
  e.time = t;
  e.seq = seq | (daemon ? kDaemonBit : 0);
  e.fiber = nullptr;
  e.cb = nullptr;
  return e;
}

// Pops everything from both queues, asserting identical sequences.
void expect_same_drain(EventQueue& ladder, EventQueue& heap) {
  ASSERT_EQ(ladder.size(), heap.size());
  Time prev_time = 0;
  while (!heap.empty()) {
    const Event a = ladder.pop();
    const Event b = heap.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_GE(a.time, prev_time);
    prev_time = a.time;
  }
  EXPECT_TRUE(ladder.empty());
}

}  // namespace

TEST(EventQueue, GoldenSequenceVsHeapWithTies) {
  // Heavy same-timestamp ties (bursts at identical times), mixed daemon
  // bits. The daemon bit must not perturb ordering.
  EventQueue ladder(EventQueue::Impl::ladder);
  EventQueue heap(EventQueue::Impl::heap);
  Rng rng(7);
  std::uint64_t seq = 1;
  for (int i = 0; i < 5000; ++i) {
    const Time t = milliseconds(rng.below(40));  // ~125 events per timestamp
    const bool daemon = rng.below(2) == 0;
    const Event e = make_event(t, seq++, daemon);
    ladder.push(e);
    heap.push(e);
  }
  expect_same_drain(ladder, heap);
}

TEST(EventQueue, InterleavedPushPopSkewedTimestamps) {
  // Mimics the simulation's access pattern: pop the minimum, then push a few
  // events at skewed offsets from it (including same-time pushes that land
  // below the ladder's bottom boundary).
  EventQueue ladder(EventQueue::Impl::ladder);
  EventQueue heap(EventQueue::Impl::heap);
  Rng rng(11);
  std::uint64_t seq = 1;
  for (int i = 0; i < 256; ++i) {
    const Event e = make_event(microseconds(rng.below(1000)), seq++,
                               rng.below(4) == 0);
    ladder.push(e);
    heap.push(e);
  }
  for (int round = 0; round < 4000; ++round) {
    ASSERT_EQ(ladder.min_time(), heap.min_time());
    const Event a = ladder.pop();
    const Event b = heap.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    const int fanout = static_cast<int>(rng.below(3));
    for (int f = 0; f < fanout; ++f) {
      // 0 offset (immediate re-delivery), short, or heavy-tailed far offset.
      Duration d = 0;
      switch (rng.below(4)) {
        case 0: d = 0; break;
        case 1: d = rng.below(50); break;
        case 2: d = microseconds(rng.below(200)); break;
        default: d = seconds(1 + rng.below(3600)); break;
      }
      const Event e = make_event(a.time + d, seq++, rng.below(4) == 0);
      ladder.push(e);
      heap.push(e);
    }
  }
  expect_same_drain(ladder, heap);
}

TEST(EventQueue, FarFutureEventsSpanLadderEpochs) {
  // Each batch sits orders of magnitude beyond the last, forcing repeated
  // top-region transfers (epochs) and rung subdivision while earlier batches
  // drain. Also verifies the resize/transfer statistics move.
  EventQueue ladder(EventQueue::Impl::ladder);
  EventQueue heap(EventQueue::Impl::heap);
  Rng rng(13);
  std::uint64_t seq = 1;
  Time base = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 400; ++i) {
      const Event e =
          make_event(base + rng.below(seconds(1)), seq++, rng.below(2) == 0);
      ladder.push(e);
      heap.push(e);
    }
    // Drain half before the next far-future batch arrives.
    for (int i = 0; i < 200; ++i) {
      const Event a = ladder.pop();
      const Event b = heap.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
    }
    base += seconds(3600) * (Duration{1} << (4 * epoch));
  }
  expect_same_drain(ladder, heap);
  EXPECT_GT(ladder.stats().top_transfers, 1u);
  EXPECT_GT(ladder.stats().peak_depth, 0u);
}

TEST(EventQueue, MillionPendingHighOccupancy) {
  // The tentpole's scaling claim in miniature: 10^5 pending events with a
  // skewed distribution drain in exact order and spawn finer rungs.
  EventQueue ladder(EventQueue::Impl::ladder);
  EventQueue heap(EventQueue::Impl::heap);
  Rng rng(17);
  std::uint64_t seq = 1;
  for (int i = 0; i < 100000; ++i) {
    Time t;
    if (rng.below(100) < 70) {
      t = rng.below(seconds(1));
    } else if (rng.below(10) < 9) {
      t = seconds(1) + rng.below(seconds(600));
    } else {
      t = milliseconds(rng.below(2000));  // dense tie clusters
    }
    const Event e = make_event(t, seq++, rng.below(2) == 0);
    ladder.push(e);
    heap.push(e);
  }
  EXPECT_EQ(ladder.stats().peak_depth, 100000u);
  expect_same_drain(ladder, heap);
  EXPECT_GT(ladder.stats().rung_spawns, 0u);
}

TEST(Simulation, DaemonEventsDrainedAtShutdown) {
  // Far-future daemon callbacks (never fired) own callback state in the
  // queue; destroying the Simulation must release it for both queue
  // implementations (run under ASan in CI). Includes oversized captures
  // that take the std::function fallback path.
  for (QueueImpl impl : {QueueImpl::ladder, QueueImpl::heap}) {
    SimConfig cfg;
    cfg.queue_impl = impl;
    auto shared = std::make_shared<int>(7);
    {
      Simulation sim(cfg);
      sim.spawn("setup", [&] {
        for (int i = 0; i < 300; ++i) {
          std::array<char, 200> big{};  // > CallbackNode inline storage
          sim.schedule_after(
              seconds(7200 + static_cast<Duration>(i)),
              [shared, big] { (void)big; },
              /*daemon=*/true);
        }
      });
      sim.run();  // daemon events remain pending at shutdown
    }
    EXPECT_EQ(shared.use_count(), 1);
  }
}

TEST(Simulation, LadderAndHeapTimelinesMatch) {
  // Same workload under both queue implementations: identical event counts
  // and final clocks.
  std::array<std::uint64_t, 2> events{};
  std::array<Time, 2> final_time{};
  int slot = 0;
  for (QueueImpl impl : {QueueImpl::ladder, QueueImpl::heap}) {
    SimConfig cfg;
    cfg.queue_impl = impl;
    Simulation sim(cfg);
    Mutex m(sim);
    CondVar cv(sim);
    int stage = 0;
    for (int i = 0; i < 16; ++i) {
      sim.spawn("w" + std::to_string(i), [&, i] {
        sim.sleep_for(microseconds(static_cast<Duration>(i) * 37 % 11));
        LockGuard g(m);
        cv.wait(m, [&] { return stage >= i; });
        ++stage;
        cv.notify_all();
        sim.sleep_for(milliseconds(1));
      });
    }
    sim.run();
    events[static_cast<std::size_t>(slot)] = sim.events_processed();
    final_time[static_cast<std::size_t>(slot)] = sim.now();
    ++slot;
  }
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(final_time[0], final_time[1]);
}

TEST(Simulation, ScheduleAfterOverflowingDurationClamps) {
  // A "negative"/overflowing Duration must not schedule in the past. In
  // release builds the sum saturates to the end of virtual time; in debug
  // builds the assert trips first.
  const Duration overflowing = kTimeInfinity - milliseconds(1);
#ifdef NDEBUG
  Simulation sim;
  Time fired_at = 0;
  sim.spawn("f", [&] {
    sim.sleep_for(seconds(1));  // now + overflowing would wrap
    sim.schedule_after(overflowing, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, kTimeInfinity);  // clamped, never before now
#else
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.spawn("f", [&] {
          sim.sleep_for(seconds(1));
          sim.schedule_after(overflowing, [] {});
        });
        sim.run();
      },
      "overflows virtual time");
#endif
}

// ------------------------------------------------------------ parallel_pure

TEST(Parallel, RunsEveryIndexExactlyOnce) {
  const std::size_t w = parallel_width();
  ASSERT_GE(w, 1u);
  ASSERT_LE(w, 8u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, w - 1, w, 10 * w}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_pure(n, [&](std::size_t i) {
      runs[i].fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "n " << n << ", index " << i;
  }
}

// A serial loop stops at its first throw; parallel_pure rethrows that same
// exception, and only once no task is still running.
TEST(Parallel, RethrowsTheLowestIndexAfterEveryTaskStopped) {
  const std::size_t n = 4 * parallel_width() + 3;
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  struct Running {
    std::atomic<int>& running;
    std::atomic<int>& finished;
    ~Running() {
      --running;
      ++finished;
    }
  };
  try {
    parallel_pure(n, [&](std::size_t i) {
      ++running;
      const Running guard{running, finished};
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (i % 3 == 2) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
    EXPECT_EQ(running.load(), 0);
    EXPECT_GE(finished.load(), 3);
  }
}

TEST(Parallel, NestedCallRunsInline) {
  const std::size_t n = 2 * parallel_width();
  std::atomic<int> inner_runs{0};
  std::atomic<int> off_thread{0};
  parallel_pure(n, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_pure(4, [&](std::size_t) {
      ++inner_runs;
      if (std::this_thread::get_id() != outer) ++off_thread;
    });
  });
  EXPECT_EQ(inner_runs.load(), static_cast<int>(4 * n));
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(Parallel, HelpersSeeNoSimulation) {
  Simulation sim;
  std::mutex mu;
  std::vector<std::pair<std::thread::id, Simulation*>> seen;
  std::thread::id caller;
  sim.spawn("f", [&] {
    caller = std::this_thread::get_id();
    parallel_pure(8 * parallel_width(), [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(std::this_thread::get_id(), Simulation::current());
    });
  });
  sim.run();
  ASSERT_EQ(seen.size(), 8 * parallel_width());
  for (const auto& [thread, current] : seen) {
    if (thread != caller) {
      EXPECT_EQ(current, nullptr);
    }
  }
}

// CPU time of the calling thread.
Duration thread_cpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Duration>(ts.tv_sec) * 1000000000ULL +
         static_cast<Duration>(ts.tv_nsec);
}

// Under wall-clock charging a region costs its tasks' summed host time, as
// if they had run one after another; a fixed charge stays exactly that.
TEST(Parallel, RegionChargesItsSerialHostTime) {
  for (const Duration fixed : {Duration{0}, milliseconds(1)}) {
    Simulation sim(SimConfig{.fixed_scoped_charge = fixed});
    Duration charged = 0;
    sim.spawn("f", [&] {
      const Time t0 = sim.now();
      sim.charge_scoped([&] {
        parallel_pure(4, [&](std::size_t) {
          // 2 ms of CPU each, whichever threads run them.
          const Duration start = thread_cpu();
          while (thread_cpu() - start < milliseconds(2)) {
          }
        });
      });
      charged = sim.now() - t0;
    });
    sim.run();
    if (fixed == 0) {
      EXPECT_GE(charged, 4 * milliseconds(2));
    } else {
      EXPECT_EQ(charged, fixed);
    }
  }
}

}  // namespace
}  // namespace colza::des
