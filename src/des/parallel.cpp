#include "des/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "des/simulation.hpp"

namespace colza::des {

namespace {

std::uint64_t host_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU time of the calling thread. A task's cost is measured in it, not in
// wall time: on a busy host the OS preempts some of the several threads a
// region occupies, and their wall time would charge the wait.
std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Set while this thread runs a task: a nested parallel_pure runs inline.
thread_local bool t_in_task = false;

// One parallel_pure call's shared state, on the caller's stack. The pool
// stops handing it out, and waits until no helper is inside it, before the
// caller returns.
struct Job {
  Job(std::size_t count, const std::function<void(std::size_t)>& task)
      : n(count), fn(task) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> task_ns{0};  // CPU ns spent running tasks
  std::mutex error_mu;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;  // of error_index; both guarded by error_mu

  // Claims and runs indices until none is left.
  void work() {
    const bool outer = std::exchange(t_in_task, true);
    const std::uint64_t cpu0 = thread_cpu_ns();
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        // Claims run in index order, so every lower index is already
        // claimed and will report its own throw.
        next.store(n, std::memory_order_relaxed);
      }
    }
    task_ns.fetch_add(thread_cpu_ns() - cpu0, std::memory_order_relaxed);
    t_in_task = outer;
  }
};

class Pool {
 public:
  explicit Pool(std::size_t helpers) {
    threads_.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t)
      threads_.emplace_back([this] { helper_loop(); });
  }
  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Works on `job` with every helper that wakes in time; returns once no
  // helper is inside it.
  void run(Job& job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    job.work();
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // a helper that wakes late finds nothing to join
    done_.wait(lock, [this] { return inside_ == 0; });
  }

 private:
  void helper_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      Job* job = job_;
      if (job == nullptr) continue;
      ++inside_;
      lock.unlock();
      job->work();
      lock.lock();
      if (--inside_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // a job was posted, or stop_ was set
  std::condition_variable done_;  // inside_ fell to zero
  Job* job_ = nullptr;            // the posted job; guarded by mu_
  std::uint64_t generation_ = 0;  // jobs posted so far; guarded by mu_
  std::size_t inside_ = 0;        // helpers inside job_; guarded by mu_
  bool stop_ = false;             // guarded by mu_
  std::vector<std::thread> threads_;  // last: the loops use every member
};

// One caller at a time owns the pool; a concurrent caller runs inline.
std::mutex g_pool_owner;

Pool& pool() {
  static Pool p(parallel_width() - 1);
  return p;
}

// The pool starts with the process, before main(). Creating a thread
// allocates a little from the malloc heap that lives as long as the thread
// (its TLS vector, its start state); started in the middle of a run, those
// blocks land among the run's freed memory and split it, so later large
// allocations grow the heap instead: perfbench elastic-mandelbulb's peak
// RSS rose 1.2-1.7 MiB (+6%) whether the pool first ran real tasks or
// empty ones. Started first, they sit below everything a run allocates.
// Nothing here may start a thread in a timed set-up path either: three
// thread creations cost about as much as a small deployment's whole set-up.
[[maybe_unused]] const bool g_pool_started = [] {
  if (parallel_width() > 1) (void)pool();
  return true;
}();

}  // namespace

std::size_t parallel_width() noexcept {
  static const std::size_t width =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);
  return width;
}

void parallel_pure(std::size_t n, const std::function<void(std::size_t)>& fn) {
  Job job(n, fn);
  const std::uint64_t t0 = host_ns();
  std::unique_lock<std::mutex> owner(g_pool_owner, std::defer_lock);
  if (n > 1 && !t_in_task && owner.try_lock()) {
    pool().run(job);
  } else {
    job.work();
  }
  const std::uint64_t elapsed = host_ns() - t0;
  const std::uint64_t serial = job.task_ns.load(std::memory_order_relaxed);
  if (Simulation* sim = Simulation::current();
      sim != nullptr && serial > elapsed) {
    sim->replay_host_ns(serial - elapsed);
  }
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace colza::des
