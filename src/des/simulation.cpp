#include "des/simulation.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "common/log.hpp"

// COLZA_ASAN_FIBERS (see fiber.hpp): every context switch below brackets
// the swap with __sanitizer_start_switch_fiber / finish_switch_fiber so
// ASan always knows which stack is live. Recycled stacks additionally get
// their shadow scrubbed in drain_reap: a finished fiber's last frames
// (trampoline + fiber_finished) never run their epilogues -- fiber_finished
// context-switches away for good -- so their redzone poison would otherwise
// survive near the stack top, exactly where the next boot frame is written.
#if defined(COLZA_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace colza::des {

namespace {
// The fiber currently being started needs a way to find its Fiber object from
// the entry trampoline (which takes no usable 64-bit argument portably).
// The DES is single-OS-thread, so a file-local "starting fiber" slot works.
Fiber* g_starting_fiber = nullptr;
// Per OS thread: a parallel_pure helper (des/parallel.hpp) sees no simulation.
thread_local Simulation* g_current_sim = nullptr;
}  // namespace

#if COLZA_FAST_CONTEXT

// Minimal System V x86-64 context switch: saves the six callee-saved
// registers and the stack pointer, loads the target's, and returns on the
// target stack. No signal-mask syscall, unlike swapcontext().
extern "C" void colza_ctx_switch(void** save_sp, void* load_sp);
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl colza_ctx_switch\n"
    ".type colza_ctx_switch,@function\n"
    "colza_ctx_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size colza_ctx_switch,.-colza_ctx_switch\n");

#endif  // COLZA_FAST_CONTEXT

// ---------------------------------------------------------------------------
// Fiber

Fiber::Fiber(Simulation* sim, std::uint64_t id, std::string name,
             std::function<void()> body, std::unique_ptr<char[]> stack,
             std::size_t stack_size, bool daemon, std::uint64_t tag)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(std::move(stack)),
      stack_size_(stack_size),
      daemon_(daemon),
      tag_(tag) {}

Fiber::~Fiber() = default;

#if defined(COLZA_ASAN_FIBERS)
void Simulation::asan_on_fiber_entry() noexcept {
  __sanitizer_finish_switch_fiber(nullptr, &asan_sched_bottom_,
                                  &asan_sched_size_);
}
#endif

void Fiber::trampoline() {
  Fiber* self = g_starting_fiber;
  g_starting_fiber = nullptr;
#if defined(COLZA_ASAN_FIBERS)
  // First entry on this stack: no fake-stack state to restore; capture the
  // scheduler stack's bounds for the switches back.
  self->sim_->asan_on_fiber_entry();
#endif
  try {
    self->body_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->sim_->fiber_finished(self);
  // fiber_finished swaps back to the scheduler and never returns here.
}

// ---------------------------------------------------------------------------
// Simulation

namespace {
EventQueue::Impl resolve_queue_impl(QueueImpl q) {
  if (q == QueueImpl::heap) return EventQueue::Impl::heap;
  if (q == QueueImpl::ladder) return EventQueue::Impl::ladder;
  const char* env = std::getenv("COLZA_DES_QUEUE");
  if (env != nullptr && std::strcmp(env, "heap") == 0)
    return EventQueue::Impl::heap;
  return EventQueue::Impl::ladder;
}
}  // namespace

Simulation::Simulation(SimConfig config)
    : config_(config),
      rng_(config.seed),
      queue_(resolve_queue_impl(config.queue_impl)) {}

Simulation::~Simulation() {
  // Destroy callback state still sitting in the queue, then the freelist.
  queue_.drain([](Event& ev) {
    if (ev.fiber == nullptr && ev.cb != nullptr) {
      ev.cb->destroy(*ev.cb);
      delete ev.cb;
    }
  });
  while (free_nodes_ != nullptr) {
    CallbackNode* n = free_nodes_;
    free_nodes_ = n->next;
    delete n;
  }
}

bool Simulation::current_daemon() const noexcept {
  return current_ != nullptr && current_->daemon();
}

CallbackNode* Simulation::acquire_node() {
  if (free_nodes_ != nullptr) {
    CallbackNode* n = free_nodes_;
    free_nodes_ = n->next;
    n->next = nullptr;
    return n;
  }
  return new CallbackNode;
}

void Simulation::release_node(CallbackNode* n) noexcept {
  n->invoke = nullptr;
  n->destroy = nullptr;
  n->next = free_nodes_;
  free_nodes_ = n;
}

void Simulation::push_callback_event(Time t, bool daemon, CallbackNode* n) {
  if (!daemon) ++nondaemon_events_;
  Event ev;
  ev.time = t;
  ev.seq = next_seq_++ | (daemon ? kDaemonBit : 0);
  ev.fiber = nullptr;
  ev.cb = n;
  queue_.push(ev);
}

Simulation* Simulation::current() noexcept { return g_current_sim; }

std::uint64_t Simulation::wall_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t Simulation::current_tag() const noexcept {
  return current_ != nullptr ? current_->tag() : 0;
}

std::uint64_t Simulation::current_fiber_id() const noexcept {
  return current_ != nullptr ? current_->id() : 0;
}

FiberHandle Simulation::spawn(std::string name, std::function<void()> body,
                              SpawnOptions opts) {
  bool daemon = opts.daemon;
  if (!daemon && opts.inherit_daemon && current_ != nullptr)
    daemon = current_->daemon();
  std::uint64_t tag = opts.tag;
  if (tag == 0 && current_ != nullptr) tag = current_->tag();
  const std::size_t stack =
      opts.stack_size != 0 ? opts.stack_size : config_.default_stack_size;

  std::unique_ptr<char[]> stack_mem;
  if (stack == config_.default_stack_size && !stack_pool_.empty()) {
    stack_mem = std::move(stack_pool_.back());
    stack_pool_.pop_back();
  } else {
    stack_mem.reset(new char[stack]);
  }
  const std::uint64_t id = next_fiber_id_++;
  auto fiber =
      std::make_unique<Fiber>(this, id, std::move(name), std::move(body),
                              std::move(stack_mem), stack, daemon, tag);
  Fiber* raw = fiber.get();
  fibers_.push_back(std::move(fiber));  // slot id - 1 == old fibers_.size()
  ++live_fibers_;
  if (!daemon) ++nondaemon_fibers_;
  schedule_resume(raw, now_);
  return FiberHandle(id);
}

bool Simulation::finished(FiberHandle h) const noexcept {
  return fiber_at(h.id()) == nullptr;
}

void Simulation::join(FiberHandle h) {
  if (current_ == nullptr)
    throw std::logic_error("join() must be called from a fiber");
  Fiber* f = fiber_at(h.id());
  if (f == nullptr) return;  // already finished and reclaimed
  f->joiners_.push_back(current_->id());
  block_current();
}

void Simulation::schedule_resume(Fiber* f, Time t) {
  f->state_ = FiberState::ready;
  // Resume events carry the fiber's own daemon-ness.
  if (!f->daemon()) ++nondaemon_events_;
  Event ev;
  ev.time = t;
  ev.seq = next_seq_++ | (f->daemon() ? kDaemonBit : 0);
  ev.fiber = f;
  ev.fiber_id = f->id();
  queue_.push(ev);
}

void Simulation::block_current() {
  if (current_ == nullptr)
    throw std::logic_error("block_current() must be called from a fiber");
  Fiber* self = current_;
  ++self->wake_epoch_;
  self->timed_out_ = false;
  self->state_ = FiberState::blocked;
  current_ = nullptr;
#if defined(COLZA_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, asan_sched_bottom_,
                                 asan_sched_size_);
#endif
#if COLZA_FAST_CONTEXT
  colza_ctx_switch(&self->sp_, scheduler_sp_);
#else
  swapcontext(&self->context_, &scheduler_context_);
#endif
#if defined(COLZA_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  // resumed
  current_ = self;
  self->state_ = FiberState::running;
}

bool Simulation::block_current_for(Duration timeout) {
  if (current_ == nullptr)
    throw std::logic_error("block_current_for() must be called from a fiber");
  Fiber* self = current_;
  const std::uint64_t id = self->id();
  const std::uint64_t epoch = self->wake_epoch_ + 1;  // epoch of this block
  // Timeout timers are always daemon: the blocked fiber itself (if
  // non-daemon) is what keeps the simulation alive.
  schedule_after(
      timeout,
      [this, id, epoch] {
        Fiber* f = fiber_at(id);
        if (f == nullptr) return;
        if (f->state() != FiberState::blocked || f->wake_epoch_ != epoch)
          return;  // already woken (and possibly re-blocked) -- stale timer
        f->timed_out_ = true;
        schedule_resume(f, now_);
      },
      /*daemon=*/true);
  block_current();
  return self->timed_out_;
}

void Simulation::sleep_until(Time t) {
  if (current_ == nullptr)
    throw std::logic_error("sleep must be called from a fiber");
  if (t < now_) t = now_;
  schedule_resume(current_, t);
  // schedule_resume set state to ready; block without re-registering.
  Fiber* self = current_;
  self->state_ = FiberState::ready;
  current_ = nullptr;
#if defined(COLZA_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, asan_sched_bottom_,
                                 asan_sched_size_);
#endif
#if COLZA_FAST_CONTEXT
  colza_ctx_switch(&self->sp_, scheduler_sp_);
#else
  swapcontext(&self->context_, &scheduler_context_);
#endif
#if defined(COLZA_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  current_ = self;
  self->state_ = FiberState::running;
}

void Simulation::sleep_for(Duration d) { sleep_until(saturating_after(d)); }

void Simulation::charge(Duration d) {
  if (charge_listener_ != nullptr && current_ != nullptr && d > 0) {
    charge_listener_(charge_ctx_, *this, current_->name().c_str(),
                     current_->tag(), current_->id(), now_, d);
  }
  sleep_for(d);
}

void Simulation::yield() { sleep_until(now_); }

void Simulation::switch_to(Fiber* f) {
  current_ = f;
  if (!f->started_) {
    f->started_ = true;
#if COLZA_FAST_CONTEXT
    // Boot frame, from the low address up: six zeroed callee-saved register
    // slots (popped by colza_ctx_switch), the trampoline as the return
    // address, and a null "caller" slot that terminates unwinding. The frame
    // base is 16-byte aligned, so after the switch's ret the trampoline sees
    // the ABI-mandated rsp % 16 == 8 entry alignment.
    auto top =
        reinterpret_cast<std::uintptr_t>(f->stack_.get() + f->stack_size_) &
        ~std::uintptr_t{15};
    auto** frame = reinterpret_cast<void**>(top) - 8;
    for (int i = 0; i < 6; ++i) frame[i] = nullptr;
    frame[6] = reinterpret_cast<void*>(&Fiber::trampoline);
    frame[7] = nullptr;
    f->sp_ = frame;
#else
    getcontext(&f->context_);
    f->context_.uc_stack.ss_sp = f->stack_.get();
    f->context_.uc_stack.ss_size = f->stack_size_;
    f->context_.uc_link = &scheduler_context_;
    makecontext(&f->context_, &Fiber::trampoline, 0);
#endif
    g_starting_fiber = f;
  }
  f->state_ = FiberState::running;
  Simulation* prev_sim = g_current_sim;
  g_current_sim = this;
#if defined(COLZA_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f->stack_.get(),
                                 f->stack_size_);
#endif
#if COLZA_FAST_CONTEXT
  colza_ctx_switch(&scheduler_sp_, f->sp_);
#else
  swapcontext(&scheduler_context_, &f->context_);
#endif
#if defined(COLZA_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  g_current_sim = prev_sim;
}

void Simulation::fiber_finished(Fiber* f) {
  f->state_ = FiberState::finished;
  if (!f->daemon()) --nondaemon_fibers_;
  if (f->error_ != nullptr && pending_error_ == nullptr)
    pending_error_ = f->error_;
  for (std::uint64_t joiner : f->joiners_) unblock_for_sync(*this, joiner);
  f->joiners_.clear();
  // Move ownership out of the live table; free after we're off this stack.
  reap_.push_back(std::move(fibers_[f->id() - 1]));
  --live_fibers_;
  current_ = nullptr;
#if defined(COLZA_ASAN_FIBERS)
  // Dying context: null fake_stack_save tells ASan to free this fiber's
  // fake-stack state instead of preserving it for a return that never comes.
  __sanitizer_start_switch_fiber(nullptr, asan_sched_bottom_,
                                 asan_sched_size_);
#endif
#if COLZA_FAST_CONTEXT
  colza_ctx_switch(&f->sp_, scheduler_sp_);
#else
  swapcontext(&f->context_, &scheduler_context_);
#endif
  // never reached
}

bool Simulation::step() {
  drain_reap();
  if (queue_.empty()) return false;
  const Event ev = queue_.pop();
  if ((ev.seq & kDaemonBit) == 0) --nondaemon_events_;
  now_ = ev.time;
  ++events_processed_;
  if (ev.fiber != nullptr) {
    // The fiber may have been woken by a sync primitive and already run (and
    // even finished) before this timer fires; only resume if it is still the
    // live fiber with this id and is ready.
    if (fiber_at(ev.fiber_id) != ev.fiber) return true;
    if (ev.fiber->state_ != FiberState::ready) return true;
    switch_to(ev.fiber);
  } else {
    CallbackNode* n = ev.cb;
    Simulation* prev_sim = g_current_sim;
    g_current_sim = this;
    n->invoke(*n);
    g_current_sim = prev_sim;
    n->destroy(*n);
    release_node(n);
  }
  if (pending_error_ != nullptr) {
    auto err = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(err);
  }
  return true;
}

void Simulation::check_deadlock() const {
  if (nondaemon_fibers_ == 0) return;
  std::string msg = "simulation deadlock: event queue empty but " +
                    std::to_string(nondaemon_fibers_) +
                    " non-daemon fiber(s) blocked:";
  // fibers_ is indexed by id, so walking it lists culprits in id order --
  // the message (and any test asserting on it) is deterministic.
  std::size_t listed = 0;
  for (const auto& f : fibers_) {
    if (f == nullptr || f->daemon() || f->state() == FiberState::finished)
      continue;
    if (listed++ == 8) {
      msg += " ...";
      break;
    }
    msg += " '" + f->name() + "'";
  }
  throw DeadlockError(msg);
}

void Simulation::drain_reap() {
  for (auto& f : reap_) {
    if (f->stack_size_ == config_.default_stack_size &&
        stack_pool_.size() < kMaxPooledStacks) {
#if defined(COLZA_ASAN_FIBERS)
      __asan_unpoison_memory_region(f->stack_.get(), f->stack_size_);
#endif
      stack_pool_.push_back(std::move(f->stack_));
    }
  }
  reap_.clear();
}

void Simulation::run() {
  while (nondaemon_fibers_ > 0 || nondaemon_events_ > 0) {
    if (!step()) {
      check_deadlock();
      break;  // only daemon work pending
    }
  }
  drain_reap();
}

void Simulation::run_until(Time horizon) {
  while (!queue_.empty() && queue_.min_time() <= horizon) {
    if (!step()) break;
  }
  if (now_ < horizon) now_ = horizon;
  drain_reap();
}

void unblock_for_sync(Simulation& sim, std::uint64_t fiber_id) {
  Fiber* f = sim.fiber_at(fiber_id);
  if (f == nullptr) return;
  if (f->state() != FiberState::blocked) return;
  sim.schedule_resume(f, sim.now());
}

}  // namespace colza::des
