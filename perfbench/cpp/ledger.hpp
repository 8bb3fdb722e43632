// Host-time ledger: splits the host wall time of a measured phase across the
// layers the benchmark calls into, from the outside.
//
// The benchmark brackets its own calls into each module (generator calls,
// client verbs, the viewer producer and publish->quiesce window) with
// HostSpan. The DES runs every fiber on one OS thread, so spans opened by
// different fibers can be open at the same time (eight bulk-qos streams each
// inside a verb); the ledger therefore attributes every host interval to
// exactly one layer -- the highest-priority layer with an open span, or
// "other" when none is open. Layers are listed in priority order: leaf
// compute (generator, producer) first, so a generator call made while a verb
// is open counts as generation, not as the verb. The attributed times plus
// "other" sum to the measured wall time by construction; balanced() reports
// whether every enter() was matched by a leave().
//
// Disabled (the untraced runs), enter()/leave() are one branch each.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "des/simulation.hpp"

namespace perfbench {

enum class Layer : int {
  gen,         // apps: block generation
  produce,     // viewer: the benchmark's frame producer
  stage,       // colza: stage phase (barrier-bounded on rank 0)
  execute,     // colza: execute verb
  activate,    // colza: activate verb (2PC)
  deactivate,  // colza: deactivate verb
  serve,       // viewer: publish -> quiesce, minus produce
  count_
};
inline constexpr int kLayers = static_cast<int>(Layer::count_);

inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Ledger {
 public:
  static Ledger& global() {
    static Ledger ledger;
    return ledger;
  }

  // Zeroes the ledger and starts attributing; `sim` is sampled for its live
  // fiber count at every span boundary.
  void start(colza::des::Simulation& sim) {
    *this = Ledger{};
    enabled_ = true;
    sim_ = &sim;
    last_ = t0_ = host_ns();
  }
  void stop() {
    if (!enabled_) return;
    advance(host_ns());
    enabled_ = false;
    sim_ = nullptr;
  }

  void enter(Layer l) {
    if (!enabled_) return;
    advance(host_ns());
    ++open_[idx(l)];
    sample_fibers();
  }
  void leave(Layer l) {
    if (!enabled_) return;
    advance(host_ns());
    if (open_[idx(l)] == 0) {
      unbalanced_ = true;
    } else {
      --open_[idx(l)];
    }
    sample_fibers();
  }

  [[nodiscard]] double ms(Layer l) const { return ns_[idx(l)] / 1e6; }
  [[nodiscard]] double other_ms() const { return other_ns_ / 1e6; }
  // Sum of every layer's time plus "other"; the traced-run self-check
  // compares it against the workload's own start-to-end wall clock.
  [[nodiscard]] double attributed_ms() const {
    double sum = other_ms();
    for (int i = 0; i < kLayers; ++i) sum += ns_[i] / 1e6;
    return sum;
  }
  [[nodiscard]] bool balanced() const {
    if (unbalanced_) return false;
    for (int n : open_) {
      if (n != 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t fibers_peak() const { return fibers_peak_; }

 private:
  static int idx(Layer l) { return static_cast<int>(l); }

  void advance(std::uint64_t now) {
    const std::uint64_t d = now - last_;
    last_ = now;
    for (int i = 0; i < kLayers; ++i) {
      if (open_[i] > 0) {
        ns_[i] += d;
        return;
      }
    }
    other_ns_ += d;
  }
  void sample_fibers() {
    if (sim_ != nullptr && sim_->live_fiber_count() > fibers_peak_)
      fibers_peak_ = sim_->live_fiber_count();
  }

  bool enabled_ = false;
  bool unbalanced_ = false;
  colza::des::Simulation* sim_ = nullptr;
  std::array<int, kLayers> open_{};
  std::array<std::uint64_t, kLayers> ns_{};
  std::uint64_t other_ns_ = 0;
  std::uint64_t t0_ = 0;
  std::uint64_t last_ = 0;
  std::size_t fibers_peak_ = 0;
};

class HostSpan {
 public:
  explicit HostSpan(Layer l) : layer_(l) { Ledger::global().enter(l); }
  ~HostSpan() { Ledger::global().leave(layer_); }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  Layer layer_;
};

}  // namespace perfbench
