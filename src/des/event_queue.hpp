// The pending-event store for the DES core: a ladder queue with an exact
// min-heap "bottom".
//
// Why not just a heap? Every message, timer, SWIM ping and flow-credit
// grant funnels through this structure, and a binary heap pays O(log N)
// compares *and* O(log N) 32-byte moves per operation. At 512-4096 simulated
// procs the pending population reaches 10^3..10^6 events and the heap's sift
// chains dominate the scheduler's host-time profile.
//
// Structure (classic ladder/calendar queue, adapted for exact ordering):
//
//   bottom   min-heap (EventOrder) of the imminent events. Every event with
//            time < bottom_limit_ lives here, so the global minimum is always
//            bottom's root and dequeue is a plain heap pop over a *small*
//            population (one bucket's worth, <= ~kSortThreshold).
//   rungs    a stack of progressively finer bucket arrays. rungs_.back() is
//            the finest. Each rung covers [start, end) split into kBuckets
//            buckets of `width` ns; events are appended to their bucket in
//            O(1), unsorted. Draining takes the next non-empty bucket: small
//            buckets heapify into bottom, big buckets spawn a finer rung
//            (width / kBuckets) -- recursion bounded by log64(span).
//   top      unsorted overflow for the far future (time >= top_start_).
//            When the rungs run dry the whole top is re-bucketed into a
//            fresh rung sized to its observed [min, max] span ("epoch").
//
// Ordering is EXACTLY EventOrder's -- (time, then seq & ~kDaemonBit) --
// because every deliverable event reaches the bottom heap before being
// popped; buckets only ever partition by time range, never reorder within
// one. A same-timestamp burst lands in one bucket and the bottom heap breaks
// the tie by sequence number (des_test holds the queue to a
// std::priority_queue's pop sequence).
//
// Invariant chain (what makes O(1) sound):
//   * all events in bottom have time <  bottom_limit_
//   * all events in rungs/top have time >= bottom_limit_
//   * child rung coverage nests inside the parent bucket it was spawned
//     from, and the parent's `next` cursor has already passed that bucket,
//     so an arriving event always belongs to the *finest* rung that covers
//     its timestamp (walk back-to-front, first hit wins).
//   * retiring an exhausted rung raises bottom_limit_ to its coverage end,
//     so late arrivals for the retired range route to bottom, never into a
//     bucket the cursor already passed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "des/time.hpp"

namespace colza::des {

class Fiber;

// Type-erased scheduler callback. Callables whose captures fit the inline
// storage are constructed in place; nodes are recycled through a freelist
// so a steady-state message flood allocates nothing per event.
struct CallbackNode {
  static constexpr std::size_t kInlineSize = 128;
  alignas(std::max_align_t) unsigned char storage[kInlineSize];
  void (*invoke)(CallbackNode&) = nullptr;
  void (*destroy)(CallbackNode&) = nullptr;
  std::function<void()> big;  // fallback for oversized callables
  CallbackNode* next = nullptr;
};

// 32 bytes and trivially copyable: the queue moves Events constantly
// (heap sifts, bucket spills), so keeping them POD (daemon flag packed into
// the sequence number's top bit, callback state behind a pooled pointer) is
// a large share of the event-loop speedup.
struct Event {
  Time time = 0;
  std::uint64_t seq = 0;   // bit 63 carries the daemon flag
  Fiber* fiber = nullptr;  // non-null: resume this fiber...
  union {
    std::uint64_t fiber_id;  // guards against stale fiber pointers
    CallbackNode* cb;        // ...null fiber: run this callback
  };
};

inline constexpr std::uint64_t kDaemonBit = 1ULL << 63;

struct EventOrder {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return (a.seq & ~kDaemonBit) > (b.seq & ~kDaemonBit);
  }
};

struct EventQueueStats {
  std::uint64_t peak_depth = 0;     // high-water pending-event count
  std::uint64_t rung_spawns = 0;    // finer rungs created (ladder resizes)
  std::uint64_t top_transfers = 0;  // far-future epochs re-bucketed
};

class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const EventQueueStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t rungs_active() const noexcept {
    return rungs_.size();
  }

  void push(const Event& e) {
    ++size_;
    if (size_ > stats_.peak_depth) stats_.peak_depth = size_;
    if (e.time < bottom_limit_) {
      bottom_.push_back(e);
      std::push_heap(bottom_.begin(), bottom_.end(), EventOrder{});
      return;
    }
    if (e.time >= top_start_) {
      top_.push_back(e);
      if (e.time < top_min_) top_min_ = e.time;
      if (e.time > top_max_) top_max_ = e.time;
      return;
    }
    // Finest rung that covers the timestamp wins (see invariant chain).
    for (std::size_t i = rungs_.size(); i-- > 0;) {
      Rung& r = rungs_[i];
      if (e.time < r.end) {
        assert(e.time >= r.start);
        const auto idx = static_cast<std::size_t>((e.time - r.start) / r.width);
        assert(idx < kBuckets && idx >= r.next);
        r.buckets[idx].push_back(e);
        ++r.count;
        return;
      }
    }
    assert(false && "event in [bottom_limit_, top_start_) missed all rungs");
    top_.push_back(e);  // keep the event reachable even if the assert is off
    if (e.time < top_min_) top_min_ = e.time;
    if (e.time > top_max_) top_max_ = e.time;
  }

  // Pop the earliest event in (time, seq) order. Requires !empty().
  Event pop() {
    assert(size_ > 0);
    if (bottom_.empty()) refill_bottom();
    std::pop_heap(bottom_.begin(), bottom_.end(), EventOrder{});
    const Event e = bottom_.back();
    bottom_.pop_back();
    --size_;
    return e;
  }

  // Timestamp of the earliest pending event. Requires !empty(). May migrate
  // a bucket into the bottom heap, but never changes ordering.
  [[nodiscard]] Time min_time() {
    assert(size_ > 0);
    if (bottom_.empty()) refill_bottom();
    return bottom_.front().time;
  }

  // Visit and remove every pending event in unspecified order (destructor
  // cleanup of unfired callback state).
  template <typename F>
  void drain(F&& f) {
    for (Event& e : bottom_) f(e);
    bottom_.clear();
    for (Rung& r : rungs_)
      for (auto& b : r.buckets) {
        for (Event& e : b) f(e);
        b.clear();
      }
    rungs_.clear();
    for (Event& e : top_) f(e);
    top_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kBuckets = 64;
  // Buckets at or below this size skip subdivision and heapify straight into
  // bottom; a top this small skips the rung stage entirely.
  static constexpr std::size_t kSortThreshold = 64;
  static constexpr std::size_t kMaxSpareRungs = 8;

  struct Rung {
    Time start = 0;     // inclusive
    Time end = 0;       // exclusive; nests inside the parent bucket
    Duration width = 1; // bucket span in ns; >= 1
    std::size_t next = 0;   // first bucket not yet drained
    std::size_t count = 0;  // events across buckets[next..]
    std::vector<std::vector<Event>> buckets;
  };

  static Time sat_inc(Time t) noexcept {
    return t == kTimeInfinity ? t : t + 1;
  }

  Rung take_spare() {
    if (!spare_rungs_.empty()) {
      Rung r = std::move(spare_rungs_.back());
      spare_rungs_.pop_back();
      return r;
    }
    Rung r;
    r.buckets.resize(kBuckets);
    return r;
  }

  // Retire rungs_.back() (which must be empty), keeping its bucket storage.
  void retire_finest() {
    Rung r = std::move(rungs_.back());
    rungs_.pop_back();
    if (spare_rungs_.size() < kMaxSpareRungs) {
      r.next = 0;
      r.count = 0;
      for (auto& b : r.buckets) b.clear();
      spare_rungs_.push_back(std::move(r));
    }
  }

  // Bucket `src` (covering [start, end), end > start) becomes a new finest
  // rung. Exact ceil for the width, computed without overflow.
  void spawn_rung(std::vector<Event>& src, Time start, Time end) {
    Rung r = take_spare();
    r.start = start;
    r.end = end;
    const Duration span = end - start;
    r.width = span / kBuckets + (span % kBuckets != 0 ? 1 : 0);
    if (r.width == 0) r.width = 1;
    r.next = 0;
    r.count = src.size();
    for (const Event& e : src) {
      const auto idx = static_cast<std::size_t>((e.time - r.start) / r.width);
      assert(idx < kBuckets);
      r.buckets[idx].push_back(e);
    }
    src.clear();
    rungs_.push_back(std::move(r));
  }

  // Precondition: bottom_.empty() && size_ > 0. Postcondition: bottom_ holds
  // the next run of imminent events as a heap, bottom_limit_ bounds them.
  void refill_bottom() {
    for (;;) {
      if (!rungs_.empty()) {
        Rung& r = rungs_.back();
        if (r.count == 0) {
          bottom_limit_ = r.end;  // late arrivals for this range go to bottom
          retire_finest();
          continue;
        }
        while (r.buckets[r.next].empty()) {
          ++r.next;
          assert(r.next < kBuckets);
        }
        std::vector<Event>& b = r.buckets[r.next];
        const Time b_start =
            r.start + static_cast<Duration>(r.next) * r.width;
        // b_start never wraps for a non-empty bucket (it lower-bounds a real
        // timestamp), but b_start + width can when the rung abuts infinity.
        const Time b_end_raw = b_start + r.width;
        const Time b_end =
            b_end_raw < b_start ? r.end : std::min(b_end_raw, r.end);
        ++r.next;
        r.count -= b.size();
        if (b.size() > kSortThreshold && r.width > 1) {
          ++stats_.rung_spawns;
          spawn_rung(b, b_start, b_end);  // invalidates r
          continue;
        }
        bottom_.swap(b);  // b keeps bottom_'s old (empty) storage
        std::make_heap(bottom_.begin(), bottom_.end(), EventOrder{});
        bottom_limit_ = b_end;
        return;
      }
      assert(!top_.empty());
      ++stats_.top_transfers;
      if (top_.size() <= kSortThreshold) {
        bottom_.swap(top_);
        std::make_heap(bottom_.begin(), bottom_.end(), EventOrder{});
        bottom_limit_ = sat_inc(top_max_);
        top_start_ = bottom_limit_;
        top_min_ = kTimeInfinity;
        top_max_ = 0;
        return;
      }
      const Time start = top_min_;
      const Time end = sat_inc(top_max_);
      top_start_ = end;
      top_min_ = kTimeInfinity;
      top_max_ = 0;
      spawn_rung(top_, start, end);
    }
  }

  std::size_t size_ = 0;
  EventQueueStats stats_;
  std::vector<Event> bottom_;  // min-heap via EventOrder
  Time bottom_limit_ = 0;      // exclusive upper bound of bottom coverage
  std::vector<Rung> rungs_;    // front = coarsest, back = finest
  std::vector<Rung> spare_rungs_;
  std::vector<Event> top_;     // unsorted far future
  Time top_start_ = 0;         // events >= this go to top
  Time top_min_ = kTimeInfinity;
  Time top_max_ = 0;
};

}  // namespace colza::des
