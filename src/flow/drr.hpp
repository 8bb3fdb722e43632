// Deficit round-robin (DRR) weighted fair queue over tenants.
//
// Classic Shreedhar/Varghese DRR: each backlogged tenant holds a deficit
// counter; a visit tops it up by quantum * weight, and the tenant may serve
// queued items while their byte cost fits the deficit. Per-byte fairness
// therefore converges to the weight ratio regardless of item sizes, and a
// tenant that goes idle forfeits its deficit (no saving up credit while
// asleep). All state is plain containers mutated from DES fibers, so the
// service order is a pure function of the push/pop sequence — deterministic
// by construction.
//
// The queue itself knows nothing about budgets or flow control; the caller
// passes `fits` (can this many bytes be granted right now?) and `canceled`
// (has this waiter given up?) predicates into pop(). When the fair-next item
// does not fit, pop() returns nullopt *without* consuming its deficit: the
// item stays at the head and is re-offered on the next pop, i.e. a large
// request head-of-line blocks its own grant but is never starved by smaller
// requests sneaking past it.
//
// Tenants are addressed by dense ids: tenant(name) resolves a name once, and
// every other call takes the id, so push() and pop() never compare strings.
// Ids never affect service order; the ring orders tenants by when they
// became backlogged.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace colza::flow {

// The weighted fair share of `total` owed to a tenant with `weight` out of
// `weight_sum` — floor division, so shares never sum above the total. Used
// by the DRR grant queue's callers and by sched::Scheduler's opt-in
// fair-share grow cap.
[[nodiscard]] constexpr std::uint64_t fair_share(
    std::uint64_t total, std::uint64_t weight,
    std::uint64_t weight_sum) noexcept {
  if (weight_sum == 0) return total;
  return total * weight / weight_sum;
}

template <typename Item>
class DrrQueue {
 public:
  using TenantId = std::uint32_t;

  explicit DrrQueue(std::uint64_t quantum_bytes) : quantum_(quantum_bytes) {}

  // The id of `name`, creating the tenant (weight 1) on first use. Ids are
  // dense, in creation order, and stable for the queue's lifetime.
  TenantId tenant(const std::string& name) {
    auto [it, created] =
        ids_.try_emplace(name, static_cast<TenantId>(tenants_.size()));
    if (created) tenants_.emplace_back();
    return it->second;
  }

  // Weights persist across idle periods (an empty tenant keeps its weight,
  // not its deficit). Weight 0 *pauses* the tenant: its items stay queued
  // but pop() skips over them until the weight is raised again -- the knob
  // behind "freeze this quality class" style controls. Callers that must
  // guarantee progress for every tenant (the server's stage-grant queue)
  // clamp to >= 1 themselves.
  void set_weight(TenantId tenant, std::uint32_t w) {
    tenants_[tenant].weight = w;
  }

  void push(TenantId tenant, Item item, std::uint64_t cost) {
    Tenant& t = tenants_[tenant];
    if (t.q.empty()) ring_.push_back(tenant);  // newly backlogged
    t.q.push_back(Entry{std::move(item), cost});
    queued_bytes_ += cost;
    ++queued_items_;
  }

  // The next item in weighted-fair order, or nullopt when the queue is
  // drained or the fair-next item does not fit the caller's budget.
  template <typename FitsFn, typename CanceledFn>
  std::optional<Item> pop(FitsFn&& fits, CanceledFn&& canceled) {
    // Counts consecutive paused tenants skipped without serving anything:
    // once it spans the whole ring, every backlogged tenant is paused and
    // the queue is (for now) unservable. Reset whenever the ring shrinks or
    // an unpaused tenant is reached, so a mixed ring still terminates.
    std::size_t paused_streak = 0;
    while (!ring_.empty()) {
      Tenant& t = tenants_[ring_[cursor_]];
      while (!t.q.empty() && canceled(t.q.front().item)) {
        drop_front(t);
      }
      if (t.q.empty()) {
        retire_current(t);
        paused_streak = 0;
        continue;
      }
      if (t.weight == 0) {
        // Paused: forfeit any banked deficit (symmetric with going idle)
        // and move on without a top-up; the backlog waits in place.
        t.deficit = 0;
        if (++paused_streak >= ring_.size()) return std::nullopt;
        cursor_ = (cursor_ + 1) % ring_.size();
        fresh_visit_ = true;
        continue;
      }
      paused_streak = 0;
      // One top-up at the start of each visit; the tenant then serves items
      // against that deficit across pops until it runs dry, at which point
      // the cursor moves on (the next round tops it up again). The deficit
      // grows by quantum * weight per round, so progress is guaranteed and
      // per-byte service converges to the weight ratio.
      if (fresh_visit_) {
        t.deficit += quantum_ * t.weight;
        fresh_visit_ = false;
      }
      if (t.deficit >= t.q.front().cost) {
        if (!fits(t.q.front().cost)) return std::nullopt;  // budget HOL wait
        t.deficit -= t.q.front().cost;
        Item item = std::move(t.q.front().item);
        drop_front(t);
        if (t.q.empty()) retire_current(t);
        return item;
      }
      cursor_ = (cursor_ + 1) % ring_.size();
      fresh_visit_ = true;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool empty() const noexcept { return queued_items_ == 0; }
  [[nodiscard]] std::uint64_t queued_items() const noexcept {
    return queued_items_;
  }
  [[nodiscard]] std::uint64_t queued_bytes() const noexcept {
    return queued_bytes_;
  }

 private:
  struct Entry {
    Item item;
    std::uint64_t cost;
  };
  struct Tenant {
    std::deque<Entry> q;
    std::uint32_t weight = 1;
    std::uint64_t deficit = 0;
  };

  void drop_front(Tenant& t) {
    queued_bytes_ -= t.q.front().cost;
    --queued_items_;
    t.q.pop_front();
  }

  // The tenant under the cursor went idle: it forfeits its deficit and
  // leaves the round-robin ring until it becomes backlogged again.
  void retire_current(Tenant& t) {
    t.deficit = 0;
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    if (cursor_ >= ring_.size()) cursor_ = 0;
    fresh_visit_ = true;
  }

  std::uint64_t quantum_;
  std::map<std::string, TenantId> ids_;
  std::vector<Tenant> tenants_;  // by id
  std::vector<TenantId> ring_;   // backlogged tenants, round-robin order
  std::size_t cursor_ = 0;
  bool fresh_visit_ = true;  // current cursor tenant not yet topped up
  std::uint64_t queued_bytes_ = 0;
  std::uint64_t queued_items_ = 0;
};

}  // namespace colza::flow
