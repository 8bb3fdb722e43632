// Flow control & multi-tenant QoS (docs/flow.md): the DRR weighted fair
// queue, the client-side AIMD window (including the convergence invariant
// that elastic joins/leaves re-probe to fair shares), server-side credit
// accounting with lease expiry and load shedding, the Busy retry-after hint
// path through the client, and the chaos `shed` rule / overload_plan.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "colza/admin.hpp"
#include "colza/backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "common/archive.hpp"
#include "common/backoff.hpp"
#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "flow/aimd.hpp"
#include "flow/drr.hpp"
#include "flow/flow.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace colza {
namespace {

using des::microseconds;
using des::milliseconds;
using des::seconds;

// ---------------------------------------------------------------- fair_share

TEST(FairShare, Math) {
  EXPECT_EQ(flow::fair_share(100, 1, 4), 25u);
  EXPECT_EQ(flow::fair_share(100, 3, 4), 75u);
  EXPECT_EQ(flow::fair_share(100, 2, 3), 66u);  // floor: never sums over
  EXPECT_EQ(flow::fair_share(100, 5, 0), 100u);  // no tenants: whole pool
}

// ----------------------------------------------------------------------- DRR

// Runs a DRR case once per tenant-id layout. Each case resolves its tenants
// by name through DrrQueue::tenant() and then works on the ids. In the first
// layout ids follow the case's own first use; in the second, an unused decoy
// and the case's tenants in reverse were resolved beforehand, so ids run
// against first-use order. Service order must follow when a tenant became
// backlogged, never which id it holds.
template <typename Case>
void for_each_id_layout(std::uint64_t quantum,
                        const std::vector<std::string>& tenants, Case run) {
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "ids reversed" : "ids in first-use order");
    flow::DrrQueue<int> q(quantum);
    if (reversed) {
      q.tenant("decoy");
      for (auto it = tenants.rbegin(); it != tenants.rend(); ++it) {
        q.tenant(*it);
      }
    }
    run(q);
  }
}

TEST(Drr, WeightedServiceConvergesToRatio) {
  for_each_id_layout(/*quantum=*/1000, {"a", "b"}, [](flow::DrrQueue<int>& q) {
    const auto a = q.tenant("a");
    const auto b = q.tenant("b");
    q.set_weight(a, 3);
    q.set_weight(b, 1);
    for (int i = 0; i < 40; ++i) {
      q.push(a, 1000 + i, 1000);  // item ids 1000.. are a's
      q.push(b, 2000 + i, 1000);  // 2000.. are b's
    }
    auto always = [](std::uint64_t) { return true; };
    auto never_canceled = [](int) { return false; };
    int a_served = 0;
    int b_served = 0;
    // Over the first 24 pops the byte ratio must track the 3:1 weights
    // within one quantum of slack per tenant (Shreedhar/Varghese fairness
    // bound).
    for (int i = 0; i < 24; ++i) {
      auto item = q.pop(always, never_canceled);
      ASSERT_TRUE(item.has_value());
      (*item < 2000 ? a_served : b_served)++;
    }
    EXPECT_GE(a_served, 17);  // ideal 18
    EXPECT_LE(b_served, 7);   // ideal 6
    EXPECT_GT(b_served, 0);   // ... but never starved
  });
}

TEST(Drr, BudgetHeadOfLineBlocksWithoutLosingDeficit) {
  for_each_id_layout(/*quantum=*/1000, {"a", "b"}, [](flow::DrrQueue<int>& q) {
    q.push(q.tenant("a"), 1, 3000);  // large head
    q.push(q.tenant("b"), 2, 500);
    auto never_canceled = [](int) { return false; };
    // Nothing over 100 bytes fits: the fair-next item head-of-line blocks
    // and pop reports nullopt rather than letting b's small item sneak past
    // once a's deficit covers its head.
    auto tight = [](std::uint64_t cost) { return cost <= 100; };
    for (int i = 0; i < 8; ++i) {
      EXPECT_FALSE(q.pop(tight, never_canceled).has_value());
    }
    EXPECT_EQ(q.queued_items(), 2u);
    // With the budget open, both drain in fair order.
    auto open = [](std::uint64_t) { return true; };
    auto first = q.pop(open, never_canceled);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 2);  // b was the fair-next item all along
    auto second = q.pop(open, never_canceled);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, 1);
    EXPECT_TRUE(q.empty());
  });
}

TEST(Drr, ZeroWeightTenantIsPausedInPlace) {
  for_each_id_layout(
      /*quantum=*/1000, {"paused", "live"}, [](flow::DrrQueue<int>& q) {
        const auto paused = q.tenant("paused");
        const auto live = q.tenant("live");
        q.set_weight(paused, 0);
        q.set_weight(live, 1);
        q.push(paused, 1, 100);
        q.push(paused, 2, 100);
        q.push(live, 3, 100);
        auto open = [](std::uint64_t) { return true; };
        auto never = [](int) { return false; };
        // The live tenant drains; the paused tenant is skipped, not served
        // and not dropped -- its items stay queued in arrival order.
        auto item = q.pop(open, never);
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, 3);
        for (int i = 0; i < 4; ++i) {
          EXPECT_FALSE(q.pop(open, never).has_value());
        }
        EXPECT_EQ(q.queued_items(), 2u);
        // Resuming serves the held items in their original order.
        q.set_weight(paused, 2);
        item = q.pop(open, never);
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, 1);
        item = q.pop(open, never);
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, 2);
        EXPECT_TRUE(q.empty());
      });
}

TEST(Drr, AllTenantsPausedPopsNothing) {
  for_each_id_layout(/*quantum=*/1000, {"a", "b"}, [](flow::DrrQueue<int>& q) {
    const auto a = q.tenant("a");
    const auto b = q.tenant("b");
    q.set_weight(a, 0);
    q.set_weight(b, 0);
    q.push(a, 1, 100);
    q.push(b, 2, 100);
    auto open = [](std::uint64_t) { return true; };
    auto never = [](int) { return false; };
    // No live tenant anywhere: pop must terminate (not spin) and report
    // empty service while both backlogs survive intact.
    EXPECT_FALSE(q.pop(open, never).has_value());
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.queued_items(), 2u);
    q.set_weight(a, 1);
    ASSERT_TRUE(q.pop(open, never).has_value());
  });
}

TEST(Drr, CanceledEntriesAreDropped) {
  for_each_id_layout(/*quantum=*/1000, {"a"}, [](flow::DrrQueue<int>& q) {
    const auto a = q.tenant("a");
    q.push(a, 1, 100);
    q.push(a, 2, 100);
    auto open = [](std::uint64_t) { return true; };
    auto first_canceled = [](int v) { return v == 1; };
    auto item = q.pop(open, first_canceled);
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, 2);
    EXPECT_TRUE(q.empty());
  });
}

TEST(Drr, IdleTenantForfeitsDeficit) {
  for_each_id_layout(/*quantum=*/100, {"a", "b"}, [](flow::DrrQueue<int>& q) {
    const auto a = q.tenant("a");
    const auto b = q.tenant("b");
    auto open = [](std::uint64_t) { return true; };
    auto never = [](int) { return false; };
    // a builds deficit across several visits for one large item, serves it,
    // then goes idle -- when it comes back its deficit starts from zero.
    q.push(a, 1, 300);
    ASSERT_TRUE(q.pop(open, never).has_value());
    q.push(a, 2, 300);
    q.push(b, 3, 100);
    // a cannot serve instantly (needs 3 visits again); b gets through.
    int b_pos = -1;
    for (int i = 0; i < 2; ++i) {
      auto item = q.pop(open, never);
      ASSERT_TRUE(item.has_value());
      if (*item == 3) b_pos = i;
    }
    EXPECT_GE(b_pos, 0);
    EXPECT_TRUE(q.empty());
  });
}

// ---------------------------------------------------------------------- AIMD

TEST(Aimd, IncreaseDecreaseBounds) {
  flow::AimdConfig cfg;
  cfg.initial_bytes = 1000;
  cfg.min_bytes = 100;
  cfg.max_bytes = 2000;
  cfg.increase_bytes = 300;
  cfg.decrease_factor = 0.5;
  flow::AimdWindow w(cfg);
  EXPECT_EQ(w.window_bytes(), 1000u);
  w.on_grant();
  EXPECT_EQ(w.window_bytes(), 1300u);
  w.on_grant();
  w.on_grant();
  w.on_grant();
  EXPECT_EQ(w.window_bytes(), 2000u);  // capped
  w.on_busy();
  EXPECT_EQ(w.window_bytes(), 1000u);
  for (int i = 0; i < 10; ++i) w.on_busy();
  EXPECT_EQ(w.window_bytes(), 100u);  // floored
  w.on_view_change();
  EXPECT_EQ(w.window_bytes(), 1000u);  // elastic resize: re-probe
}

TEST(Aimd, OversizedRequestAdmittedAlone) {
  flow::AimdConfig cfg;
  cfg.initial_bytes = 1000;
  flow::AimdWindow w(cfg);
  EXPECT_TRUE(w.try_reserve(5000));  // bigger than the window, but alone
  EXPECT_FALSE(w.try_reserve(1));    // nothing else while it is in flight
  w.release(5000);
  EXPECT_TRUE(w.try_reserve(400));
  EXPECT_TRUE(w.try_reserve(400));
  EXPECT_FALSE(w.try_reserve(400));  // window full, in_flight != 0
}

// The convergence invariant: two clients with different learned operating
// points, sharing one fixed capacity, converge to equal windows under
// synchronized AIMD (equal additive steps, proportional decreases). This is
// what makes elastic joins/leaves re-find fair shares after on_view_change.
TEST(Aimd, ConvergenceInvariant) {
  flow::AimdConfig cfg;
  cfg.initial_bytes = 1 << 20;
  cfg.min_bytes = 1 << 10;
  cfg.max_bytes = 64 << 20;
  cfg.increase_bytes = 64 << 10;
  flow::AimdWindow a(cfg);
  flow::AimdWindow b(cfg);
  // Skew the starting points: a joined late (fresh), b has grown for a while.
  for (int i = 0; i < 100; ++i) b.on_grant();
  ASSERT_GT(b.window_bytes(), 4 * a.window_bytes());

  const std::uint64_t capacity = 16ull << 20;
  for (int round = 0; round < 400; ++round) {
    if (a.window_bytes() + b.window_bytes() > capacity) {
      a.on_busy();
      b.on_busy();
    } else {
      a.on_grant();
      b.on_grant();
    }
  }
  // Windows are within one multiplicative-decrease factor of each other,
  // and their sum oscillates around capacity.
  const double wa = static_cast<double>(a.window_bytes());
  const double wb = static_cast<double>(b.window_bytes());
  EXPECT_LT(std::max(wa, wb) / std::min(wa, wb), 1.5);
  EXPECT_GT(wa + wb, static_cast<double>(capacity) * 0.4);
  EXPECT_LT(wa + wb, static_cast<double>(capacity) * 1.1);
}

// --------------------------------------------------------- Backoff hint floor

TEST(Backoff, NextAtLeastFloorsAtHint) {
  Backoff b(BackoffPolicy{milliseconds(1), 2.0, seconds(1), 0.0, 0});
  EXPECT_EQ(b.next_at_least(milliseconds(50)), milliseconds(50));  // floored
  EXPECT_GE(b.next_at_least(microseconds(1)), milliseconds(2));    // schedule
}

// ----------------------------------------------------------------- ServerFlow

TEST(ServerFlow, DisabledIsZeroCost) {
  des::Simulation sim;
  flow::ServerFlow fl(sim, 7, flow::FlowConfig{});  // budget 0 = disabled
  EXPECT_FALSE(fl.enabled());
  auto r = fl.acquire("p", 1 << 20, 0);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.grant_id, 0u);
  EXPECT_TRUE(fl.consume(0, "p", 1, 0, "", 0, 1 << 20).ok());
  EXPECT_EQ(fl.in_use_bytes(), 0u);
  EXPECT_EQ(fl.staged_bytes(), 0u);
}

TEST(ServerFlow, CreditAccountingAndReplaceSemantics) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 16 << 10;
  auto fl = std::make_unique<flow::ServerFlow>(sim, 7, cfg);
  sim.spawn("t", [&] {
    auto g1 = fl->acquire("p", 4096, 0);
    ASSERT_TRUE(g1.status.ok());
    EXPECT_GT(g1.grant_id, 0u);
    EXPECT_EQ(fl->in_use_bytes(), 4096u);

    ASSERT_TRUE(fl->consume(g1.grant_id, "p", 1, 0, "f", 0, 4096).ok());
    EXPECT_EQ(fl->in_use_bytes(), 4096u);
    EXPECT_EQ(fl->staged_bytes(), 4096u);

    // Idempotent re-stage of the same (block, field, replica): the charge is
    // replaced, not doubled.
    auto g2 = fl->acquire("p", 4096, 0);
    ASSERT_TRUE(g2.status.ok());
    ASSERT_TRUE(fl->consume(g2.grant_id, "p", 1, 0, "f", 0, 4096).ok());
    EXPECT_EQ(fl->staged_bytes(), 4096u);
    EXPECT_EQ(fl->in_use_bytes(), 4096u);

    // A different replica rank is a distinct slot.
    auto g3 = fl->acquire("p", 4096, 0);
    ASSERT_TRUE(g3.status.ok());
    ASSERT_TRUE(fl->consume(g3.grant_id, "p", 1, 0, "f", 1, 4096).ok());
    EXPECT_EQ(fl->staged_bytes(), 8192u);

    // RDMA-pull failure rollback.
    fl->uncharge_block("p", 1, 0, "f", 1);
    EXPECT_EQ(fl->staged_bytes(), 4096u);

    fl->free_iteration("p", 1);
    EXPECT_EQ(fl->staged_bytes(), 0u);
    EXPECT_EQ(fl->in_use_bytes(), 0u);
    EXPECT_GE(fl->peak_staged_bytes(), 8192u);

    // Released (abandoned) grants give their credit back.
    auto g4 = fl->acquire("p", 1024, 0);
    ASSERT_TRUE(g4.status.ok());
    fl->release(g4.grant_id);
    EXPECT_EQ(fl->in_use_bytes(), 0u);
  });
  sim.run();
}

TEST(ServerFlow, OversizedRequestCanNeverFit) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 1024;
  flow::ServerFlow fl(sim, 7, cfg);
  sim.spawn("t", [&] {
    auto r = fl.acquire("p", 4096, 0);
    EXPECT_EQ(r.status.code(), StatusCode::failed_precondition);
  });
  sim.run();
}

TEST(ServerFlow, LeaseExpiryReclaimsUnconsumedGrant) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 8192;
  cfg.lease_ttl = milliseconds(100);
  flow::ServerFlow fl(sim, 7, cfg);
  sim.spawn("t", [&] {
    auto g = fl.acquire("p", 8192, 0);
    ASSERT_TRUE(g.status.ok());
    EXPECT_EQ(fl.in_use_bytes(), 8192u);
    sim.sleep_for(milliseconds(200));
    EXPECT_EQ(fl.in_use_bytes(), 0u);  // lease expired, credit reclaimed
    // The spent lease is gone: a late consume is treated as un-credited but
    // still fits the (now free) budget.
    EXPECT_TRUE(fl.consume(g.grant_id, "p", 1, 0, "f", 0, 1024).ok());
    EXPECT_EQ(fl.staged_bytes(), 1024u);
  });
  sim.run();
}

TEST(ServerFlow, ShedsWithRetryHintWhenQueueDisallowed) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 4096;
  cfg.max_queue = 0;  // no queueing: every non-fitting acquire sheds
  flow::ServerFlow fl(sim, 7, cfg);
  sim.spawn("t", [&] {
    auto g = fl.acquire("p", 4096, 0);
    ASSERT_TRUE(g.status.ok());
    auto r = fl.acquire("p", 1024, 0);
    EXPECT_EQ(r.status.code(), StatusCode::busy);
    EXPECT_GE(r.status.retry_after_us(), 100u);  // hint never zero
    EXPECT_GE(fl.sheds_total(), 1u);
  });
  sim.run();
}

TEST(ServerFlow, DeadlineDerivedBoundSheds) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 4096;
  cfg.drain_gbps = 1e-6;  // backlog effectively never drains
  flow::ServerFlow fl(sim, 7, cfg);
  sim.spawn("t", [&] {
    fl.inject_pressure(4096);
    // Queue admission would be pointless: the backlog cannot drain before
    // the caller's deadline, so the acquire is shed immediately.
    auto r = fl.acquire("p", 1024, sim.now() + milliseconds(1));
    EXPECT_EQ(r.status.code(), StatusCode::busy);
    EXPECT_GT(r.status.retry_after_us(), 0u);
  });
  sim.run();
}

TEST(ServerFlow, QueuedAcquireGrantedOnRelease) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 8192;
  flow::ServerFlow fl(sim, 7, cfg);
  std::uint64_t held = 0;
  bool granted = false;
  sim.spawn("holder", [&] {
    auto g = fl.acquire("p", 8192, 0);
    ASSERT_TRUE(g.status.ok());
    held = g.grant_id;
  });
  sim.spawn("waiter", [&] {
    sim.sleep_for(milliseconds(1));
    const des::Time t0 = sim.now();
    auto g = fl.acquire("q", 4096, 0);  // queues: budget is fully held
    ASSERT_TRUE(g.status.ok());
    EXPECT_GE(sim.now() - t0, milliseconds(9));
    granted = true;
  });
  sim.spawn("releaser", [&] {
    sim.sleep_for(milliseconds(10));
    fl.release(held);
  });
  sim.run();
  EXPECT_TRUE(granted);
}

// Two pipelines, weights 3:1, all waiters queued behind injected pressure.
// As budget frees, DRR must interleave grants at the weight ratio: among any
// early grant prefix, pipeline a stays close to 3x pipeline b.
TEST(ServerFlow, WeightedGrantOrderFollowsDrr) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 4096;
  cfg.quantum_bytes = 1024;
  cfg.drain_gbps = 1000.0;  // keep the drain bound out of the way
  flow::ServerFlow fl(sim, 7, cfg);
  fl.set_weight("a", 3);
  fl.set_weight("b", 1);
  std::vector<std::string> grant_order;
  sim.spawn("setup", [&] { fl.inject_pressure(4096); });
  for (int i = 0; i < 8; ++i) {
    for (const std::string& name : {std::string("a"), std::string("b")}) {
      sim.spawn("w", [&, name] {
        sim.sleep_for(milliseconds(1));
        auto g = fl.acquire(name, 1024, 0);
        ASSERT_TRUE(g.status.ok()) << g.status.to_string();
        grant_order.push_back(name);
        // Hand the credit straight back so the next waiter can be served.
        fl.release(g.grant_id);
      });
    }
  }
  sim.spawn("release", [&] {
    sim.sleep_for(milliseconds(5));
    fl.release_pressure();
  });
  sim.run();
  ASSERT_EQ(grant_order.size(), 16u);
  int a_early = 0;
  for (int i = 0; i < 8; ++i) a_early += grant_order[i] == "a" ? 1 : 0;
  EXPECT_GE(a_early, 5);  // ideal 6 of the first 8 at weights 3:1
  EXPECT_LE(a_early, 7);  // b is never starved
}

TEST(ServerFlow, QuotaJsonReflectsState) {
  des::Simulation sim;
  flow::FlowConfig cfg;
  cfg.budget_bytes = 1 << 20;
  flow::ServerFlow fl(sim, 9, cfg);
  fl.set_weight("iso", 3);
  sim.spawn("t", [&] {
    fl.inject_pressure(4096);
    auto g = fl.acquire("iso", 1024, 0);
    ASSERT_TRUE(g.status.ok());
    const json::Value q = fl.quota_json();
    EXPECT_EQ(q.number_or("budget_bytes", 0), static_cast<double>(1 << 20));
    EXPECT_EQ(q.number_or("pressure_bytes", 0), 4096.0);
    EXPECT_EQ(q.number_or("in_use_bytes", 0), 4096.0 + 1024.0);
    EXPECT_EQ(q.number_or("grants_outstanding", 0), 1.0);
    const json::Value* w = q.find("weights");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->number_or("iso", 0), 3.0);
  });
  sim.run();
}

// ------------------------------------------------------------ chaos shed rule

TEST(ChaosShed, JsonRoundTripAndStrictness) {
  const auto plan = chaos::ChaosPlan::from_json(R"({
    "seed": 5,
    "rules": [
      {"kind": "shed", "target": 3, "at_us": 1000, "heal_us": 2000,
       "bytes": 1048576}
    ]
  })");
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_EQ(plan.rules[0].kind, chaos::RuleKind::shed);
  EXPECT_EQ(plan.rules[0].target, 3u);
  EXPECT_EQ(plan.rules[0].bytes, 1048576u);
  EXPECT_EQ(plan.rules[0].at, milliseconds(1));
  EXPECT_EQ(plan.rules[0].heal_at, milliseconds(2));
  // Strict parsing still rejects typos.
  EXPECT_THROW(chaos::ChaosPlan::from_json(
                   R"({"rules":[{"kind":"shed","bites":1}]})"),
               std::runtime_error);
}

TEST(ChaosShed, OverloadPlanIsSeededAndShaped) {
  const auto plan =
      chaos::overload_plan(/*base_server=*/1, /*servers=*/3,
                           /*start=*/seconds(1), /*period=*/seconds(2),
                           /*burst=*/milliseconds(500), /*bursts=*/6,
                           /*bytes=*/1 << 20, /*seed=*/42);
  ASSERT_EQ(plan.rules.size(), 6u);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const chaos::Rule& r = plan.rules[i];
    EXPECT_EQ(r.kind, chaos::RuleKind::shed);
    EXPECT_GE(r.target, 1u);
    EXPECT_LT(r.target, 4u);
    EXPECT_EQ(r.at, seconds(1) + static_cast<des::Duration>(i) * seconds(2));
    EXPECT_EQ(r.heal_at, r.at + milliseconds(500));
    EXPECT_EQ(r.bytes, 1u << 20);
  }
  // Same seed, same victims; different seed, (almost surely) different.
  const auto again = chaos::overload_plan(1, 3, seconds(1), seconds(2),
                                          milliseconds(500), 6, 1 << 20, 42);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(plan.rules[i].target, again.rules[i].target);
  }
}

TEST(ChaosShed, InjectionSqueezesRegisteredServer) {
  des::Simulation sim;
  net::Network net(sim);
  flow::FlowConfig cfg;
  cfg.budget_bytes = 1 << 20;
  flow::ServerFlow fl(sim, 3, cfg);

  chaos::ChaosPlan plan;
  chaos::Rule r;
  r.kind = chaos::RuleKind::shed;
  r.target = 3;
  r.at = milliseconds(10);
  r.heal_at = milliseconds(30);
  r.bytes = 1 << 20;
  plan.rules.push_back(r);
  chaos::ChaosEngine engine(std::move(plan));
  engine.attach(net);

  sim.spawn("probe", [&] {
    sim.sleep_for(milliseconds(20));
    EXPECT_EQ(fl.in_use_bytes(), 1u << 20);  // squeezed
    sim.sleep_for(milliseconds(20));
    EXPECT_EQ(fl.in_use_bytes(), 0u);  // released
  });
  sim.run();
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].kind, chaos::RuleKind::shed);
  EXPECT_EQ(engine.log()[0].src, 3u);
  EXPECT_EQ(engine.log()[1].delta, 1);  // release record
}

// ------------------------------------------------------------------- end2end

class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(Context ctx) : Backend(std::move(ctx)) {}
  Status activate(std::uint64_t) override { return Status::Ok(); }
  Status stage(StagedBlock b) override {
    bytes_ += b.data.size();
    return Status::Ok();
  }
  Status execute(std::uint64_t) override { return Status::Ok(); }
  Status deactivate(std::uint64_t) override { return Status::Ok(); }

 private:
  std::size_t bytes_ = 0;
};

COLZA_REGISTER_BACKEND("flow-sink", CountingBackend)

class FlowWorld {
 public:
  FlowWorld(int n, flow::FlowConfig flow_cfg, std::uint64_t seed = 11)
      : sim(des::SimConfig{.seed = seed}), net(sim) {
    ServerConfig cfg;
    cfg.init_cost = milliseconds(50);
    cfg.flow = flow_cfg;
    LaunchModel instant{milliseconds(10), 0.0, milliseconds(10)};
    area = std::make_unique<StagingArea>(net, cfg, instant, seed);
    area->launch_initial(n, /*base_node=*/100);
    sim.run_until(seconds(2));
    client_proc = &net.create_process(0);
    client = std::make_unique<Client>(*client_proc);
  }

  void create_everywhere(const std::string& name, const std::string& type) {
    client_proc->spawn("admin", [this, name, type] {
      Admin admin(client->engine());
      for (net::ProcId s : area->alive_addresses()) {
        ASSERT_TRUE(admin.create_pipeline(s, name, type).ok());
      }
    });
    sim.run();
  }

  des::Simulation sim;
  net::Network net;
  std::unique_ptr<StagingArea> area;
  net::Process* client_proc = nullptr;
  std::unique_ptr<Client> client;
};

// A flow-enabled client under a fully squeezed budget: every stage is shed
// with Busy until the pressure lifts, the client honors the retry-after hint
// (it keeps backing off rather than failing), and the iteration completes
// with zero client-visible errors once budget frees.
TEST(FlowEndToEnd, BusyIsRetriedUntilPressureLifts) {
  obs::MetricsRegistry::global().reset();
  flow::FlowConfig fcfg;
  fcfg.budget_bytes = 64 << 10;
  fcfg.max_queue = 0;  // force the shed/Busy path instead of server queueing
  FlowWorld w(2, fcfg);
  w.create_everywhere("pipe", "flow-sink");

  // Squeeze both servers completely, lift after 50 ms.
  for (net::ProcId s : w.area->alive_addresses()) {
    flow::ServerFlow* fl = flow::Registry::find(&w.sim, s);
    ASSERT_NE(fl, nullptr);
    fl->inject_pressure(fcfg.budget_bytes);
  }
  w.sim.schedule_after(milliseconds(50), [&] {
    for (net::ProcId s : w.area->alive_addresses()) {
      flow::Registry::find(&w.sim, s)->release_pressure();
    }
  });

  bool done = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    h->set_flow_control(FlowClientOptions{.enabled = true, .aimd = {}});
    ASSERT_TRUE(h->activate(1).ok());
    const des::Time t0 = w.sim.now();
    std::vector<std::byte> data(4096, std::byte{5});
    ASSERT_TRUE(h->stage(1, 0, data).ok());
    EXPECT_GE(w.sim.now() - t0, milliseconds(50));  // blocked on the squeeze
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    done = true;
  });
  w.sim.run();
  ASSERT_TRUE(done);
  // The squeeze was visible as Busy sheds, absorbed by client retries.
  EXPECT_GT(obs::MetricsRegistry::global().counter("flow.client.busy").value,
            0u);
}

// Sustained staging against a tight budget: admission keeps every server's
// peak staged bytes within its budget while all iterations succeed.
TEST(FlowEndToEnd, PeakStagedBytesNeverExceedBudget) {
  flow::FlowConfig fcfg;
  fcfg.budget_bytes = 32 << 10;
  FlowWorld w(2, fcfg);
  w.create_everywhere("pipe", "flow-sink");

  bool done = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    h->set_flow_control(FlowClientOptions{.enabled = true, .aimd = {}});
    std::vector<std::byte> data(4096, std::byte{9});
    for (std::uint64_t it = 1; it <= 6; ++it) {
      ASSERT_TRUE(h->activate(it).ok());
      for (std::uint64_t b = 0; b < 6; ++b) {
        ASSERT_TRUE(h->stage(it, b, data).ok()) << "it=" << it << " b=" << b;
      }
      ASSERT_TRUE(h->execute(it).ok());
      ASSERT_TRUE(h->deactivate(it).ok());
    }
    done = true;
  });
  w.sim.run();
  ASSERT_TRUE(done);
  for (net::ProcId s : w.area->alive_addresses()) {
    flow::ServerFlow* fl = flow::Registry::find(&w.sim, s);
    ASSERT_NE(fl, nullptr);
    EXPECT_GT(fl->peak_staged_bytes(), 0u);
    EXPECT_LE(fl->peak_staged_bytes(), fcfg.budget_bytes);
    EXPECT_EQ(fl->staged_bytes(), 0u);  // everything freed by deactivate
  }
}

// Flow control disabled (the default) must leave the protocol untouched:
// grant_id 0 rides the wire and servers charge nothing.
TEST(FlowEndToEnd, DisabledFlowIsInvisible) {
  FlowWorld w(2, flow::FlowConfig{});  // budget 0
  w.create_everywhere("pipe", "flow-sink");
  bool done = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(h->flow_control_enabled());
    ASSERT_TRUE(h->activate(1).ok());
    std::vector<std::byte> data(4096, std::byte{1});
    ASSERT_TRUE(h->stage(1, 0, data).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    done = true;
  });
  w.sim.run();
  ASSERT_TRUE(done);
  for (net::ProcId s : w.area->alive_addresses()) {
    flow::ServerFlow* fl = flow::Registry::find(&w.sim, s);
    ASSERT_NE(fl, nullptr);
    EXPECT_FALSE(fl->enabled());
    EXPECT_EQ(fl->staged_bytes(), 0u);
  }
}

// A stage's size is a wire field (StageMetadata::data.size). Forged sizes
// -- past the 4 KiB the client exposed, past any memory, or picked so the
// flow admission sum wraps back under the budget -- are refused before the
// server allocates a buffer for them, leave its flow accounting as it was,
// and a normal stage afterwards still lands. Flow off, and flow on with a
// budget large enough to admit 1 TiB, so the forged size reaches the pull.
TEST(FlowEndToEnd, ForgedStageSizeIsRejectedBeforeAllocating) {
  for (const std::uint64_t budget :
       {std::uint64_t{0}, std::uint64_t{1} << 42}) {
    flow::FlowConfig fcfg;
    fcfg.budget_bytes = budget;
    FlowWorld w(1, fcfg);
    w.create_everywhere("pipe", "flow-sink");
    const net::ProcId server = w.area->alive_addresses().front();
    flow::ServerFlow* fl = flow::Registry::find(&w.sim, server);
    ASSERT_NE(fl, nullptr);
    bool done = false;
    w.client_proc->spawn("app", [&] {
      auto h = DistributedPipelineHandle::lookup(
          *w.client, w.area->bootstrap().contacts(), "pipe");
      ASSERT_TRUE(h.has_value());
      ASSERT_TRUE(h->activate(1).ok());
      std::vector<std::byte> data(4096, std::byte{3});
      ASSERT_TRUE(h->stage(1, 0, data).ok());
      const std::uint64_t in_use = fl->in_use_bytes();
      EXPECT_EQ(in_use, budget > 0 ? data.size() : 0u);

      std::vector<std::uint64_t> forged = {std::uint64_t{1} << 30,
                                           std::uint64_t{1} << 40,
                                           ~std::uint64_t{0}};
      // in_use + size == 2^64 + 1 KiB: wraps under the budget if summed.
      if (in_use > 0) forged.push_back(0 - in_use + 1024);
      StageMetadata meta;
      meta.pipeline = "pipe";
      meta.iteration = 1;
      meta.block_id = 1;
      meta.data = w.client_proc->expose(data);
      meta.copyset = {server};
      meta.checksum = common::crc32c(data);
      for (const std::uint32_t rank : {0u, 1u}) {  // backend slot, replica
        for (const std::uint64_t size : forged) {
          StageMetadata m = meta;
          m.replica_rank = rank;
          m.data.size = size;
          auto r = w.client->engine().call_raw(server, "colza.stage", pack(m));
          EXPECT_FALSE(r.has_value()) << "size " << size << " rank " << rank;
          EXPECT_EQ(fl->in_use_bytes(), in_use)
              << "size " << size << " rank " << rank;
        }
      }
      w.client_proc->unexpose(meta.data);

      ASSERT_TRUE(h->stage(1, 1, data).ok());
      ASSERT_TRUE(h->execute(1).ok());
      ASSERT_TRUE(h->deactivate(1).ok());
      done = true;
    });
    w.sim.run();
    ASSERT_TRUE(done) << "budget " << budget;
  }
}

}  // namespace
}  // namespace colza
