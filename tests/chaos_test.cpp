// Unit tests for the chaos-injection layer (src/chaos): plan parsing, the
// per-message fault verdicts, scheduled partitions and crashes, injection
// logging, and the determinism property the invariant sweeps rely on --
// identical plans against identical scenarios produce bit-identical logs.
// The slow multi-seed sweeps live in chaos_sweep_test.cpp (ctest -L tier2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "net/profile.hpp"
#include "invariants.hpp"

namespace colza::chaos {
namespace {

using des::microseconds;
using des::milliseconds;
using des::seconds;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

// ---------------------------------------------------------------- plan JSON

TEST(ChaosPlan, ParsesFullRuleVocabularyFromJson) {
  const ChaosPlan plan = ChaosPlan::from_json(R"({
    "seed": 99,
    "rules": [
      {"kind": "drop", "probability": 0.25, "box": "rpc", "from": 2, "to": 3,
       "after_us": 1000, "before_us": 9000},
      {"kind": "delay", "probability": 0.5, "delay_us": 200, "jitter_us": 100},
      {"kind": "duplicate", "copies": 2, "spacing_us": 50},
      {"kind": "reorder", "jitter_us": 300},
      {"kind": "slow_node", "node": 4, "factor": 3.5},
      {"kind": "partition", "group_a": [1, 2], "group_b": [3],
       "at_us": 5000, "heal_us": 8000},
      {"kind": "crash", "target": 2, "at_us": 7000},
      {"kind": "corrupt", "target": 1, "at_us": 7500, "heal_us": 9500,
       "mode": "truncate"},
      {"kind": "corrupt", "box": "rdma"}
    ]
  })");
  ASSERT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.rules.size(), 9u);
  EXPECT_EQ(plan.rules[0].kind, RuleKind::drop);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.25);
  EXPECT_EQ(plan.rules[0].box, "rpc");
  EXPECT_EQ(plan.rules[0].from, 2u);
  EXPECT_EQ(plan.rules[0].to, 3u);
  EXPECT_EQ(plan.rules[0].after, microseconds(1000));
  EXPECT_EQ(plan.rules[0].before, microseconds(9000));
  EXPECT_EQ(plan.rules[1].delay, microseconds(200));
  EXPECT_EQ(plan.rules[1].jitter, microseconds(100));
  EXPECT_EQ(plan.rules[2].copies, 2);
  EXPECT_EQ(plan.rules[2].spacing, microseconds(50));
  EXPECT_EQ(plan.rules[3].kind, RuleKind::reorder);
  EXPECT_EQ(plan.rules[4].node, 4u);
  EXPECT_DOUBLE_EQ(plan.rules[4].factor, 3.5);
  EXPECT_EQ(plan.rules[5].group_a, (std::vector<net::ProcId>{1, 2}));
  EXPECT_EQ(plan.rules[5].group_b, (std::vector<net::ProcId>{3}));
  EXPECT_EQ(plan.rules[5].at, microseconds(5000));
  EXPECT_EQ(plan.rules[5].heal_at, microseconds(8000));
  EXPECT_EQ(plan.rules[6].target, 2u);
  EXPECT_EQ(plan.rules[7].kind, RuleKind::corrupt);
  EXPECT_EQ(plan.rules[7].target, 1u);
  EXPECT_EQ(plan.rules[7].at, microseconds(7500));
  EXPECT_EQ(plan.rules[7].corrupt_mode, common::integrity::CorruptMode::truncate);
  EXPECT_EQ(plan.rules[8].kind, RuleKind::corrupt);
  EXPECT_EQ(plan.rules[8].at, 0u);  // in-transit form
  EXPECT_EQ(plan.rules[8].corrupt_mode, common::integrity::CorruptMode::bit_flip);
}

TEST(ChaosPlan, RejectsUnknownRuleKind) {
  EXPECT_THROW(ChaosPlan::from_json(R"({"rules":[{"kind":"meteor"}]})"),
               std::runtime_error);
}

TEST(ChaosPlan, DefaultsToNoRules) {
  const ChaosPlan plan = ChaosPlan::from_json("{}");
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_TRUE(plan.rules.empty());
}

// A typoed key must not silently disable a fault: the loader is strict and
// names the offending rule so the plan author can find it.
TEST(ChaosPlan, RejectsUnknownRuleKeyNamingTheRuleIndex) {
  try {
    (void)ChaosPlan::from_json(R"({
      "rules": [
        {"kind": "drop"},
        {"kind": "delay", "delay_usec": 200}
      ]
    })");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rule 1"), std::string::npos) << what;
    EXPECT_NE(what.find("delay_usec"), std::string::npos) << what;
  }
}

TEST(ChaosPlan, RejectsUnknownTopLevelKey) {
  try {
    (void)ChaosPlan::from_json(R"({"sed": 3, "rules": []})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sed"), std::string::npos);
  }
}

TEST(ChaosPlan, RejectsNonObjectRule) {
  try {
    (void)ChaosPlan::from_json(R"({"rules": [{"kind": "drop"}, 7]})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rule 1"), std::string::npos);
  }
}

// The corrupt-rule validation mirrors the unknown-key strictness: a typoed
// mode or an unaimed scheduled rule names its index instead of silently
// arming nothing.
TEST(ChaosPlan, RejectsInvalidCorruptModeNamingTheRuleIndex) {
  try {
    (void)ChaosPlan::from_json(R"({
      "rules": [
        {"kind": "drop"},
        {"kind": "corrupt", "target": 1, "at_us": 100, "mode": "bitflip"}
      ]
    })");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rule 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bitflip"), std::string::npos) << what;
  }
}

TEST(ChaosPlan, RejectsScheduledCorruptWithoutTargetOrNode) {
  try {
    (void)ChaosPlan::from_json(
        R"({"rules": [{"kind": "corrupt", "at_us": 100}]})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rule 0"), std::string::npos);
  }
}

TEST(ChaosPlan, RejectsModeOnNonCorruptRule) {
  try {
    (void)ChaosPlan::from_json(
        R"({"rules": [{"kind": "drop", "mode": "zero"}]})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mode"), std::string::npos);
  }
}

TEST(ChaosPlan, RejectsInTransitCorruptOnNonRdmaBox) {
  try {
    (void)ChaosPlan::from_json(
        R"({"rules": [{"kind": "corrupt", "box": "rpc"}]})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rdma"), std::string::npos);
  }
}

TEST(ChaosPlan, CorruptionStormPlanIsSeededAndPeriodic) {
  const ChaosPlan plan = corruption_storm_plan(
      /*base_server=*/1, /*servers=*/4, /*start=*/seconds(5),
      /*period=*/seconds(45), /*corruptions=*/8, /*seed=*/13);
  EXPECT_EQ(plan.seed, 13u);
  ASSERT_EQ(plan.rules.size(), 8u);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const Rule& r = plan.rules[i];
    EXPECT_EQ(r.kind, RuleKind::corrupt);
    EXPECT_GE(r.target, 1u);
    EXPECT_LT(r.target, 5u);
    EXPECT_EQ(r.at, seconds(5) + i * seconds(45));
    EXPECT_EQ(r.heal_at, r.at + seconds(45));
  }
  // Seeded: the same arguments always produce the same victims and modes.
  const ChaosPlan again = corruption_storm_plan(1, 4, seconds(5), seconds(45),
                                                8, 13);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    EXPECT_EQ(plan.rules[i].target, again.rules[i].target);
    EXPECT_EQ(plan.rules[i].corrupt_mode, again.rules[i].corrupt_mode);
  }
}

TEST(ChaosPlan, CrashStormPlanRoundRobinsNodeTargetedCrashes) {
  const ChaosPlan plan =
      crash_storm_plan(/*base_node=*/100, /*nodes=*/3, /*start=*/seconds(10),
                       /*period=*/seconds(5), /*crashes=*/7, /*seed=*/99);
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.rules.size(), 7u);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const Rule& r = plan.rules[i];
    EXPECT_EQ(r.kind, RuleKind::crash);
    EXPECT_EQ(r.target, 0u);  // node-targeted: kills the current occupant
    EXPECT_EQ(r.node, 100u + i % 3);
    EXPECT_EQ(r.at, seconds(10) + i * seconds(5));
  }
}

// ------------------------------------------------------------- message rules

struct ChaosNetTest : ::testing::Test {
  des::Simulation sim;
  net::Network net{sim};
  net::Profile prof = net::Profile::mona();
};

TEST_F(ChaosNetTest, DropRuleSwallowsMatchingMessages) {
  Rule r;
  r.kind = RuleKind::drop;
  r.box = "x";
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  int got_x = 0, got_y = 0;
  b.spawn("rx", [&] {
    while (b.mailbox("x").recv(seconds(2)).has_value()) ++got_x;
  });
  b.spawn("ry", [&] {
    while (b.mailbox("y").recv(seconds(2)).has_value()) ++got_y;
  });
  a.spawn("tx", [&] {
    net.transmit(a, b.id(), "x", prof, {a.id(), 1, bytes_of("dropped")});
    net.transmit(a, b.id(), "y", prof, {a.id(), 2, bytes_of("delivered")});
  });
  sim.run();

  EXPECT_EQ(got_x, 0);  // the box filter matched and the rule swallowed it
  EXPECT_EQ(got_y, 1);  // other mailboxes are untouched
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].kind, RuleKind::drop);
  EXPECT_EQ(engine.log()[0].src, a.id());
  EXPECT_EQ(engine.log()[0].dst, b.id());
  EXPECT_EQ(engine.log()[0].tag, 1u);
}

TEST_F(ChaosNetTest, DelayRuleShiftsArrivalByFixedAmount) {
  Rule r;
  r.kind = RuleKind::delay;
  r.delay = milliseconds(50);
  ChaosEngine engine(ChaosPlan{7, {r}});

  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  des::Time plain = 0, delayed = 0;
  b.spawn("rx", [&] {
    (void)b.mailbox("x").recv();
    plain = sim.now();
    (void)b.mailbox("x").recv();
    delayed = sim.now();
  });
  a.spawn("tx", [&] {
    net.transmit(a, b.id(), "x", prof, {a.id(), 1, std::vector<std::byte>(64)});
    sim.sleep_for(seconds(1));
    engine.attach(net);
    net.transmit(a, b.id(), "x", prof, {a.id(), 2, std::vector<std::byte>(64)});
  });
  sim.run();

  // Identical payload and quiet NICs: the chaos delta is exactly the rule's.
  EXPECT_EQ(delayed - seconds(1), plain + milliseconds(50));
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].delta, milliseconds(50));
}

TEST_F(ChaosNetTest, DuplicateRuleDeliversExtraCopies) {
  Rule r;
  r.kind = RuleKind::duplicate;
  r.copies = 2;
  r.spacing = microseconds(100);
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  std::vector<std::string> got;
  b.spawn("rx", [&] {
    while (auto m = b.mailbox("x").recv(seconds(2))) {
      got.emplace_back(reinterpret_cast<const char*>(m->payload.data()),
                       m->payload.size());
    }
  });
  a.spawn("tx", [&] {
    net.transmit(a, b.id(), "x", prof, {a.id(), 1, bytes_of("echo")});
  });
  sim.run();

  ASSERT_EQ(got.size(), 3u);  // original + 2 copies
  for (const auto& s : got) EXPECT_EQ(s, "echo");
}

TEST_F(ChaosNetTest, SlowNodeRuleScalesBaseDelay) {
  Rule r;
  r.kind = RuleKind::slow_node;
  r.node = 1;
  r.factor = 3.0;
  ChaosEngine engine(ChaosPlan{7, {r}});

  auto& a = net.create_process(0);
  auto& b = net.create_process(1);   // the degraded node
  auto& c = net.create_process(2);
  des::Time slow_t = 0, fast_t = 0;
  b.spawn("rb", [&] {
    (void)b.mailbox("x").recv();
    slow_t = sim.now();
  });
  c.spawn("rc", [&] {
    (void)c.mailbox("x").recv();
    fast_t = sim.now();
  });
  engine.attach(net);
  a.spawn("tx", [&] {
    net.transmit(a, b.id(), "x", prof, {a.id(), 1, bytes_of("to-slow")});
    net.transmit(a, c.id(), "x", prof, {a.id(), 2, bytes_of("to-fast")});
  });
  sim.run();

  // Same payload/profile: the degraded destination pays ~3x the base delay
  // (NIC bookkeeping makes the exact ratio fuzzy; it must be clearly >2x).
  EXPECT_GT(slow_t, fast_t * 2);
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].kind, RuleKind::slow_node);
}

TEST_F(ChaosNetTest, RuleFiltersRespectWindowAndEndpoints) {
  Rule r;
  r.kind = RuleKind::drop;
  r.from = 1;
  r.after = seconds(10);
  r.before = seconds(20);
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  auto& a = net.create_process(0);  // ProcId 1 -> matches `from`
  auto& b = net.create_process(1);
  int got = 0;
  b.spawn("rx", [&] {
    while (b.mailbox("x").recv(seconds(40)).has_value()) ++got;
  });
  a.spawn("tx", [&] {
    net.transmit(a, b.id(), "x", prof, {a.id(), 1, bytes_of("early")});
    sim.sleep_until(seconds(15));
    net.transmit(a, b.id(), "x", prof, {a.id(), 2, bytes_of("windowed")});
    sim.sleep_until(seconds(25));
    net.transmit(a, b.id(), "x", prof, {a.id(), 3, bytes_of("late")});
  });
  sim.run();

  EXPECT_EQ(got, 2);  // only the in-window message from ProcId 1 was dropped
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].tag, 2u);
}

// ------------------------------------------------------------ scheduled rules

TEST_F(ChaosNetTest, PartitionRuleCutsBothDirectionsAndHeals) {
  Rule r;
  r.kind = RuleKind::partition;
  r.group_a = {1};
  r.group_b = {2, 3};
  r.at = seconds(5);
  r.heal_at = seconds(10);
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  (void)net.create_process(0);
  (void)net.create_process(1);
  (void)net.create_process(2);
  bool cut_seen = false, healed_seen = false;
  sim.schedule_at(seconds(7), [&] {
    cut_seen = net.link_down(1, 2) && net.link_down(2, 1) &&
               net.link_down(1, 3) && net.link_down(3, 1) &&
               !net.link_down(2, 3);
  });
  sim.schedule_at(seconds(12), [&] {
    healed_seen = !net.link_down(1, 2) && !net.link_down(2, 1) &&
                  !net.link_down(1, 3) && !net.link_down(3, 1);
  });
  sim.run();

  EXPECT_TRUE(cut_seen);
  EXPECT_TRUE(healed_seen);
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].time, seconds(5));
  EXPECT_EQ(engine.log()[0].delta, 0u);  // cut
  EXPECT_EQ(engine.log()[1].time, seconds(10));
  EXPECT_EQ(engine.log()[1].delta, 1u);  // heal
}

TEST_F(ChaosNetTest, CrashRuleKillsTargetAtScheduledTime) {
  Rule r;
  r.kind = RuleKind::crash;
  r.target = 2;
  r.at = seconds(3);
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  (void)net.create_process(0);
  auto& victim = net.create_process(1);
  bool alive_before = false;
  sim.schedule_at(seconds(2), [&] { alive_before = victim.alive(); });
  sim.run();

  EXPECT_TRUE(alive_before);
  EXPECT_FALSE(victim.alive());
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].kind, RuleKind::crash);
  EXPECT_EQ(engine.log()[0].time, seconds(3));
  EXPECT_EQ(engine.log()[0].src, 2u);
}

// A node-targeted crash (target=0) kills whatever is alive on the node when
// the rule fires -- including a process created after the first occupant
// died, which is exactly how a storm keeps hitting supervisor respawns.
TEST_F(ChaosNetTest, NodeTargetedCrashKillsCurrentOccupant) {
  Rule r1;
  r1.kind = RuleKind::crash;
  r1.node = 7;
  r1.at = seconds(2);
  Rule r2 = r1;
  r2.at = seconds(6);
  ChaosEngine engine(ChaosPlan{7, {r1, r2}});
  engine.attach(net);

  auto& first = net.create_process(7);
  net::Process* second = nullptr;
  sim.schedule_at(seconds(4), [&] { second = &net.create_process(7); });
  sim.run();

  EXPECT_FALSE(first.alive());
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->alive());
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].src, first.id());   // records the actual victim
  EXPECT_EQ(engine.log()[1].src, second->id());
}

// A node-targeted crash on an empty (or all-dead) node is a no-op.
TEST_F(ChaosNetTest, NodeTargetedCrashOnEmptyNodeDoesNothing) {
  Rule r;
  r.kind = RuleKind::crash;
  r.node = 9;
  r.at = seconds(1);
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);
  auto& bystander = net.create_process(3);
  sim.run();
  EXPECT_TRUE(bystander.alive());
  EXPECT_TRUE(engine.log().empty());
}

// ------------------------------------------------------------------- RDMA

TEST_F(ChaosNetTest, RdmaDropRuleFailsTransferAfterModeledDelay) {
  Rule r;
  r.kind = RuleKind::drop;
  r.box = "rdma";
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  auto& owner = net.create_process(0);
  auto& reader = net.create_process(1);
  std::vector<std::byte> region(256);
  const net::BulkRef ref = owner.expose(region);
  StatusCode code = StatusCode::ok;
  des::Time done = 0;
  reader.spawn("pull", [&] {
    std::vector<std::byte> out;
    code = net.rdma_get(reader, ref, 0, region.size(), out, prof).code();
    done = sim.now();
  });
  sim.run();

  EXPECT_EQ(code, StatusCode::unreachable);
  EXPECT_GT(done, 0u);  // the initiator still waited out the transfer time
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].kind, RuleKind::drop);
}

// In-transit corruption: the pull succeeds, exactly one byte differs from
// the exposed region, and the injection record pins down which one (tag =
// offset, delta = XOR byte) so a replay rots the identical bit. The pull's
// digest describes the flipped bytes that landed, not the source, so a
// reader comparing it with the sender's checksum sees the rot.
TEST_F(ChaosNetTest, RdmaCorruptRuleFlipsOneByteInFlight) {
  Rule r;
  r.kind = RuleKind::corrupt;
  r.box = "rdma";  // at == 0: the in-transit form
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);

  auto& owner = net.create_process(0);
  auto& reader = net.create_process(1);
  std::vector<std::byte> region(256, std::byte{0x5A});
  const net::BulkRef ref = owner.expose(region);
  std::vector<std::byte> out;
  std::uint32_t crc = 0;
  StatusCode code = StatusCode::internal;
  reader.spawn("pull", [&] {
    code =
        net.rdma_get(reader, ref, 0, region.size(), out, prof, &crc).code();
  });
  sim.run();

  ASSERT_EQ(code, StatusCode::ok);  // the rot is silent by design
  ASSERT_EQ(out.size(), region.size());
  EXPECT_EQ(crc, common::crc32c(out));
  EXPECT_NE(crc, common::crc32c(region));
  std::size_t diffs = 0, diff_at = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != region[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  EXPECT_EQ(diffs, 1u);
  ASSERT_EQ(engine.log().size(), 1u);
  const InjectionRecord& rec = engine.log()[0];
  EXPECT_EQ(rec.kind, RuleKind::corrupt);
  EXPECT_EQ(rec.tag, diff_at);
  EXPECT_EQ(static_cast<std::byte>(rec.delta),
            out[diff_at] ^ region[diff_at]);
}

// ------------------------------------------------------------- log bounding

// A capacity-bounded log retains only the newest records, but the running
// summary (count + FNV digest) still covers the whole history -- two runs
// match iff their summaries match, no matter the bound.
TEST_F(ChaosNetTest, LogCapacityEvictsOldestButSummaryCoversAll) {
  auto run_once = [](std::size_t capacity) {
    des::Simulation sim;
    net::Network net(sim);
    Rule r;
    r.kind = RuleKind::drop;
    ChaosEngine engine(ChaosPlan{7, {r}});
    engine.set_log_capacity(capacity);
    engine.attach(net);
    auto& a = net.create_process(0);
    auto& b = net.create_process(1);
    a.spawn("tx", [&] {
      const net::Profile prof = net::Profile::mona();
      for (std::uint64_t i = 0; i < 20; ++i) {
        net.transmit(a, b.id(), "x", prof,
                     {a.id(), i, std::vector<std::byte>(32)});
        sim.sleep_for(milliseconds(1));
      }
    });
    sim.run();
    return std::tuple{engine.log(), engine.log_summary(), engine.dump_log()};
  };

  const auto [full_log, full_sum, full_dump] = run_once(0);
  const auto [capped_log, capped_sum, capped_dump] = run_once(5);

  ASSERT_EQ(full_log.size(), 20u);
  ASSERT_EQ(capped_log.size(), 5u);
  // The retained tail is the newest 5 records, verbatim.
  EXPECT_TRUE(std::equal(capped_log.begin(), capped_log.end(),
                         full_log.end() - 5));
  // The summary is capacity-independent: same history, same signature.
  EXPECT_EQ(full_sum.records, 20u);
  EXPECT_EQ(capped_sum, full_sum);
  // The bounded dump says what it dropped; the unbounded one does not.
  EXPECT_NE(capped_dump.find("15 older records evicted"), std::string::npos);
  EXPECT_EQ(full_dump.find("evicted"), std::string::npos);
}

TEST_F(ChaosNetTest, ShrinkingLogCapacityEvictsImmediately) {
  Rule r;
  r.kind = RuleKind::drop;
  ChaosEngine engine(ChaosPlan{7, {r}});
  engine.attach(net);
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  a.spawn("tx", [&] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      net.transmit(a, b.id(), "x", prof, {a.id(), i, std::vector<std::byte>(8)});
      sim.sleep_for(milliseconds(1));
    }
  });
  sim.run();

  ASSERT_EQ(engine.log().size(), 6u);
  engine.set_log_capacity(2);
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].tag, 4u);  // the two newest survive
  EXPECT_EQ(engine.log()[1].tag, 5u);
  EXPECT_EQ(engine.log_summary().records, 6u);
}

// -------------------------------------------------------------- determinism

TEST_F(ChaosNetTest, ProbabilisticVerdictsAreSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    des::Simulation sim;
    net::Network net(sim);
    Rule r;
    r.kind = RuleKind::drop;
    r.probability = 0.3;
    ChaosEngine engine(ChaosPlan{seed, {r}});
    engine.attach(net);
    auto& a = net.create_process(0);
    auto& b = net.create_process(1);
    a.spawn("tx", [&] {
      const net::Profile prof = net::Profile::mona();
      for (std::uint64_t i = 0; i < 200; ++i) {
        net.transmit(a, b.id(), "x", prof,
                     {a.id(), i, std::vector<std::byte>(32)});
        sim.sleep_for(milliseconds(1));
      }
    });
    sim.run();
    return engine.dump_log();
  };

  const std::string log_a = run_once(41);
  const std::string log_b = run_once(41);
  const std::string log_c = run_once(42);
  EXPECT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);  // same seed -> bit-identical injections
  EXPECT_NE(log_a, log_c);  // different seed -> different schedule
}

// The INV4 premise: a fault-free elastic-Mandelbulb run renders the same
// image regardless of how many servers composite it -- the global-bounds
// camera and the closest-depth compositing make block placement irrelevant.
TEST(ChaosScenario, RenderHashIndependentOfServerCount) {
  colza::testing::ScenarioConfig three;
  three.seed = 5;
  three.servers = 3;
  three.iterations = 2;
  colza::testing::ScenarioConfig four = three;
  four.servers = 4;

  const auto ra = colza::testing::run_elastic_mandelbulb(three);
  const auto rb = colza::testing::run_elastic_mandelbulb(four);
  ASSERT_TRUE(ra.client_done);
  ASSERT_TRUE(rb.client_done);
  const auto ha = colza::testing::reference_hashes(ra);
  const auto hb = colza::testing::reference_hashes(rb);
  ASSERT_EQ(ha.size(), 2u);
  EXPECT_EQ(ha, hb);
}

}  // namespace
}  // namespace colza::chaos
