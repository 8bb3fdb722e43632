// End-to-end data-integrity tests: stage-time CRC32C checksums carried to
// every copy, execute-time verification, repair from buddy replicas, the
// background scrubber, targeted client re-stage when no intact copy is left,
// deferred (rot-on-write) chaos corruption, supervisor quarantine of repeat
// offenders, and the per-server integrity counts the admin metrics endpoint
// serves.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "chaos/chaos.hpp"
#include "colza/admin.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/fault.hpp"
#include "colza/server.hpp"
#include "colza/supervisor.hpp"
#include "common/integrity.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "vis/data.hpp"

namespace colza {
namespace {

using common::integrity::CorruptMode;
using common::integrity::Registry;
using des::milliseconds;
using des::seconds;

// One of a server's integrity.* counts, read from its metrics scope.
std::uint64_t count(const Server& s, const std::string& name) {
  return obs::MetricsRegistry::global().counter_value(name, s.metrics_scope());
}

// Staging area with n servers running a catalyst pipeline, one client, and
// pre-serialized mandelbulb blocks. fixed_scoped_charge pins the wall-clock
// coupled charge sites so integrity counters are exactly reproducible.
class IntegrityWorld {
 public:
  IntegrityWorld(int n, std::uint32_t nblocks, des::Duration scrub,
                 std::uint64_t seed = 21)
      : sim(des::SimConfig{.seed = seed,
                           .fixed_scoped_charge = milliseconds(2)}),
        net(sim) {
    ServerConfig cfg;
    cfg.init_cost = milliseconds(50);
    cfg.scrub_interval = scrub;
    LaunchModel instant{milliseconds(10), 0.0, milliseconds(10)};
    area = std::make_unique<StagingArea>(net, cfg, instant, seed);
    area->launch_initial(n, /*base_node=*/100);
    sim.run_until(seconds(2));  // daemons up and converged
    for (auto& s : area->servers()) {
      s->create_pipeline("render", "catalyst",
                         R"({"preset":"mandelbulb","width":32,"height":32})")
          .check();
    }
    apps::MandelbulbParams mb;
    mb.nx = mb.ny = mb.nz = 10;
    mb.total_blocks = nblocks;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      blocks.emplace_back(b, vis::serialize_dataset(vis::DataSet{
                                 apps::mandelbulb_block(mb, b)}));
    }
    client_proc = &net.create_process(0);
    client = std::make_unique<Client>(*client_proc);
  }

  // Runs `fn` in a client fiber and drives the simulation to completion.
  template <typename Fn>
  void run(Fn fn) {
    client_proc->spawn("test-app", std::move(fn));
    sim.run();
  }

  Expected<DistributedPipelineHandle> lookup() {
    return DistributedPipelineHandle::lookup(
        *client, area->bootstrap().contacts(), "render");
  }

  Server* server(net::ProcId id) {
    for (auto& s : area->servers())
      if (s->address() == id) return s.get();
    return nullptr;
  }

  // The first alive server holding at least one backend (primary) block for
  // `iteration`; null if none.
  Server* first_primary_holder(std::uint64_t iteration) {
    for (auto& s : area->servers()) {
      if (!s->alive()) continue;
      Backend* b = s->pipeline("render");
      if (b != nullptr && !b->integrity_scan(iteration).empty()) return s.get();
    }
    return nullptr;
  }

  // The compositing root's image hash for `iteration` (0 if not rendered).
  std::uint64_t hash_of(std::uint64_t iteration) {
    for (auto& s : area->servers()) {
      auto* cat = dynamic_cast<CatalystBackend*>(s->pipeline("render"));
      if (cat == nullptr) continue;
      for (const auto& rec : cat->records()) {
        if (rec.iteration == iteration && rec.image_hash != 0)
          return rec.image_hash;
      }
    }
    return 0;
  }

  // Stages every block of `iteration` through `h` (field name default).
  void stage_all(DistributedPipelineHandle& h, std::uint64_t iteration) {
    for (const auto& [id, data] : blocks) {
      ASSERT_TRUE(h.stage(iteration, id, std::span<const std::byte>(data)).ok());
    }
  }

  des::Simulation sim;
  net::Network net;
  std::unique_ptr<StagingArea> area;
  std::vector<IterationBlock> blocks;
  net::Process* client_proc = nullptr;
  std::unique_ptr<Client> client;
};

// The stage-time checksum travels with every copy: the backend slot and the
// server-level replica store both carry the client-computed CRC32C, and the
// integrity scan reports every block as valid right after staging.
TEST(Integrity, ChecksumsTravelWithEveryCopy) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);

    std::size_t primaries = 0;
    std::size_t replicas = 0;
    for (auto& s : w.area->servers()) {
      Backend* b = s->pipeline("render");
      ASSERT_NE(b, nullptr);
      for (const auto& info : b->integrity_scan(1)) {
        EXPECT_TRUE(info.valid) << "block " << info.block_id
                                << " invalid right after staging";
        EXPECT_NE(info.checksum, 0u);
        EXPECT_EQ(info.copyset.size(), 2u);
        ++primaries;
      }
      replicas += s->replica_count("render", 1);
    }
    EXPECT_EQ(primaries, w.blocks.size());
    EXPECT_EQ(replicas, w.blocks.size());  // R=2: one buddy copy per block

    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  EXPECT_NE(w.hash_of(1), 0u);
}

// In-transit corruption: with every RDMA pull flipping one byte on the
// wire, the pull's digest of the landed bytes differs from the client's
// checksum on both the primary and the buddy-replica path, so each server
// answers corrupt (after the client's bounded retransmits) and stores
// nothing. Once the wire is clean the same block stages and renders.
TEST(Integrity, PullDigestCatchesInTransitFlipOnBothCopies) {
  IntegrityWorld w(2, 1, /*scrub=*/0);
  chaos::Rule wire;
  wire.kind = chaos::RuleKind::corrupt;
  wire.box = "rdma";
  chaos::ChaosEngine engine(chaos::ChaosPlan{21, {wire}});
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    const auto& [id, data] = w.blocks[0];
    engine.attach(w.net);
    EXPECT_EQ(h->stage(1, id, std::span<const std::byte>(data)).code(),
              StatusCode::corrupt);
    w.net.set_fault_injector(nullptr);
    for (auto& s : w.area->servers()) {
      EXPECT_GE(count(*s, "integrity.mismatch"), 1u) << s->address();
      EXPECT_EQ(count(*s, "integrity.mismatch"),
                count(*s, "integrity.verify"));
      EXPECT_TRUE(s->pipeline("render")->integrity_scan(1).empty());
      EXPECT_EQ(s->replica_count("render", 1), 0u);
    }
    ASSERT_TRUE(h->stage(1, id, std::span<const std::byte>(data)).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  EXPECT_NE(w.hash_of(1), 0u);
}

// A bit flipped in a primary backend slot is caught by the execute-time
// verify and silently repaired from the buddy replica: the client sees a
// clean execute and the rendered image matches the corruption-free one.
TEST(Integrity, ExecuteRepairsPrimaryRotFromBuddyReplica) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);

    // Clean reference iteration.
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    Server* s = w.first_primary_holder(2);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    // pick = 0 deterministically rots the first backend (primary) block.
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_EQ(res.bytes, 1u);
    EXPECT_FALSE(res.deferred);

    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(count(*s, "integrity.mismatch"), 1u);
  EXPECT_EQ(count(*s, "integrity.repair"), 1u);
  EXPECT_GT(count(*s, "integrity.repair_bytes"), 0u);
  EXPECT_EQ(count(*s, "integrity.restage_fallback"), 0u);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Truncation and zeroing (the other two corruption modes) are equally
// caught and repaired -- the checksum does not care how the bytes rotted.
TEST(Integrity, RepairsTruncatedAndZeroedPayloads) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();

    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::truncate, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_GT(res.bytes, 0u);
    ASSERT_TRUE(h->execute(1).ok());

    res = Registry::corrupt(&w.sim, victim, CorruptMode::zero, 0);
    EXPECT_EQ(res.blocks, 1u);
    EXPECT_GT(res.bytes, 0u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(count(*s, "integrity.mismatch"), 2u);
  EXPECT_EQ(count(*s, "integrity.repair"), 2u);
  EXPECT_NE(w.hash_of(1), 0u);
}

// The background scrubber finds rot in the replica store -- bytes nothing
// has read yet -- and repairs it in place from the primary before any
// promotion could hand the backend damaged data.
TEST(Integrity, ScrubberRepairsReplicaRotAtRest) {
  IntegrityWorld w(3, 4, /*scrub=*/milliseconds(50));
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);

    Server* s = nullptr;
    for (auto& cand : w.area->servers()) {
      if (cand->replica_count("render", 1) > 0) {
        s = cand.get();
        break;
      }
    }
    ASSERT_NE(s, nullptr);
    victim = s->address();
    // Candidates enumerate backend blocks first, then the replica store:
    // pick = scan size hits the first replica.
    const std::uint64_t pick =
        s->pipeline("render")->integrity_scan(1).size();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, pick);
    EXPECT_EQ(res.blocks, 1u);

    w.sim.sleep_for(milliseconds(300));  // several scrub periods

    EXPECT_GE(count(*s, "integrity.scrub"), 2u);
    EXPECT_EQ(count(*s, "integrity.mismatch"), 1u);
    EXPECT_EQ(count(*s, "integrity.repair"), 1u);

    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  EXPECT_NE(w.hash_of(1), 0u);
}

// Unreplicated staging (R=1): a rotted block has no buddy to repair from, so
// execute reports Corrupt with the block id in the status detail and the
// client re-stages exactly that block from its pristine copy.
TEST(Integrity, NoIntactCopyReportsBlockForTargetedRestage) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(1);

    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    Server* s = w.first_primary_holder(2);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    ASSERT_EQ(res.blocks, 1u);

    Status st = h->execute(2);
    ASSERT_EQ(st.code(), StatusCode::corrupt);
    ASSERT_NE(st.detail(), 0u);
    const std::uint64_t bad = st.detail() - 1;
    ASSERT_LT(bad, w.blocks.size());
    // Mirror the resilient loop's recovery protocol: the peers that entered
    // the aborted execute are parked in the old collective tag space, so a
    // recovery commit (fresh communicator epoch, staged blocks kept) must
    // precede the targeted re-stage and the retry.
    ASSERT_TRUE(h->reactivate(2).ok());
    ASSERT_TRUE(h->stage(2, bad,
                         std::span<const std::byte>(w.blocks[bad].second))
                    .ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(count(*s, "integrity.mismatch"), 1u);
  EXPECT_EQ(count(*s, "integrity.repair"), 0u);
  EXPECT_EQ(count(*s, "integrity.restage_fallback"), 1u);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Double fault: every copy of every block rots (2 servers, so each copyset
// is {A, B} and both are hit). Repair has nowhere to turn; the client heals
// the iteration block by block through the Corrupt detail hints.
TEST(Integrity, ClientHealsIterationWhenAllCopiesRot) {
  IntegrityWorld w(2, 3, /*scrub=*/0);
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);

    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    ASSERT_TRUE(h->activate(2).ok());
    w.stage_all(*h, 2);
    for (auto& s : w.area->servers()) {
      const std::size_t total =
          s->pipeline("render")->integrity_scan(2).size() +
          s->replica_count("render", 2);
      for (std::size_t pick = 0; pick < total; ++pick) {
        auto res = Registry::corrupt(&w.sim, s->address(),
                                     CorruptMode::bit_flip, pick);
        ASSERT_EQ(res.blocks, 1u);
      }
    }

    Status st;
    int rounds = 0;
    for (; rounds < 8; ++rounds) {
      st = h->execute(2);
      if (st.ok()) break;
      ASSERT_EQ(st.code(), StatusCode::corrupt);
      ASSERT_NE(st.detail(), 0u);
      const std::uint64_t bad = st.detail() - 1;
      ASSERT_LT(bad, w.blocks.size());
      // Fresh epoch before the targeted re-stage, like the resilient loop:
      // the survivors of the aborted execute wait in the old tag space.
      ASSERT_TRUE(h->reactivate(2).ok());
      ASSERT_TRUE(h->stage(2, bad,
                           std::span<const std::byte>(w.blocks[bad].second))
                      .ok());
    }
    ASSERT_TRUE(st.ok());
    EXPECT_LE(rounds, 3);  // one restage round per block at worst
    ASSERT_TRUE(h->deactivate(2).ok());
  });
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t repairs = 0;
  for (auto& s : w.area->servers()) {
    mismatches += count(*s, "integrity.mismatch");
    fallbacks += count(*s, "integrity.restage_fallback");
    repairs += count(*s, "integrity.repair");
  }
  EXPECT_GE(mismatches, w.blocks.size());
  EXPECT_GE(fallbacks, w.blocks.size());
  EXPECT_EQ(repairs, 0u);  // no intact copy anywhere until the re-stages
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// A corruption aimed at an idle server defers to its next stored payload
// (rot on write). With both copies of the single block poisoned this way,
// run_resilient_iteration recovers through a partial recovery + targeted
// re-stage -- never a full scratch re-stage -- and the image is unharmed.
TEST(Integrity, ResilientLoopAbsorbsDeferredDoubleCorruption) {
  IntegrityWorld w(2, 1, /*scrub=*/0);
  ResilientStats st;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ResilientOptions opts;
    opts.stats = &st;
    opts.backoff.base = milliseconds(200);
    ASSERT_TRUE(run_resilient_iteration(*h, 1, w.blocks, opts).ok());

    // Nothing staged now: both corruptions arm against the next write, so
    // iteration 2's primary AND replica rot the moment they land.
    for (auto& s : w.area->servers()) {
      auto res = Registry::corrupt(&w.sim, s->address(),
                                   CorruptMode::bit_flip, 7);
      EXPECT_EQ(res.blocks, 0u);
      EXPECT_TRUE(res.deferred);
    }
    ASSERT_TRUE(run_resilient_iteration(*h, 2, w.blocks, opts).ok());
  });
  EXPECT_GE(st.attempts, 2);
  EXPECT_GE(st.partial_recoveries, 1);
  EXPECT_GE(st.targeted_restages, 1);
  EXPECT_EQ(st.full_restages, 0);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Same deferred double fault without replication: partial recovery is off
// the table, so the resilient loop falls back to a full scratch re-stage.
TEST(Integrity, UnreplicatedDeferredCorruptionForcesFullRestage) {
  IntegrityWorld w(2, 2, /*scrub=*/0);
  ResilientStats st;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(1);
    ResilientOptions opts;
    opts.stats = &st;
    opts.backoff.base = milliseconds(200);
    ASSERT_TRUE(run_resilient_iteration(*h, 1, w.blocks, opts).ok());

    // Aim at block 0's primary: the same view re-stages the same placement,
    // so this server is guaranteed to store a payload next iteration.
    auto res = Registry::corrupt(&w.sim, h->copyset_for(0)[0],
                                 CorruptMode::zero, 3);
    EXPECT_TRUE(res.deferred);
    ASSERT_TRUE(run_resilient_iteration(*h, 2, w.blocks, opts).ok());
  });
  EXPECT_GE(st.full_restages, 1);
  EXPECT_EQ(st.targeted_restages, 0);
  ASSERT_NE(w.hash_of(1), 0u);
  EXPECT_EQ(w.hash_of(2), w.hash_of(1));
}

// Every detection strikes the server that held the bad bytes; three strikes
// and the supervisor quarantines its node, exactly like a flapping daemon.
// Detection and repair already contained the damage, so the server is left
// running -- quarantine only stops re-homing future daemons there.
TEST(Integrity, SupervisorQuarantinesRepeatOffender) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  Supervisor sup(w.sim, *w.area, SupervisorConfig{});
  sup.start();
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    for (int i = 0; i < 3; ++i) {
      auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
      ASSERT_EQ(res.blocks, 1u);
      ASSERT_TRUE(h->execute(1).ok());  // detected + repaired every time
    }
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  sup.stop();
  EXPECT_EQ(sup.stats().integrity_strikes, 3);
  EXPECT_EQ(sup.stats().integrity_quarantines, 1);
  Server* s = w.server(victim);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->alive());  // quarantined, not killed
  EXPECT_EQ(count(*s, "integrity.repair"), 3u);
}

// The admin metrics endpoint serves the server's own integrity counts.
TEST(Integrity, AdminEndpointReportsCounters) {
  IntegrityWorld w(3, 4, /*scrub=*/0);
  net::ProcId victim = 0;
  w.run([&] {
    auto h = w.lookup();
    ASSERT_TRUE(h.has_value());
    h->set_replication(2);
    ASSERT_TRUE(h->activate(1).ok());
    w.stage_all(*h, 1);
    Server* s = w.first_primary_holder(1);
    ASSERT_NE(s, nullptr);
    victim = s->address();
    auto res = Registry::corrupt(&w.sim, victim, CorruptMode::bit_flip, 0);
    ASSERT_EQ(res.blocks, 1u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    auto doc = admin.get_metrics(victim, "integrity.");
    ASSERT_TRUE(doc.has_value());
    const json::Value& counters = *doc->find("counters");
    EXPECT_EQ(counters.number_or("integrity.mismatch", 0),
              static_cast<double>(count(*s, "integrity.mismatch")));
    EXPECT_EQ(counters.number_or("integrity.repair", 0),
              static_cast<double>(count(*s, "integrity.repair")));
    EXPECT_EQ(counters.number_or("integrity.mismatch", 0), 1.0);
    EXPECT_EQ(counters.number_or("integrity.repair", 0), 1.0);
    EXPECT_GT(counters.number_or("integrity.verify", 0), 0.0);
    EXPECT_EQ(counters.find("integrity.restage_fallback"), nullptr);
  });
}

}  // namespace
}  // namespace colza
