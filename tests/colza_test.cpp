// Integration tests for the Colza core: backend registry, the full
// activate/stage/execute/deactivate protocol against a live staging area,
// 2PC view agreement, the admin interface, elastic scale-up/down while a
// simulation runs, and the freeze semantics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "colza/admin.hpp"
#include "colza/backend.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/histogram_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "vis/data.hpp"

namespace colza {
namespace {

using des::milliseconds;
using des::seconds;

// A trivial recording backend used to observe protocol behaviour.
class RecordingBackend final : public Backend {
 public:
  explicit RecordingBackend(Context ctx) : Backend(std::move(ctx)) {
    instances().push_back(this);
  }
  ~RecordingBackend() override {
    auto& v = instances();
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
  }

  Status activate(std::uint64_t it) override {
    log.push_back("activate:" + std::to_string(it));
    return Status::Ok();
  }
  Status stage(StagedBlock b) override {
    log.push_back("stage:" + std::to_string(b.block_id));
    bytes += b.data.size();
    return Status::Ok();
  }
  Status execute(std::uint64_t it) override {
    log.push_back("execute:" + std::to_string(it));
    if (comm_ != nullptr) last_comm_size = comm_->size();
    return Status::Ok();
  }
  Status deactivate(std::uint64_t it) override {
    log.push_back("deactivate:" + std::to_string(it));
    return Status::Ok();
  }

  static std::vector<RecordingBackend*>& instances() {
    static std::vector<RecordingBackend*> v;
    return v;
  }

  std::vector<std::string> log;
  std::size_t bytes = 0;
  int last_comm_size = 0;
};

COLZA_REGISTER_BACKEND("recording", RecordingBackend)

// Harness: staging area with n servers (instant launch for determinism) and
// one client process.
class ColzaWorld {
 public:
  explicit ColzaWorld(int n, std::uint64_t seed = 11)
      : sim(des::SimConfig{.seed = seed}), net(sim) {
    ServerConfig cfg;
    cfg.init_cost = milliseconds(50);
    LaunchModel instant{des::milliseconds(10), 0.0, des::milliseconds(10)};
    area = std::make_unique<StagingArea>(net, cfg, instant, seed);
    area->launch_initial(n, /*base_node=*/100);
    sim.run_until(seconds(2));  // daemons up and converged
    client_proc = &net.create_process(0);
    client = std::make_unique<Client>(*client_proc);
  }

  // Creates pipeline `name` of `type` on every alive server.
  void create_everywhere(const std::string& name, const std::string& type,
                         const std::string& cfg = "") {
    client_proc->spawn("admin", [this, name, type, cfg] {
      Admin admin(client->engine());
      for (net::ProcId s : area->alive_addresses()) {
        ASSERT_TRUE(admin.create_pipeline(s, name, type, cfg).ok());
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

// ----------------------------------------------------------------- registry

TEST(BackendRegistry, CreateByName) {
  EXPECT_TRUE(BackendRegistry::has("recording"));
  EXPECT_TRUE(BackendRegistry::has("catalyst"));
  EXPECT_FALSE(BackendRegistry::has("nope"));
  auto r = BackendRegistry::create("nope", {});
  EXPECT_EQ(r.status().code(), StatusCode::not_found);
}

// ----------------------------------------------------------------- protocol

TEST(Colza, FullIterationProtocol) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  bool done = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value()) << h.status().to_string();
    EXPECT_EQ(h->server_count(), 4u);

    ASSERT_TRUE(h->activate(1).ok());
    std::vector<std::byte> data(4096, std::byte{7});
    for (std::uint64_t b = 0; b < 8; ++b) {
      ASSERT_TRUE(h->stage(1, b, data).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    done = true;
  });
  w.sim.run();
  ASSERT_TRUE(done);

  // Every server saw activate/execute/deactivate; blocks were distributed
  // round-robin (2 each).
  ASSERT_EQ(RecordingBackend::instances().size(), 4u);
  for (auto* b : RecordingBackend::instances()) {
    EXPECT_EQ(b->log.front(), "activate:1");
    EXPECT_EQ(b->log.back(), "deactivate:1");
    int stages = 0;
    for (const auto& e : b->log) stages += e.rfind("stage:", 0) == 0 ? 1 : 0;
    EXPECT_EQ(stages, 2);
    EXPECT_EQ(b->bytes, 2 * 4096u);
    EXPECT_EQ(b->last_comm_size, 4);
  }
}

TEST(Colza, StageDataArrivesIntact) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    // Stage a real dataset and check it round-trips through RDMA.
    vis::UniformGrid g;
    g.dims = {8, 8, 8};
    std::vector<float> f(g.point_count());
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i);
    g.point_data.add(vis::DataArray::make<float>("field", f));
    ASSERT_TRUE(h->stage(1, 0, vis::DataSet{g}).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
  bool found = false;
  for (auto* b : RecordingBackend::instances()) {
    if (b->bytes == 0) continue;
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Colza, StageToUnknownPipelineFails) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "ghost");
    ASSERT_TRUE(h.has_value());  // lookup only fetches the view
    std::vector<std::byte> data(16);
    EXPECT_EQ(h->stage(1, 0, data).code(), StatusCode::not_found);
  });
  w.sim.run();
}

TEST(Colza, ActivateUnknownPipelineAborts2pc) {
  ColzaWorld w(2);
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "ghost");
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(h->activate(1).ok());
  });
  w.sim.run();
}

TEST(Colza, NonBlockingOpsComplete) {
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    auto a = h->iactivate(1);
    ASSERT_TRUE(a.wait().ok());
    std::vector<std::byte> d1(512), d2(512);
    auto s1 = h->istage(1, 0, d1);
    auto s2 = h->istage(1, 1, d2);
    ASSERT_TRUE(s1.wait().ok());
    ASSERT_TRUE(s2.wait().ok());
    auto e = h->iexecute(1);
    ASSERT_TRUE(e.wait().ok());
    ASSERT_TRUE(h->ideactivate(1).wait().ok());
  });
  w.sim.run();
}

TEST(Colza, CustomDistributionPolicy) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    // Everything to server 0 regardless of block id.
    h->set_distribution_policy([](std::uint64_t, std::size_t) { return 0u; });
    ASSERT_TRUE(h->activate(1).ok());
    std::vector<std::byte> d(128);
    for (std::uint64_t b = 0; b < 6; ++b) ASSERT_TRUE(h->stage(1, b, d).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
  int with_data = 0;
  for (auto* b : RecordingBackend::instances()) {
    if (b->bytes > 0) {
      ++with_data;
      EXPECT_EQ(b->bytes, 6 * 128u);
    }
  }
  EXPECT_EQ(with_data, 1);
}

// ----------------------------------------------------------------- admin

TEST(Colza, AdminCreateListDestroy) {
  ColzaWorld w(2);
  w.client_proc->spawn("admin", [&] {
    Admin admin(w.client->engine());
    const net::ProcId s = w.area->alive_addresses()[0];
    ASSERT_TRUE(admin.create_pipeline(s, "p1", "recording").ok());
    ASSERT_TRUE(admin.create_pipeline(s, "p2", "recording", "{}").ok());
    EXPECT_EQ(admin.create_pipeline(s, "p1", "recording").code(),
              StatusCode::already_exists);
    EXPECT_EQ(admin.create_pipeline(s, "p3", "no-such-type").code(),
              StatusCode::not_found);
    EXPECT_EQ(
        admin.create_pipeline(s, "p3", "recording", "{bad json").code(),
        StatusCode::invalid_argument);
    // A catalyst config asking for an unusable image is refused at create
    // time, naming the key, instead of failing every execute.
    const Status zero_width =
        admin.create_pipeline(s, "p3", "catalyst", R"({"width":0})");
    EXPECT_EQ(zero_width.code(), StatusCode::invalid_argument);
    EXPECT_NE(zero_width.message().find("width"), std::string::npos)
        << zero_width.message();
    auto names = admin.list_pipelines(s);
    ASSERT_TRUE(names.has_value());
    EXPECT_EQ(*names, (std::vector<std::string>{"p1", "p2"}));
    ASSERT_TRUE(admin.destroy_pipeline(s, "p1").ok());
    EXPECT_EQ(admin.destroy_pipeline(s, "p1").code(), StatusCode::not_found);
  });
  w.sim.run();
}

// Regression: destroy a pipeline while its viewer render is in flight. The
// tier's render fiber pops the producer and then yields on the modeled
// render charge; destroy_pipeline lands inside that window and frees the
// backend. The producer holds only a weak_ptr, so the already-popped render
// serves an empty frame instead of calling into freed memory.
TEST(Colza, DestroyPipelineDuringInFlightRender) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  Server* srv = nullptr;
  for (const auto& s : w.area->servers()) {
    if (s->alive()) {
      srv = s.get();
      break;
    }
  }
  ASSERT_NE(srv, nullptr);
  w.client_proc->spawn("driver", [&] {
    viewer::ViewerTier& tier = srv->viewer();
    const std::uint64_t id = tier.connect(/*quality=*/0);
    ASSERT_TRUE(tier.subscribe(id, "pipe", 0).ok());
    tier.publish("pipe", 1);
    // Yield long enough for the render fiber to pop the producer but less
    // than its modeled render cost, so the destroy lands mid-render.
    w.sim.sleep_for(des::microseconds(50));
    ASSERT_TRUE(srv->destroy_pipeline("pipe").ok());
    tier.quiesce();
  });
  w.sim.run();
}

TEST(Colza, AdminLeaveShrinksGroup) {
  ColzaWorld w(4);
  w.client_proc->spawn("admin", [&] {
    Admin admin(w.client->engine());
    const auto victims = w.area->alive_addresses();
    ASSERT_TRUE(admin.request_leave(victims[2]).ok());
  });
  w.sim.run();
  w.sim.run_until(w.sim.now() + seconds(15));
  EXPECT_EQ(w.area->alive_count(), 3u);
  for (const auto& s : w.area->servers()) {
    if (s->alive()) {
      EXPECT_EQ(s->group().size(), 3u);
    }
  }
}


TEST(Colza, AdminStatsReflectExecutions) {
  ColzaWorld w(2);
  w.create_everywhere("render", "catalyst",
                      R"({"mode":"isosurface","field":"f","width":16,"height":16})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "render");
    ASSERT_TRUE(h.has_value());
    // Two iterations with a tiny grid block.
    vis::UniformGrid g;
    g.dims = {6, 6, 6};
    std::vector<float> f(g.point_count());
    for (std::size_t i = 0; i < f.size(); ++i)
      f[i] = static_cast<float>(i % 9);
    g.point_data.add(vis::DataArray::make<float>("f", f));
    for (std::uint64_t it = 1; it <= 2; ++it) {
      ASSERT_TRUE(h->activate(it).ok());
      ASSERT_TRUE(h->stage(it, 0, vis::DataSet{g}).ok());
      ASSERT_TRUE(h->execute(it).ok());
      ASSERT_TRUE(h->deactivate(it).ok());
    }
    Admin admin(w.client->engine());
    auto stats = admin.get_stats(h->view()[0], "render");
    ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
    EXPECT_EQ(stats->string_or("pipeline", ""), "pipeline");
    EXPECT_DOUBLE_EQ(stats->number_or("executions", 0), 2.0);
    const auto* iters = stats->find("iterations");
    ASSERT_NE(iters, nullptr);
    ASSERT_EQ(iters->as_array().size(), 2u);
    EXPECT_DOUBLE_EQ(iters->as_array()[0].number_or("comm_size", 0), 2.0);
    // Unknown pipeline errors cleanly.
    EXPECT_EQ(admin.get_stats(h->view()[0], "nope").status().code(),
              StatusCode::not_found);
  });
  w.sim.run();
}


// ------------------------------------------------------- histogram backend

TEST(Histogram, DistributedMatchesSerialReference) {
  ColzaWorld w(3);
  w.create_everywhere(
      "hist", "histogram",
      R"({"field":"v","bins":8,"range_lo":0.0,"range_hi":8.0})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    // 6 blocks; block b carries 10 values all equal to b (bins are [b,b+1)).
    for (std::uint64_t b = 0; b < 6; ++b) {
      vis::UniformGrid g;
      g.dims = {10, 2, 2};  // 40 points... use exactly 10 values? points=40
      g.dims = {10, 1, 1};
      // A 10x1x1 grid has 10 points.
      g.point_data.add(vis::DataArray::make<float>(
          "v", std::vector<float>(10, static_cast<float>(b) + 0.5f)));
      ASSERT_TRUE(h->stage(1, b, vis::DataSet{g}).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    auto stats = admin.get_stats(h->view()[0], "hist");
    ASSERT_TRUE(stats.has_value());
    const auto* iters = stats->find("iterations");
    ASSERT_NE(iters, nullptr);
    ASSERT_EQ(iters->as_array().size(), 1u);
    const auto& rec = iters->as_array()[0];
    EXPECT_DOUBLE_EQ(rec.number_or("values", 0), 60.0);
    EXPECT_DOUBLE_EQ(rec.number_or("min", -1), 0.5);
    EXPECT_DOUBLE_EQ(rec.number_or("max", -1), 5.5);
    const auto* counts = rec.find("counts");
    ASSERT_NE(counts, nullptr);
    ASSERT_EQ(counts->as_array().size(), 8u);
    for (int bin = 0; bin < 8; ++bin) {
      const double expect = bin < 6 ? 10.0 : 0.0;
      EXPECT_DOUBLE_EQ(counts->as_array()[static_cast<std::size_t>(bin)]
                           .as_number(),
                       expect)
          << "bin " << bin;
    }
  });
  w.sim.run();
}

TEST(Histogram, AllServersAgreeOnGlobalResult) {
  ColzaWorld w(4);
  w.create_everywhere("hist", "histogram",
                      R"({"field":"v","bins":4,"range_lo":0,"range_hi":4})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    for (std::uint64_t b = 0; b < 8; ++b) {
      vis::UniformGrid g;
      g.dims = {4, 1, 1};
      g.point_data.add(vis::DataArray::make<float>(
          "v", std::vector<float>{0.5f, 1.5f, 2.5f, 3.5f}));
      ASSERT_TRUE(h->stage(1, b, vis::DataSet{g}).ok());
    }
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    // Every server holds the identical global histogram (allreduce).
    Admin admin(w.client->engine());
    for (net::ProcId server : h->view()) {
      auto stats = admin.get_stats(server, "hist");
      ASSERT_TRUE(stats.has_value());
      const auto& rec = stats->find("iterations")->as_array()[0];
      EXPECT_DOUBLE_EQ(rec.number_or("values", 0), 32.0);
      for (const auto& c : rec.find("counts")->as_array()) {
        EXPECT_DOUBLE_EQ(c.as_number(), 8.0);
      }
    }
  });
  w.sim.run();
}

TEST(Histogram, MissingFieldFailsStage) {
  ColzaWorld w(2);
  w.create_everywhere("hist", "histogram", R"({"field":"nope"})");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "hist");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    vis::UniformGrid g;
    g.dims = {4, 1, 1};
    g.point_data.add(
        vis::DataArray::make<float>("v", std::vector<float>(4, 1.0f)));
    EXPECT_EQ(h->stage(1, 0, vis::DataSet{g}).code(), StatusCode::not_found);
    ASSERT_TRUE(h->deactivate(1).ok());
  });
  w.sim.run();
}


TEST(Histogram, StateExportImportMergesByIteration) {
  Backend::Context ctx;
  auto a = BackendRegistry::create("histogram", std::move(ctx));
  ASSERT_TRUE(a.has_value());
  auto* ha = dynamic_cast<HistogramBackend*>(a->get());
  ASSERT_NE(ha, nullptr);

  Backend::Context ctx2;
  auto b = BackendRegistry::create("histogram", std::move(ctx2));
  auto* hb = dynamic_cast<HistogramBackend*>(b->get());

  // Hand-craft results: a has iterations {1, 2}; b has {2, 3}.
  // (import merges: duplicates kept once, union sorted.)
  HistogramBackend::Result r1;
  r1.iteration = 1;
  r1.counts = {1, 2};
  r1.total_values = 3;
  HistogramBackend::Result r2 = r1;
  r2.iteration = 2;
  HistogramBackend::Result r3 = r1;
  r3.iteration = 3;
  ASSERT_TRUE(ha->import_state(pack(std::vector<HistogramBackend::Result>{r1, r2})).ok());
  ASSERT_TRUE(hb->import_state(pack(std::vector<HistogramBackend::Result>{r2, r3})).ok());

  auto state = hb->export_state();
  ASSERT_TRUE(ha->import_state(state).ok());
  ASSERT_EQ(ha->results().size(), 3u);
  EXPECT_EQ(ha->results()[0].iteration, 1u);
  EXPECT_EQ(ha->results()[1].iteration, 2u);
  EXPECT_EQ(ha->results()[2].iteration, 3u);
  // Garbage state is rejected, not crashed on.
  std::vector<std::byte> garbage(5, std::byte{0xff});
  EXPECT_EQ(ha->import_state(garbage).code(), StatusCode::invalid_argument);
}

// ------------------------------------------------------------- elasticity

TEST(Colza, ScaleUpBetweenIterationsGrowsComm) {
  ColzaWorld w(2);
  w.create_everywhere("pipe", "recording");
  int comm_before = 0, comm_after = 0;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    comm_before = RecordingBackend::instances().front()->last_comm_size;

    // A third server joins; wait for gossip to settle, then create the
    // pipeline on it and run another iteration.
    bool joined = false;
    w.area->launch_one(200, [&](Server&) { joined = true; });
    while (!joined) w.sim.sleep_for(seconds(1));
    w.sim.sleep_for(seconds(8));  // membership propagation
    Admin admin(w.client->engine());
    for (net::ProcId s : w.area->alive_addresses()) {
      (void)admin.create_pipeline(s, "pipe", "recording");  // new server only
    }
    ASSERT_TRUE(h->activate(2).ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
    comm_after = RecordingBackend::instances().front()->last_comm_size;
    EXPECT_EQ(h->server_count(), 3u);
  });
  w.sim.run();
  EXPECT_EQ(comm_before, 2);
  EXPECT_EQ(comm_after, 3);
}

TEST(Colza, ScaleDownBetweenIterationsShrinksComm) {
  ColzaWorld w(4);
  w.create_everywhere("pipe", "recording");
  int comm_after = -1;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());

    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(h->view()[3]).ok());
    w.sim.sleep_for(seconds(12));  // leave propagates

    ASSERT_TRUE(h->activate(2).ok());
    ASSERT_TRUE(h->execute(2).ok());
    ASSERT_TRUE(h->deactivate(2).ok());
    EXPECT_EQ(h->server_count(), 3u);
    for (auto* b : RecordingBackend::instances()) {
      if (!b->log.empty() && b->log.back() == "deactivate:2")
        comm_after = b->last_comm_size;
    }
  });
  w.sim.run();
  EXPECT_EQ(comm_after, 3);
}

TEST(Colza, ActivateRetriesAcrossViewChange) {
  // A server joins right around activate time; the client's stale view makes
  // the first 2PC round abort, and the retry must succeed.
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  bool ok = false;
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    // Let a 4th server join while we are not looking.
    bool joined = false;
    w.area->launch_one(201, [&](Server&) { joined = true; });
    while (!joined) w.sim.sleep_for(seconds(1));
    w.sim.sleep_for(seconds(8));
    Admin admin(w.client->engine());
    for (net::ProcId s : w.area->alive_addresses()) {
      (void)admin.create_pipeline(s, "pipe", "recording");
    }
    // Our handle still has the 3-server view; activate must reconcile.
    EXPECT_EQ(h->server_count(), 3u);
    Status s = h->activate(5);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(h->server_count(), 4u);
    ASSERT_TRUE(h->execute(5).ok());
    ASSERT_TRUE(h->deactivate(5).ok());
    ok = true;
  });
  w.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Colza, LeaveDeferredWhileFrozen) {
  // An admin leave arriving during an active iteration must not take effect
  // until deactivate (paper S II-B: activate freezes the group).
  ColzaWorld w(3);
  w.create_everywhere("pipe", "recording");
  w.client_proc->spawn("app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "pipe");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->activate(1).ok());
    const net::ProcId victim = h->view()[2];
    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(victim).ok());
    w.sim.sleep_for(seconds(2));
    // Server must still be alive and answering while frozen.
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(h->execute(1).ok());
    ASSERT_TRUE(h->deactivate(1).ok());
    // Now the deferred leave proceeds.
    w.sim.sleep_for(seconds(12));
    EXPECT_EQ(w.area->alive_count(), 2u);
  });
  w.sim.run();
}


TEST(Colza, TwoPipelinesConcurrentIterations) {
  // Two pipelines active at the same time (overlapping freeze windows): the
  // per-server active-iteration counting must keep the membership frozen
  // until BOTH deactivate.
  ColzaWorld w(3);
  w.create_everywhere("a", "recording");
  w.create_everywhere("b", "recording");
  w.client_proc->spawn("app", [&] {
    auto ha = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "a");
    auto hb = DistributedPipelineHandle::lookup(
        *w.client, w.area->bootstrap().contacts(), "b");
    ASSERT_TRUE(ha.has_value());
    ASSERT_TRUE(hb.has_value());
    ASSERT_TRUE(ha->activate(1).ok());
    ASSERT_TRUE(hb->activate(9).ok());
    std::vector<std::byte> d(64);
    ASSERT_TRUE(ha->stage(1, 0, d).ok());
    ASSERT_TRUE(hb->stage(9, 1, d).ok());
    // Ask a server to leave while both are frozen: it must defer.
    Admin admin(w.client->engine());
    ASSERT_TRUE(admin.request_leave(ha->view()[2]).ok());
    w.sim.sleep_for(seconds(2));
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(ha->execute(1).ok());
    ASSERT_TRUE(ha->deactivate(1).ok());
    // Still frozen: pipeline b is active.
    w.sim.sleep_for(seconds(2));
    EXPECT_EQ(w.area->alive_count(), 3u);
    ASSERT_TRUE(hb->execute(9).ok());
    ASSERT_TRUE(hb->deactivate(9).ok());
    // Now the deferred leave proceeds.
    w.sim.sleep_for(seconds(12));
    EXPECT_EQ(w.area->alive_count(), 2u);
  });
  w.sim.run();
}

// ------------------------------------------------------------- deployment

TEST(Deploy, LaunchModelRespectsBounds) {
  LaunchModel m;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const des::Duration d = m.sample(rng);
    EXPECT_GE(d, m.base);
    EXPECT_LE(d, m.cap);
  }
}

TEST(Deploy, ElasticJoinFasterAndStablerThanRestart) {
  // The Fig 4 claim in miniature: one elastic join completes in a stable
  // ~5 s, while a full restart of N+1 daemons suffers the max of N+1 random
  // launch latencies.
  des::Simulation sim;
  net::Network net(sim);
  ServerConfig cfg;
  StagingArea area(net, cfg, LaunchModel{}, /*seed=*/5);
  des::Time ready_at = 0;
  area.launch_initial(8, 0, [&] { ready_at = sim.now(); });
  sim.run_until(seconds(60));
  ASSERT_GT(ready_at, 0u);
  const des::Time restart_time = ready_at;  // proxy for a full redeploy

  des::Time join_started = sim.now();
  des::Time joined_at = 0;
  area.launch_one(100, [&](Server&) { joined_at = sim.now(); });
  sim.run_until(sim.now() + seconds(60));
  ASSERT_GT(joined_at, 0u);
  const des::Duration join_time = joined_at - join_started;
  EXPECT_LT(join_time, restart_time);
}

}  // namespace
}  // namespace colza
