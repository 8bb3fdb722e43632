// Microbenchmarks (google-benchmark) for the runtime substrate itself:
// fiber switching, sync primitives, the RPC engine, serialization, and the
// visualization kernels. These measure HOST wall time (how fast the
// simulator itself runs), not virtual time.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "catalyst/catalyst.hpp"
#include "mona/mona.hpp"
#include "common/archive.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "net/network.hpp"
#include "render/render.hpp"
#include "rpc/engine.hpp"
#include "vis/contour.hpp"
#include "vis/filters.hpp"

namespace {

using namespace colza;

void BM_FiberSpawnAndRun(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulation sim;
    for (int i = 0; i < 100; ++i) sim.spawn("f", [] {});
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FiberSpawnAndRun);

void BM_FiberContextSwitch(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulation sim;
    sim.spawn("yielder", [&sim] {
      for (int i = 0; i < 1000; ++i) sim.yield();
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // 2 switches per yield
}
BENCHMARK(BM_FiberContextSwitch);

void BM_MutexLockUnlock(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulation sim;
    sim.spawn("locker", [&sim] {
      des::Mutex m(sim);
      for (int i = 0; i < 1000; ++i) {
        m.lock();
        m.unlock();
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MutexLockUnlock);

void BM_RpcRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulation sim;
    net::Network net(sim);
    auto& ps = net.create_process(0);
    auto& pc = net.create_process(1);
    rpc::Engine server(ps, net::Profile::mona());
    rpc::Engine client(pc, net::Profile::mona());
    server.define("echo", [](const rpc::RequestInfo&, InArchive& in,
                             OutArchive& out) {
      std::int32_t v = 0;
      in.load(v);
      out.save(v);
      return Status::Ok();
    });
    pc.spawn("caller", [&] {
      for (int i = 0; i < 100; ++i) {
        auto r = client.call<std::int32_t>(server.self(), "echo",
                                           std::int32_t{i});
        benchmark::DoNotOptimize(r);
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RpcRoundTrip);

void BM_SerializeDataset(benchmark::State& state) {
  vis::UniformGrid g;
  g.dims = {32, 32, 32};
  g.point_data.add(vis::DataArray::make<float>(
      "f", std::vector<float>(g.point_count(), 1.5f)));
  const vis::DataSet ds{g};
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto blob = vis::serialize_dataset(ds);
    bytes += blob.size();
    auto back = vis::deserialize_dataset(blob);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeDataset);

void BM_MarchingTetrahedra(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vis::UniformGrid g;
  g.dims = {n, n, n};
  std::vector<float> f(g.point_count());
  const vis::Vec3 c{static_cast<float>(n) / 2, static_cast<float>(n) / 2,
                    static_cast<float>(n) / 2};
  for (std::uint32_t k = 0; k < n; ++k)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < n; ++i)
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - c).norm();
  g.point_data.add(vis::DataArray::make<float>("d", f));
  for (auto _ : state) {
    auto mesh = vis::isosurface(g, "d", static_cast<float>(n) / 3);
    benchmark::DoNotOptimize(mesh);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.cell_count()));
}
BENCHMARK(BM_MarchingTetrahedra)->Arg(16)->Arg(32);

void BM_Rasterize(benchmark::State& state) {
  vis::UniformGrid g;
  g.dims = {24, 24, 24};
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < 24; ++k)
    for (std::uint32_t j = 0; j < 24; ++j)
      for (std::uint32_t i = 0; i < 24; ++i)
        f[g.point_index(i, j, k)] =
            (g.point(i, j, k) - vis::Vec3{12, 12, 12}).norm();
  g.point_data.add(vis::DataArray::make<float>("d", f));
  const auto mesh = vis::isosurface(g, "d", 8.0f);
  const render::Camera cam = render::Camera::framing(mesh.bounds());
  render::FrameBuffer fb(256, 256);
  for (auto _ : state) {
    fb.clear();
    render::rasterize(fb, mesh, cam,
                      render::ColorMap{render::ColorMapKind::viridis, 0, 24});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mesh.triangle_count()));
}
BENCHMARK(BM_Rasterize);

// Perfbench elastic-mandelbulb's iteration (Fig 9's scene) on this thread:
// the mandelbulb preset over 64 blocks of 16^3 at 128^2, one task per
// (block, cell layer) drawn into one OrderedTarget in task order, which is
// an execute's render region at pool width 1.
struct MandelbulbIteration {
  catalyst::PipelineScript script = catalyst::PipelineScript::mandelbulb();
  std::vector<vis::UniformGrid> blocks;
  render::Camera camera;
  render::ColorMap cmap{script.colormap, script.range_lo, script.range_hi};

  MandelbulbIteration() {
    apps::MandelbulbParams p;
    p.nx = p.ny = p.nz = 16;
    p.total_blocks = 64;
    vis::Aabb bounds;
    for (std::uint32_t id = 0; id < p.total_blocks; ++id) {
      blocks.push_back(apps::mandelbulb_block(p, id));
      bounds.extend(blocks.back().bounds());
    }
    camera = render::Camera::framing(bounds);
  }
};

// The contour as the render path runs it, one cell layer per call, into a
// sink that keeps nothing: the straddle scan, gradients and edge vertices.
struct CountingSink {
  using Vertex = vis::EdgeVertex;
  std::size_t triangles = 0;
  Vertex vertex(const vis::EdgeVertex& v) const { return v; }
  void triangle(const Vertex&, const Vertex&, const Vertex&) { ++triangles; }
  void end_cell() {}
};

void BM_MandelbulbIterationContour(benchmark::State& state) {
  const MandelbulbIteration scene;
  std::size_t triangles = 0;
  for (auto _ : state) {
    CountingSink sink;
    for (const auto& g : scene.blocks)
      for (std::uint32_t k = 0; k + 1 < g.dims[2]; ++k)
        vis::contour_layers(g, scene.script.field, scene.script.iso_values[0],
                            scene.script.color_field, k, k + 1, sink);
    triangles = sink.triangles;
    benchmark::DoNotOptimize(triangles);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(triangles));
}
BENCHMARK(BM_MandelbulbIterationContour)->Unit(benchmark::kMillisecond);

void BM_MandelbulbIterationRender(benchmark::State& state) {
  const MandelbulbIteration scene;
  render::FrameBuffer fb(128, 128);
  std::size_t triangles = 0;
  for (auto _ : state) {
    fb.clear();
    render::OrderedTarget target(fb);
    triangles = 0;
    std::size_t task = 0;
    for (const auto& g : scene.blocks)
      for (std::uint32_t k = 0; k + 1 < g.dims[2]; ++k)
        triangles += render::rasterize_isosurface(
            target, task++, g, scene.script.field, scene.script.iso_values[0],
            scene.script.color_field, k, k + 1, scene.camera, scene.cmap);
    benchmark::DoNotOptimize(fb.rgba.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(triangles));
}
BENCHMARK(BM_MandelbulbIterationRender)->Unit(benchmark::kMillisecond);

void BM_MandelbulbBlock(benchmark::State& state) {
  apps::MandelbulbParams p;
  p.nx = p.ny = p.nz = 16;
  p.total_blocks = 4;
  for (auto _ : state) {
    auto block = apps::mandelbulb_block(p, 1);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * 16);
}
BENCHMARK(BM_MandelbulbBlock);

void BM_MonaMessageFlood(benchmark::State& state) {
  const auto msg_bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kMsgs = 200;
  std::size_t delivered = 0;
  for (auto _ : state) {
    des::Simulation sim;
    net::Network net(sim);
    auto& pa = net.create_process(0);
    auto& pb = net.create_process(1);
    mona::Instance ia(pa);
    mona::Instance ib(pb);
    pa.spawn("sender", [&] {
      std::vector<std::byte> data(msg_bytes, std::byte{7});
      for (int i = 0; i < kMsgs; ++i) ia.send(data, pb.id(), 5).check();
    });
    pb.spawn("receiver", [&] {
      std::vector<std::byte> buf(msg_bytes);
      for (int i = 0; i < kMsgs; ++i) ib.recv(buf, pa.id(), 5).check();
    });
    sim.run();
    delivered += kMsgs * msg_bytes;
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
  state.SetBytesProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_MonaMessageFlood)->Arg(64)->Arg(65536);

// ---------------------------------------------------------------------------
// Wall-clock "runtime report" mode (--runtime-report=PATH).
//
// Runs a fixed message-heavy scenario -- a ring of mona instances flooding
// point-to-point traffic plus a batch of collectives -- entirely in host
// time, and reports how fast the simulator core itself chews through it:
// DES events/sec and delivered payload bytes/sec, as JSON at PATH (the
// checked-in BENCH_runtime.json is the history of these numbers).
//
// --procs=N selects the scenario scale. N=8 is the historical scenario
// (comparable across PRs); 512 and 4096 shrink the per-proc message counts
// so one run stays in the seconds range while the simulated-process count --
// and with it the pending-event population and fiber table -- grows by two
// to three orders of magnitude.
//
// The scenario's event count is a pure function of the code, so the 8-proc
// count is pinned: any drift means the virtual timeline of the MoNA demux
// loop, the event queue or the sync primitives changed, and the report
// exits 1 (ctest bench_micro_runtime.events runs it in tier 1).

struct RuntimeReport {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t messages = 0;
  double events_per_sec = 0;
  double bytes_per_sec = 0;
  double messages_per_sec = 0;
};

struct ScenarioScale {
  int procs = 8;
  int msgs = 4000;      // per sender, small messages
  int big_msgs = 200;   // per sender, large messages
  int collectives = 60; // allreduce + barrier rounds over the ring
  std::size_t stack_size = 0;  // 0 = simulation default
};

ScenarioScale scale_for(int procs) {
  // The 8-proc numbers are the cross-PR comparable ones; the large scales
  // trade per-proc message counts for proc count so wall time stays bounded.
  if (procs <= 8) return ScenarioScale{8, 4000, 200, 60, 0};
  if (procs <= 512) return ScenarioScale{procs, 300, 12, 8, 0};
  // At 4k procs the default 512 KiB fiber stacks alone would cost ~4 GiB of
  // host RAM; the ring fibers need far less. Stack size does not affect the
  // virtual timeline.
  return ScenarioScale{procs, 50, 4, 2, 96 * 1024};
}

constexpr std::uint64_t kPinnedEvents8 = 110740;

RuntimeReport run_runtime_scenario(const ScenarioScale& sc) {
  const int kProcs = sc.procs;
  const int kMsgs = sc.msgs;           // per sender, small messages
  constexpr std::size_t kSmall = 64;
  const int kBigMsgs = sc.big_msgs;    // per sender, large messages
  constexpr std::size_t kBig = 64 * 1024;
  const int kCollectives = sc.collectives;
  RuntimeReport rep;

  des::SimConfig simcfg;
  if (sc.stack_size != 0) simcfg.default_stack_size = sc.stack_size;
  const auto t0 = std::chrono::steady_clock::now();
  des::Simulation sim(simcfg);
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kProcs; ++i) {
    procs.push_back(&net.create_process(static_cast<net::NodeId>(i / 2)));
    insts.push_back(std::make_unique<mona::Instance>(*procs.back()));
    addrs.push_back(procs.back()->id());
  }
  std::vector<std::shared_ptr<mona::Communicator>> comms(kProcs);
  for (int i = 0; i < kProcs; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("ring", [&, i] {
      auto& inst = *insts[static_cast<std::size_t>(i)];
      comms[static_cast<std::size_t>(i)] = inst.comm_create(addrs);
      auto& comm = *comms[static_cast<std::size_t>(i)];
      const int next = (i + 1) % kProcs;
      const int prev = (i - 1 + kProcs) % kProcs;
      std::vector<std::byte> out(kBig, std::byte{1});
      std::vector<std::byte> in(kBig);
      // Small-message flood around the ring.
      for (int m = 0; m < kMsgs; ++m) {
        comm.send({out.data(), kSmall}, next, 1).check();
        comm.recv({in.data(), kSmall}, prev, 1).check();
      }
      // Large-message flood.
      for (int m = 0; m < kBigMsgs; ++m) {
        comm.send(out, next, 2).check();
        comm.recv(in, prev, 2).check();
      }
      // Collective pressure: allreduce + barrier churn.
      std::vector<double> v(512, 1.0), r(512);
      const auto op = mona::op_sum<double>();
      for (int c = 0; c < kCollectives; ++c) {
        comm.allreduce({reinterpret_cast<const std::byte*>(v.data()),
                        v.size() * sizeof(double)},
                       {reinterpret_cast<std::byte*>(r.data()),
                        r.size() * sizeof(double)},
                       v.size(), op)
            .check();
        comm.barrier().check();
      }
    });
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  rep.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  rep.events = sim.events_processed();
  rep.messages = static_cast<std::uint64_t>(kProcs) * (kMsgs + kBigMsgs);
  rep.delivered_bytes =
      static_cast<std::uint64_t>(kProcs) *
      (static_cast<std::uint64_t>(kMsgs) * kSmall +
       static_cast<std::uint64_t>(kBigMsgs) * kBig);
  rep.events_per_sec = static_cast<double>(rep.events) / rep.wall_seconds;
  rep.bytes_per_sec =
      static_cast<double>(rep.delivered_bytes) / rep.wall_seconds;
  rep.messages_per_sec =
      static_cast<double>(rep.messages) / rep.wall_seconds;
  return rep;
}

// Opens a report's output before its scenario runs, so an unwritable path
// fails at once instead of after a full run.
std::FILE* open_report(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) std::fprintf(stderr, "cannot open %s\n", path.c_str());
  return f;
}

// One run of the scenario: its event count is a pure function of the code,
// and perfbench's staging-flood workload is the instrument for host time,
// so the report's wall numbers are a single run's.
int run_runtime_report(const std::string& path, int procs) {
  std::FILE* f = open_report(path);
  if (f == nullptr) return 1;
  const ScenarioScale sc = scale_for(procs);
  const RuntimeReport rep = run_runtime_scenario(sc);
  std::fprintf(f,
               "{\n"
               "  \"scenario\": \"mona ring flood + collectives\",\n"
               "  \"procs\": %d,\n"
               "  \"msgs_per_proc\": %d,\n"
               "  \"big_msgs_per_proc\": %d,\n"
               "  \"collectives\": %d,\n"
               "  \"wall_seconds\": %.6f,\n"
               "  \"events\": %llu,\n"
               "  \"messages\": %llu,\n"
               "  \"delivered_bytes\": %llu,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"messages_per_sec\": %.0f,\n"
               "  \"delivered_bytes_per_sec\": %.0f\n"
               "}\n",
               sc.procs, sc.msgs, sc.big_msgs, sc.collectives,
               rep.wall_seconds, static_cast<unsigned long long>(rep.events),
               static_cast<unsigned long long>(rep.messages),
               static_cast<unsigned long long>(rep.delivered_bytes),
               rep.events_per_sec, rep.messages_per_sec, rep.bytes_per_sec);
  std::fclose(f);
  std::printf(
      "runtime report (%d procs): %.3fs wall, %.0f events/s, "
      "%.2f MB/s delivered, %.0f msgs/s -> %s\n",
      sc.procs, rep.wall_seconds, rep.events_per_sec,
      rep.bytes_per_sec / 1e6, rep.messages_per_sec, path.c_str());
  if (sc.procs == 8 && rep.events != kPinnedEvents8) {
    std::fprintf(stderr, "runtime report: %llu events, pinned %llu\n",
                 static_cast<unsigned long long>(rep.events),
                 static_cast<unsigned long long>(kPinnedEvents8));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// High-occupancy event-queue stress (--queue-report=PATH).
//
// Seeds 2^20 pending events with a skewed timestamp distribution (dense
// near-term mass, a long seconds-scale tail, and deliberate same-timestamp
// bursts), then keeps occupancy at ~10^6 by rescheduling on every fire until
// a fixed event budget is consumed. This is the pending-population regime
// where a binary heap pays ~20-level sift chains per operation and the
// ladder queue's O(1) bucket append shows up directly in wall time.

struct QueueReport {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  std::uint64_t peak_depth = 0;
  std::uint64_t rung_spawns = 0;
  std::uint64_t top_transfers = 0;
};

des::Duration skewed_delta(Rng& rng) {
  const auto pick = rng.below(100);
  if (pick < 60) return rng.below(des::milliseconds(10));
  if (pick < 85) return des::milliseconds(10) + rng.below(des::seconds(1));
  if (pick < 97) return des::seconds(1) + rng.below(des::seconds(600));
  return des::microseconds(rng.below(3));  // same-timestamp tie bursts
}

QueueReport run_queue_scenario() {
  constexpr std::size_t kPending = std::size_t{1} << 20;  // ~10^6 in flight
  constexpr std::uint64_t kReschedules = 4'000'000;

  struct Ticker {
    des::Simulation& sim;
    std::uint64_t remaining;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      sim.schedule_after(skewed_delta(sim.rng()), [this] { fire(); });
    }
  };

  QueueReport rep;
  const auto t0 = std::chrono::steady_clock::now();
  des::Simulation sim;
  Ticker ticker{sim, kReschedules};
  for (std::size_t i = 0; i < kPending; ++i)
    sim.schedule_at(skewed_delta(sim.rng()), [&ticker] { ticker.fire(); });
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  rep.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  rep.events = sim.events_processed();
  rep.events_per_sec = static_cast<double>(rep.events) / rep.wall_seconds;
  const auto& q = sim.event_queue();
  rep.peak_depth = q.stats().peak_depth;
  rep.rung_spawns = q.stats().rung_spawns;
  rep.top_transfers = q.stats().top_transfers;
  return rep;
}

// One run of the stress, like the runtime report.
int run_queue_report(const std::string& path) {
  std::FILE* f = open_report(path);
  if (f == nullptr) return 1;
  const QueueReport rep = run_queue_scenario();
  std::fprintf(f,
               "{\n"
               "  \"scenario\": \"high-occupancy queue stress\",\n"
               "  \"pending_events\": 1048576,\n"
               "  \"wall_seconds\": %.6f,\n"
               "  \"events\": %llu,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"peak_depth\": %llu,\n"
               "  \"rung_spawns\": %llu,\n"
               "  \"top_transfers\": %llu\n"
               "}\n",
               rep.wall_seconds,
               static_cast<unsigned long long>(rep.events),
               rep.events_per_sec,
               static_cast<unsigned long long>(rep.peak_depth),
               static_cast<unsigned long long>(rep.rung_spawns),
               static_cast<unsigned long long>(rep.top_transfers));
  std::fclose(f);
  std::printf(
      "queue report: %.3fs wall, %.0f events/s, peak depth %llu, "
      "%llu rung spawns, %llu top transfers -> %s\n",
      rep.wall_seconds, rep.events_per_sec,
      static_cast<unsigned long long>(rep.peak_depth),
      static_cast<unsigned long long>(rep.rung_spawns),
      static_cast<unsigned long long>(rep.top_transfers), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int procs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs = std::atoi(argv[i] + 8);
      if (procs <= 0) {
        std::fprintf(stderr, "bad --procs value: %s\n", argv[i] + 8);
        return 1;
      }
    }
  }
  // A report goes where --<report>=PATH says. There is no default path: one
  // at the repo root would overwrite the checked-in BENCH_runtime.json.
  for (int i = 1; i < argc; ++i) {
    const bool runtime = std::strncmp(argv[i], "--runtime-report", 16) == 0;
    const bool queue = std::strncmp(argv[i], "--queue-report", 14) == 0;
    if (!runtime && !queue) continue;
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr || eq[1] == '\0') {
      std::fprintf(stderr,
                   "usage: %s --runtime-report=PATH [--procs=N]\n"
                   "       %s --queue-report=PATH\n",
                   argv[0], argv[0]);
      return 2;
    }
    return runtime ? run_runtime_report(eq + 1, procs)
                   : run_queue_report(eq + 1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
