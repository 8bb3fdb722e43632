// Fig 3 (and Fig 1b): regenerates the paper's rendered results as image
// files -- the Gray-Scott multi-level isosurfaces with clipping (Fig 3a),
// the Mandelbulb single-level isosurface (Fig 3b), and the Deep Water
// Impact volume rendering colored by velocity (Fig 1b) -- each produced by
// the full distributed pipeline (staging + filters + parallel compositing)
// on a small Colza deployment. Prints image hashes and paths.
#include <cstdio>

#include "apps/dwi_proxy.hpp"
#include "apps/gray_scott.hpp"
#include "apps/mandelbulb.hpp"
#include "bench/bench_util.hpp"
#include "bench/colza_harness.hpp"

namespace {

using namespace colza;
using namespace colza::bench;

std::string render_gray_scott() {
  const char* path = "/tmp/colza_fig3a_grayscott.ppm";
  HarnessConfig cfg;
  cfg.servers = 4;
  cfg.clients = 4;
  cfg.pipeline_json =
      std::string(R"({"preset":"gray-scott","width":256,"height":256,)") +
      R"("save_path":")" + path + R"("})";
  ColzaPipelineHarness harness(cfg);
  std::vector<std::unique_ptr<apps::GrayScott3D>> solvers(4);
  apps::GrayScott3D::Params p;
  p.n = 48;
  p.steps_per_iteration = 60;  // enough steps for visible structure
  auto gen = [&](int client, std::uint64_t)
      -> std::vector<std::pair<std::uint64_t, vis::DataSet>> {
    auto& s = solvers[static_cast<std::size_t>(client)];
    if (s == nullptr) s = std::make_unique<apps::GrayScott3D>(p, client, 4);
    s->step(&harness.client_comm(client)).check();
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    blocks.emplace_back(static_cast<std::uint64_t>(client),
                        vis::DataSet{s->block()});
    return blocks;
  };
  harness.run(4, gen);
  return path;
}

std::string render_mandelbulb() {
  const char* path = "/tmp/colza_fig3b_mandelbulb.ppm";
  HarnessConfig cfg;
  cfg.servers = 4;
  cfg.clients = 4;
  cfg.pipeline_json =
      std::string(R"({"preset":"mandelbulb","width":256,"height":256,)") +
      R"("save_path":")" + path + R"("})";
  ColzaPipelineHarness harness(cfg);
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 24;
  mb.total_blocks = 16;
  auto gen = [&](int client, std::uint64_t) {
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    for (int b = 0; b < 4; ++b) {
      const auto id = static_cast<std::uint64_t>(client * 4 + b);
      blocks.emplace_back(id, harness.sim().charge_scoped([&] {
        return vis::DataSet{
            apps::mandelbulb_block(mb, static_cast<std::uint32_t>(id))};
      }));
    }
    return blocks;
  };
  harness.run(1, gen);
  return path;
}

std::string render_dwi() {
  const char* path = "/tmp/colza_fig1b_dwi.ppm";
  HarnessConfig cfg;
  cfg.servers = 4;
  cfg.clients = 4;
  cfg.pipeline_json =
      std::string(
          R"({"preset":"dwi","width":256,"height":256,"resample_dims":[32,32,32],)") +
      R"("save_path":")" + path + R"("})";
  ColzaPipelineHarness harness(cfg);
  apps::DwiParams p;
  p.blocks = 16;
  p.base_edge = 28;
  p.growth_per_iteration = 6;
  p.total_iterations = 12;
  auto gen = [&](int client, std::uint64_t) {
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    for (std::uint32_t b = 0; b < 4; ++b) {
      const std::uint32_t id = static_cast<std::uint32_t>(client) * 4 + b;
      blocks.emplace_back(id, harness.sim().charge_scoped([&] {
        return vis::DataSet{apps::dwi_block(p, 12, id)};
      }));
    }
    return blocks;
  };
  harness.run(1, gen);
  return path;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hash_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::uint64_t h = 1469598103934665603ULL;
  int c = 0;
  while ((c = std::fgetc(f)) != EOF) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  std::fclose(f);
  return h;
}

}  // namespace

int main() {
  headline("Fig 3 / Fig 1b -- rendered results",
           "regenerates the paper's three renderings through the full "
           "distributed pipeline");

  // Each image's pinned hash: the renderings are a pure function of the
  // code, so any drift is a change to what the paper figures show, and the
  // bench exits 1.
  struct Figure {
    const char* figure;
    const char* pipeline;
    std::string (*render)();
    std::uint64_t want;
  };
  const Figure figures[] = {
      {"Fig 3a", "gray-scott (3 isosurfaces + clip)", render_gray_scott,
       0x6507d943a6a0f57eULL},
      {"Fig 3b", "mandelbulb (single isosurface)", render_mandelbulb,
       0x80aa7c919181195cULL},
      {"Fig 1b", "dwi (volume, velocity-colored)", render_dwi,
       0x51e640b9d8bc3ccfULL}};
  Table table({"figure", "pipeline", "image", "fnv_hash"});
  int drifted = 0;
  for (const Figure& f : figures) {
    const std::string path = f.render();
    const std::uint64_t hash = hash_file(path);
    table.row({f.figure, f.pipeline, path, hex64(hash)});
    if (hash != f.want) {
      std::fprintf(stderr, "%s: image hash %s, pinned %s\n", f.figure,
                   hex64(hash).c_str(), hex64(f.want).c_str());
      ++drifted;
    }
  }
  table.print("fig03");
  return drifted == 0 ? 0 : 1;
}
