#include "apps/mandelbulb.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "des/simulation.hpp"

namespace colza::apps {

int mandelbulb_escape(float cx, float cy, float cz, float power,
                      int max_iterations) {
  // Triplex power iteration (White/Nylander formula):
  //   r^n * (sin(n theta) cos(n phi), sin(n theta) sin(n phi), cos(n theta))
  float x = 0, y = 0, z = 0;
  for (int it = 0; it < max_iterations; ++it) {
    const float r2 = x * x + y * y + z * z;
    if (r2 > 4.0f) return it;
    const float r = std::sqrt(r2);
    const float theta = r > 0 ? std::acos(z / r) : 0.0f;
    const float phi = std::atan2(y, x);
    const float rp = std::pow(r, power);
    const float st = std::sin(power * theta);
    x = rp * st * std::cos(power * phi) + cx;
    y = rp * st * std::sin(power * phi) + cy;
    z = rp * std::cos(power * theta) + cz;
  }
  return max_iterations;
}

namespace {

constexpr const char* kField = "iterations";

// Block `block_id`'s dims, origin and spacing, without point data.
vis::UniformGrid block_geometry(const MandelbulbParams& params,
                                std::uint32_t block_id) {
  vis::UniformGrid g;
  g.dims = {params.nx, params.ny, params.nz};
  const float extent = 2.0f * params.range;
  const float slab = extent / static_cast<float>(params.total_blocks);
  g.origin = {-params.range, -params.range,
              -params.range + slab * static_cast<float>(block_id)};
  g.spacing = {extent / static_cast<float>(params.nx - 1),
               extent / static_cast<float>(params.ny - 1),
               slab / static_cast<float>(params.nz - 1)};
  return g;
}

vis::UniformGrid compute_block(const MandelbulbParams& params,
                               std::uint32_t block_id) {
  vis::UniformGrid g = block_geometry(params, block_id);

  // The escape iteration is libm-transcendental-dominated (pow/acos/atan2
  // per step) and stays scalar by policy -- see common/simd.hpp. What does
  // get optimized: the y/z coordinates hoist out of the inner loop (the
  // same origin + spacing*index expressions point() evaluates, so values
  // are bit-identical) and the field index walks incrementally (i is the
  // fastest axis of point_index).
  std::vector<float> field(g.point_count());
  std::size_t idx = 0;
  for (std::uint32_t k = 0; k < params.nz; ++k) {
    const float pz = g.origin.z + g.spacing.z * static_cast<float>(k);
    for (std::uint32_t j = 0; j < params.ny; ++j) {
      const float py = g.origin.y + g.spacing.y * static_cast<float>(j);
      for (std::uint32_t i = 0; i < params.nx; ++i, ++idx) {
        const float px = g.origin.x + g.spacing.x * static_cast<float>(i);
        field[idx] = static_cast<float>(mandelbulb_escape(
            px, py, pz, params.power, params.max_iterations));
      }
    }
  }
  g.point_data.add(vis::DataArray::make<float>(kField, field));
  return g;
}

// The memo key: every MandelbulbParams field by bit pattern, then the block
// id. A field added to MandelbulbParams changes its size and stops the build
// here until the key covers it.
using BlockKey = std::array<std::uint32_t, 8>;
static_assert(sizeof(MandelbulbParams) == 7 * sizeof(std::uint32_t),
              "MandelbulbParams changed: add the new field to block_key");

BlockKey block_key(const MandelbulbParams& p, std::uint32_t block_id) {
  return {p.nx,
          p.ny,
          p.nz,
          std::bit_cast<std::uint32_t>(p.power),
          std::bit_cast<std::uint32_t>(p.max_iterations),
          std::bit_cast<std::uint32_t>(p.range),
          p.total_blocks,
          block_id};
}

// Finished blocks with the host ns they take to compute; single-threaded
// like the DES that uses it. Bounded by field bytes: 64 MiB holds every
// distinct block of the Mandelbulb benches (26.6 MiB over all of fig05's
// scales). Once full it stops inserting, so a larger working set computes
// as it would without the memo and never holds more memory.
struct BlockMemo {
  struct Entry {
    vis::UniformGrid geometry;  // no point data: the field is in `fields`
    std::size_t offset = 0;     // into `fields`
    std::uint64_t host_ns = 0;  // the fastest timed run
    int timed_runs = 1;
  };
  // Like SMPI_SAMPLE_*, a block runs for real a few times before its cost
  // is replayed. Host noise is one-sided (preemption), and one sample's
  // spike, replayed every iteration, accumulates where clients run ahead
  // of each other: with one timed run, bench_fig08's Damaris row rose 13%
  // (5 pairs); replaying the faster of two kept it in the parent's range.
  static constexpr int kTimedRuns = 2;
  static constexpr std::size_t kMaxFields =
      (std::size_t{64} << 20) / sizeof(float);

  BlockMemo() { fields.reserve(kMaxFields); }

  std::map<BlockKey, Entry> entries;
  // Every memoized field back to back, in one allocation reserved at the
  // cap: that is address space, and only the pages written become resident.
  // Holding the fields outside the malloc heap keeps them from pinning its
  // fragments -- one heap allocation per block raised elastic-mandelbulb's
  // peak RSS by 1.8 MiB (seed 1), where its 64 blocks are 1 MiB.
  std::vector<float> fields;
};

BlockMemo& block_memo() {
  static BlockMemo memo;
  return memo;
}

}  // namespace

vis::UniformGrid mandelbulb_block(const MandelbulbParams& params,
                                  std::uint32_t block_id) {
  if (block_id >= params.total_blocks)
    throw std::invalid_argument("mandelbulb_block: block_id out of range");
  if (params.nx < 2 || params.ny < 2 || params.nz < 2)
    throw std::invalid_argument("mandelbulb_block: every edge needs 2 points");
  des::Simulation* sim = des::Simulation::current();
  if (sim == nullptr) return compute_block(params, block_id);

  // Inside a simulation every iteration asks for the same blocks: compute
  // each kTimedRuns times, then let a repeat charge the fastest of those. A
  // fixed charge discards every timing, so there one run completes an entry;
  // a later wall-clock simulation still times the entry's second run.
  BlockMemo& memo = block_memo();
  const BlockKey key = block_key(params, block_id);
  const auto it = memo.entries.find(key);
  const int timed_runs_needed =
      sim->config().fixed_scoped_charge > 0 ? 1 : BlockMemo::kTimedRuns;
  if (it != memo.entries.end() &&
      it->second.timed_runs >= timed_runs_needed) {
    const BlockMemo::Entry& e = it->second;
    sim->replay_host_ns(e.host_ns);
    // A fresh grid: callers move it on, and may change it.
    vis::UniformGrid g = e.geometry;
    g.point_data.add(vis::DataArray::make<float>(
        kField, std::span<const float>(memo.fields)
                    .subspan(e.offset, g.point_count())));
    return g;
  }
  const auto t0 = std::chrono::steady_clock::now();
  vis::UniformGrid g = compute_block(params, block_id);
  const auto host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const auto field = g.point_data.find(kField)->as<float>();
  if (it != memo.entries.end()) {
    it->second.host_ns = std::min(it->second.host_ns, host_ns);
    ++it->second.timed_runs;
  } else if (field.size() <= BlockMemo::kMaxFields - memo.fields.size()) {
    memo.entries.emplace(
        key, BlockMemo::Entry{block_geometry(params, block_id),
                              memo.fields.size(), host_ns});
    memo.fields.insert(memo.fields.end(), field.begin(), field.end());
  }
  return g;
}

}  // namespace colza::apps
