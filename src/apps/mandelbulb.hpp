// Mandelbulb mini-app (paper S III-A): computes a 3-D Mandelbrot fractal
// (the power-8 "triplex" iteration z <- z^8 + c) on a regular grid "to
// stress visualization pipelines with complex mesh geometries". The grid is
// partitioned along the z axis and each process may own several blocks.
#pragma once

#include <cstdint>

#include "vis/data.hpp"

namespace colza::apps {

struct MandelbulbParams {
  std::uint32_t nx = 32, ny = 32, nz = 32;  // points per block
  float power = 8.0f;
  int max_iterations = 30;
  // Domain [-range, range]^2 in x/y; z spans the same range split across all
  // blocks of all processes.
  float range = 1.2f;
  std::uint32_t total_blocks = 1;  // global number of z-slabs
};

// Generates block `block_id` (of params.total_blocks z-slabs). The point
// field "iterations" (float) holds the escape iteration count -- the field
// contoured by the paper's single-isosurface pipeline. Throws
// std::invalid_argument for an out-of-range id or an edge below 2 points.
//
// Inside a running des::Simulation the blocks are memoized process-wide (a
// bounded memo, keyed on every params field and the id). A block is
// computed, and timed, on its first two calls; from the third on, a call
// returns a copy of the result and reports the faster timing through
// Simulation::replay_host_ns, so an enclosing charge_scoped charges what the
// block costs to compute. A simulation with a fixed_scoped_charge uses no
// timing, so in one a single computed call is enough. Outside a simulation
// every call computes.
[[nodiscard]] vis::UniformGrid mandelbulb_block(const MandelbulbParams& params,
                                                std::uint32_t block_id);

// The escape count for one sample point (exposed for tests).
[[nodiscard]] int mandelbulb_escape(float x, float y, float z, float power,
                                    int max_iterations);

}  // namespace colza::apps
