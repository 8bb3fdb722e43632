// Image compositor -- the IceT substitute.
//
// Like IceT, the compositor is decoupled from any concrete communication
// library through a C-style function-pointer vtable (IceTCommunicator); the
// paper's Colza work provides a MoNA-backed implementation of that struct
// (S II-D). make_vtable() adapts any vis::Communicator, so the same code
// composites over MoNA or simmpi.
//
// Strategies:
//   * tree        -- binary-tree reduction; each round half the ranks send
//                    their full (sparsely encoded) image to a partner;
//   * binary_swap -- classic binary swap: ranks exchange and composite image
//                    halves, ending with each rank owning a 1/N slice, which
//                    is then gathered at the root (non-powers-of-two are
//                    folded into the largest power of two first);
//   * direct      -- everybody sends to the root, which composites serially.
//
// Operators:
//   * closest_depth -- opaque geometry (isosurface pipelines): keep the
//                      nearer fragment;
//   * over          -- translucent volumes: depth-ordered premultiplied
//                      alpha blending.
//
// Inactive pixels (alpha == 0 and background depth) are run-length encoded,
// so message sizes scale with active pixel counts (IceT's key optimization).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "render/render.hpp"
#include "vis/communicator.hpp"

namespace colza::icet {

struct CommVTable {
  void* ctx = nullptr;
  int (*rank)(void* ctx) = nullptr;
  int (*size)(void* ctx) = nullptr;
  // Both return 0 on success; a nonzero return is the StatusCode of the
  // underlying transport failure, so a peer that died mid-collective
  // surfaces as a retriable `unreachable` instead of a fatal `internal`.
  int (*send)(void* ctx, const void* data, std::size_t bytes, int dest,
              int tag) = nullptr;
  int (*recv)(void* ctx, void* data, std::size_t bytes, int source, int tag,
              std::size_t* received) = nullptr;
};

// Adapts a vis::Communicator (MoNA- or MPI-backed) to the vtable.
[[nodiscard]] CommVTable make_vtable(vis::Communicator& comm);

enum class Strategy : std::uint8_t { tree, binary_swap, direct };
enum class CompositeOp : std::uint8_t { closest_depth, over };

struct CompositeStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  int rounds = 0;
};

// Composites the per-rank framebuffers; on return the root's `fb` holds the
// final image (other ranks' buffers are clobbered). All ranks must call with
// identically-sized framebuffers.
Expected<CompositeStats> composite(render::FrameBuffer& fb,
                                   const CommVTable& comm, Strategy strategy,
                                   CompositeOp op, int root = 0);

// ---- building blocks, exposed for tests and benches ----------------------
// Run-length encodes pixels [begin, end) of `fb`.
[[nodiscard]] std::vector<std::byte> encode_sparse(
    const render::FrameBuffer& fb, std::size_t begin, std::size_t end);
// Composites an encoded fragment into fb starting at pixel `begin`.
void composite_sparse(render::FrameBuffer& fb, std::size_t begin,
                      std::span<const std::byte> encoded, CompositeOp op);

namespace detail {
// encode_sparse's run scan: are all 8 pixels starting at `p` inactive (depth
// == 1.0 and alpha == 0)? The AVX2 variant, taken when the CPU has AVX2, must
// answer exactly as the scalar one for every input, NaN and -0.0 included.
[[nodiscard]] bool inactive_block8_scalar(const float* rgba,
                                          const float* depth, std::size_t p);
#if defined(__x86_64__)
[[nodiscard]] __attribute__((target("avx2"))) bool inactive_block8_avx2(
    const float* rgba, const float* depth, std::size_t p);
#endif
}  // namespace detail

}  // namespace colza::icet
