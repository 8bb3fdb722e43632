#include "icet/icet.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/simd.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace colza::icet {

namespace {

constexpr int kTagBase = 7700;

struct PixelRef {
  float* rgba;
  float* depth;
};

inline bool active(const render::FrameBuffer& fb, std::size_t p) {
  return fb.rgba[p * 4 + 3] != 0.0f || fb.depth[p] != 1.0f;
}

inline void composite_pixel(float* dst_rgba, float* dst_depth,
                            const float* src_rgba, float src_depth,
                            CompositeOp op) {
  switch (op) {
    case CompositeOp::closest_depth:
      if (src_depth < *dst_depth) {
        std::memcpy(dst_rgba, src_rgba, 4 * sizeof(float));
        *dst_depth = src_depth;
      }
      break;
    case CompositeOp::over: {
      // Depth-ordered premultiplied over: the nearer fragment goes in front.
      const float near_a = src_depth <= *dst_depth ? src_rgba[3] : dst_rgba[3];
      const float* near_c = src_depth <= *dst_depth ? src_rgba : dst_rgba;
      const float* far_c = src_depth <= *dst_depth ? dst_rgba : src_rgba;
      float out[4];
      for (int c = 0; c < 4; ++c)
        out[c] = near_c[c] + (1.0f - near_a) * far_c[c];
      std::memcpy(dst_rgba, out, sizeof(out));
      *dst_depth = std::min(*dst_depth, src_depth);
      break;
    }
  }
}

// Fixed-size exchange helper: sends `payload` (length prefix included by the
// caller's framing) and receives the partner's into `buf`.
struct Channel {
  const CommVTable* comm;
  CompositeStats* stats;

  Status send(std::span<const std::byte> data, int dest, int tag) const {
    const int rc = comm->send(comm->ctx, data.data(), data.size(), dest, tag);
    if (rc != 0) return Status(static_cast<StatusCode>(rc), "icet: send failed");
    stats->bytes_sent += data.size();
    return Status::Ok();
  }
  Status recv(std::vector<std::byte>& buf, int source, int tag) const {
    std::size_t received = 0;
    const int rc =
        comm->recv(comm->ctx, buf.data(), buf.size(), source, tag, &received);
    if (rc != 0) return Status(static_cast<StatusCode>(rc), "icet: recv failed");
    buf.resize(received);
    stats->bytes_received += received;
    return Status::Ok();
  }
};

}  // namespace

// ---------------------------------------------------------------- vtable

namespace {

struct VisCtx {
  vis::Communicator* comm;
};

int vt_rank(void* ctx) { return static_cast<VisCtx*>(ctx)->comm->rank(); }
int vt_size(void* ctx) { return static_cast<VisCtx*>(ctx)->comm->size(); }
int vt_send(void* ctx, const void* data, std::size_t bytes, int dest,
            int tag) {
  auto* c = static_cast<VisCtx*>(ctx);
  const auto* p = static_cast<const std::byte*>(data);
  return static_cast<int>(c->comm->send({p, bytes}, dest, tag).code());
}
int vt_recv(void* ctx, void* data, std::size_t bytes, int source, int tag,
            std::size_t* received) {
  auto* c = static_cast<VisCtx*>(ctx);
  auto* p = static_cast<std::byte*>(data);
  return static_cast<int>(c->comm->recv({p, bytes}, source, tag, received).code());
}

}  // namespace

CommVTable make_vtable(vis::Communicator& comm) {
  // The context must outlive the vtable, so contexts live in a static
  // registry keyed by communicator address: re-adapting a communicator is an
  // O(1) lookup, and a new communicator reusing a freed address replaces the
  // stale entry instead of growing the registry without bound.
  static std::unordered_map<vis::Communicator*, std::unique_ptr<VisCtx>>
      registry;
  auto& slot = registry[&comm];
  if (slot == nullptr) slot = std::make_unique<VisCtx>(VisCtx{&comm});
  return CommVTable{slot.get(), vt_rank, vt_size, vt_send, vt_recv};
}

// ---------------------------------------------------------------- encoding

namespace detail {

// The contiguous depth compare vectorizes; the strided alpha check only runs
// for blocks that pass it (the overwhelmingly common case in sparse images).
bool inactive_block8_scalar(const float* rgba, const float* depth,
                            std::size_t p) {
  bool bg = true;
  for (int i = 0; i < 8; ++i) bg &= depth[p + i] == 1.0f;
  if (!bg) return false;
  for (int i = 0; i < 8; ++i) {
    if (rgba[(p + i) * 4 + 3] != 0.0f) return false;
  }
  return true;
}

#if defined(__x86_64__)
// AVX2 variant: one vcmpps+movmask for the 8 depths; the 32 interleaved
// rgba floats are 4 vector compares whose alpha lanes sit at mask bits 3
// and 7 (0x88). Pure predicate -- results match the scalar path exactly.
__attribute__((target("avx2"))) bool inactive_block8_avx2(
    const float* rgba, const float* depth, std::size_t p) {
  const __m256 d = _mm256_loadu_ps(depth + p);
  if (_mm256_movemask_ps(_mm256_cmp_ps(d, _mm256_set1_ps(1.0f),
                                       _CMP_EQ_OQ)) != 0xFF) {
    return false;
  }
  const __m256 zero = _mm256_setzero_ps();
  const float* px = rgba + p * 4;
  for (int q = 0; q < 4; ++q) {
    const __m256 c = _mm256_loadu_ps(px + q * 8);
    // NEQ_UQ matches scalar `!= 0.0f` (true for NaN) on the alpha lanes.
    if ((_mm256_movemask_ps(_mm256_cmp_ps(c, zero, _CMP_NEQ_UQ)) & 0x88) !=
        0) {
      return false;
    }
  }
  return true;
}
#endif  // __x86_64__

}  // namespace detail

namespace {

inline bool inactive_block8(const float* rgba, const float* depth,
                            std::size_t p) {
#if defined(__x86_64__)
  if (common::simd::avx2()) return detail::inactive_block8_avx2(rgba, depth, p);
#endif
  return detail::inactive_block8_scalar(rgba, depth, p);
}

}  // namespace

std::vector<std::byte> encode_sparse(const render::FrameBuffer& fb,
                                     std::size_t begin, std::size_t end) {
  // Format: repeated [u32 skip][u32 count][count * 5 floats], then a final
  // [u32 skip][u32 0] terminator covering trailing inactive pixels.
  //
  // Two passes: the first measures the exact encoded size (the run scan is
  // cheap -- inactive stretches advance 8 pixels per depth-word compare), so
  // the single allocation and its zero-fill are proportional to the encoded
  // content rather than a 20x worst case; the second writes through a raw
  // cursor with no per-pixel growth checks.
  const float* rgba = fb.rgba.data();
  const float* depth = fb.depth.data();
  std::size_t segments = 0;
  std::size_t active_px = 0;
  for (std::size_t p = begin; p < end;) {
    while (p + 8 <= end && inactive_block8(rgba, depth, p)) p += 8;
    while (p < end && !active(fb, p)) ++p;
    ++segments;
    const std::size_t run_start = p;
    while (p < end && active(fb, p)) ++p;
    active_px += p - run_start;
  }
  std::vector<std::byte> out(segments * 8 + active_px * 20);
  std::byte* w = out.data();
  auto put_u32 = [&w](std::uint32_t v) {
    std::memcpy(w, &v, 4);
    w += 4;
  };
  std::size_t p = begin;
  while (p < end) {
    const std::size_t skip_start = p;
    while (p + 8 <= end && inactive_block8(rgba, depth, p)) p += 8;
    while (p < end && !active(fb, p)) ++p;
    put_u32(static_cast<std::uint32_t>(p - skip_start));
    const std::size_t run_start = p;
    while (p < end && active(fb, p)) ++p;
    put_u32(static_cast<std::uint32_t>(p - run_start));
    for (std::size_t q = run_start; q < p; ++q) {
      std::memcpy(w, rgba + q * 4, 4 * sizeof(float));
      w += 4 * sizeof(float);
      std::memcpy(w, depth + q, sizeof(float));
      w += sizeof(float);
    }
  }
  return out;
}

void composite_sparse(render::FrameBuffer& fb, std::size_t begin,
                      std::span<const std::byte> encoded, CompositeOp op) {
  const std::byte* r = encoded.data();
  const std::byte* const last = r + encoded.size();
  float* rgba = fb.rgba.data();
  float* depth = fb.depth.data();
  std::size_t p = begin;
  // The operator is loop-invariant: dispatch once per call, not per pixel.
  while (r + 8 <= last) {
    std::uint32_t skip = 0;
    std::uint32_t count = 0;
    std::memcpy(&skip, r, 4);
    std::memcpy(&count, r + 4, 4);
    r += 8;
    p += skip;
    if (op == CompositeOp::closest_depth) {
      for (std::uint32_t i = 0; i < count; ++i, ++p, r += 20) {
        float px[5];
        std::memcpy(px, r, sizeof(px));
        if (px[4] < depth[p]) {
          std::memcpy(rgba + p * 4, px, 4 * sizeof(float));
          depth[p] = px[4];
        }
      }
    } else {
      for (std::uint32_t i = 0; i < count; ++i, ++p, r += 20) {
        float px[5];
        std::memcpy(px, r, sizeof(px));
        composite_pixel(rgba + p * 4, depth + p, px, px[4], op);
      }
    }
  }
}

// ---------------------------------------------------------------- strategies

namespace {

Status run_tree(render::FrameBuffer& fb, const Channel& ch, CompositeOp op,
                int rank, int size, int root, CompositeStats& stats) {
  // Work in root-relative ranks so any root works with the same tree.
  const int rel = (rank - root + size) % size;
  const std::size_t pixels = fb.pixel_count();
  std::vector<std::byte> buf;
  int round = 0;
  for (int mask = 1; mask < size; mask <<= 1, ++round) {
    if ((rel & mask) != 0) {
      const int dst_rel = rel & ~mask;
      const int dst = (dst_rel + root) % size;
      auto payload = encode_sparse(fb, 0, pixels);
      return ch.send(payload, dst, kTagBase + round);
    }
    const int src_rel = rel | mask;
    if (src_rel < size) {
      const int src = (src_rel + root) % size;
      buf.resize(pixels * 5 * sizeof(float) + (pixels + 2) * 8);
      Status s = ch.recv(buf, src, kTagBase + round);
      if (!s.ok()) return s;
      composite_sparse(fb, 0, buf, op);
    }
  }
  stats.rounds = round;
  return Status::Ok();
}

Status run_direct(render::FrameBuffer& fb, const Channel& ch, CompositeOp op,
                  int rank, int size, int root, CompositeStats& stats) {
  const std::size_t pixels = fb.pixel_count();
  if (rank != root) {
    auto payload = encode_sparse(fb, 0, pixels);
    return ch.send(payload, root, kTagBase);
  }
  std::vector<std::byte> buf;
  for (int r = 0; r < size; ++r) {
    if (r == root) continue;
    buf.resize(pixels * 5 * sizeof(float) + (pixels + 2) * 8);
    Status s = ch.recv(buf, r, kTagBase);
    if (!s.ok()) return s;
    composite_sparse(fb, 0, buf, op);
  }
  stats.rounds = 1;
  return Status::Ok();
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

Status run_binary_swap(render::FrameBuffer& fb, const Channel& ch,
                       CompositeOp op, int rank, int size, int root,
                       CompositeStats& stats) {
  const std::size_t pixels = fb.pixel_count();
  const int pof2 = floor_pow2(size);
  const int rem = size - pof2;
  std::vector<std::byte> buf;

  // Fold phase: ranks >= pof2 send everything to rank - pof2.
  if (rank >= pof2) {
    auto payload = encode_sparse(fb, 0, pixels);
    return ch.send(payload, rank - pof2, kTagBase + 90);
  }
  if (rank < rem) {
    buf.resize(pixels * 5 * sizeof(float) + (pixels + 2) * 8);
    Status s = ch.recv(buf, rank + pof2, kTagBase + 90);
    if (!s.ok()) return s;
    composite_sparse(fb, 0, buf, op);
  }

  // Swap phase over the pof2 group: each round halves the owned range.
  std::size_t begin = 0, end = pixels;
  int round = 0;
  for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
    const int partner = rank ^ mask;
    const std::size_t mid = begin + (end - begin) / 2;
    const bool keep_low = (rank & mask) == 0;
    const std::size_t send_b = keep_low ? mid : begin;
    const std::size_t send_e = keep_low ? end : mid;
    auto payload = encode_sparse(fb, send_b, send_e);
    Status s = ch.send(payload, partner, kTagBase + 10 + round);
    if (!s.ok()) return s;
    buf.resize((send_e - send_b) * 5 * sizeof(float) +
               ((send_e - send_b) + 2) * 8);
    s = ch.recv(buf, partner, kTagBase + 10 + round);
    if (!s.ok()) return s;
    if (keep_low) {
      end = mid;
    } else {
      begin = mid;
    }
    composite_sparse(fb, begin, buf, op);
  }
  stats.rounds = round;

  // Collect phase: every pof2 rank owns [begin, end); gather at root.
  // (Root must be < pof2 for this simple collect; composite() guarantees it
  // by remapping, see below.)
  if (rank == root) {
    // Pixels outside root's owned slice hold stale intermediate data from
    // the swap rounds; reset them so incoming final slices land on
    // background.
    for (std::size_t p = 0; p < pixels; ++p) {
      if (p >= begin && p < end) continue;
      fb.rgba[p * 4 + 0] = fb.rgba[p * 4 + 1] = fb.rgba[p * 4 + 2] =
          fb.rgba[p * 4 + 3] = 0.0f;
      fb.depth[p] = 1.0f;
    }
    for (int r = 0; r < pof2; ++r) {
      if (r == root) continue;
      buf.resize(pixels * 5 * sizeof(float) + (pixels + 2) * 8);
      std::uint64_t r_begin = 0;
      std::span<std::byte> header{reinterpret_cast<std::byte*>(&r_begin), 8};
      // Each rank prefixes its slice offset.
      std::size_t received = 0;
      const int rc = ch.comm->recv(ch.comm->ctx, buf.data(), buf.size(), r,
                                   kTagBase + 80, &received);
      if (rc != 0)
        return Status(static_cast<StatusCode>(rc),
                      "icet: collect recv failed");
      ch.stats->bytes_received += received;
      buf.resize(received);
      std::memcpy(&r_begin, buf.data(), 8);
      // The slice replaces root's pixels outright (it is fully composited).
      std::span<const std::byte> body{buf.data() + 8, buf.size() - 8};
      composite_sparse(fb, r_begin, body, op);
      (void)header;
    }
  } else {
    std::vector<std::byte> payload;
    const std::uint64_t my_begin = begin;
    const auto* p = reinterpret_cast<const std::byte*>(&my_begin);
    payload.insert(payload.end(), p, p + 8);
    auto body = encode_sparse(fb, begin, end);
    payload.insert(payload.end(), body.begin(), body.end());
    return ch.send(payload, root, kTagBase + 80);
  }
  return Status::Ok();
}

}  // namespace

Expected<CompositeStats> composite(render::FrameBuffer& fb,
                                   const CommVTable& comm, Strategy strategy,
                                   CompositeOp op, int root) {
  CompositeStats stats;
  const int rank = comm.rank(comm.ctx);
  const int size = comm.size(comm.ctx);
  if (size <= 0) return Status::InvalidArgument("icet: empty communicator");
  if (root < 0 || root >= size)
    return Status::InvalidArgument("icet: bad root");
  if (size == 1) return stats;
  Channel ch{&comm, &stats};

  obs::SpanScope span("icet.composite", "icet");
  span.arg("strategy", static_cast<std::uint64_t>(strategy));
  span.arg("ranks", static_cast<std::uint64_t>(size));

  Status s;
  switch (strategy) {
    case Strategy::tree:
      s = run_tree(fb, ch, op, rank, size, root, stats);
      break;
    case Strategy::direct:
      s = run_direct(fb, ch, op, rank, size, root, stats);
      break;
    case Strategy::binary_swap: {
      if (root >= floor_pow2(size)) {
        // Binary swap's collect phase needs the root inside the pof2 group;
        // composite at 0 then forward. (Rare; Colza always uses root 0.)
        s = run_binary_swap(fb, ch, op, rank, size, 0, stats);
        if (s.ok()) {
          if (rank == 0) {
            auto payload = encode_sparse(fb, 0, fb.pixel_count());
            s = ch.send(payload, root, kTagBase + 99);
          } else if (rank == root) {
            std::vector<std::byte> buf(fb.pixel_count() * 5 * sizeof(float) +
                                       (fb.pixel_count() + 2) * 8);
            s = ch.recv(buf, 0, kTagBase + 99);
            if (s.ok()) {
              fb.clear();
              composite_sparse(fb, 0, buf, op);
            }
          }
        }
      } else {
        s = run_binary_swap(fb, ch, op, rank, size, root, stats);
      }
      break;
    }
  }
  if (!s.ok()) return s;
  span.arg("bytes_sent", stats.bytes_sent);
  span.arg("bytes_received", stats.bytes_received);
  span.arg("rounds", static_cast<std::uint64_t>(stats.rounds));
  return stats;
}

}  // namespace colza::icet
