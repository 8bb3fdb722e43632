#include "viewer/frame.hpp"

#include <algorithm>
#include <cstddef>
#include <span>

#include "common/checksum.hpp"
#include "common/hash.hpp"

namespace colza::viewer {

namespace {

// LEB128 varint: run lengths in a delta payload are usually tiny (a few
// pixels) but can span a whole frame, so fixed-width counters would waste
// exactly the bytes the delta encoding is trying to save.
void put_varint(std::uint8_t*& out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
}

bool get_varint(std::span<const std::uint8_t> in, std::size_t& cursor,
                std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (cursor >= in.size()) return false;
    const std::uint8_t b = in[cursor++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

std::uint32_t payload_crc(const std::vector<std::uint8_t>& payload) {
  return common::crc32c(std::as_bytes(std::span(payload)));
}

}  // namespace

FrameImage FrameImage::from(const render::FrameBuffer& fb) {
  FrameImage img;
  img.width = static_cast<std::uint32_t>(fb.width);
  img.height = static_cast<std::uint32_t>(fb.height);
  img.rgba.resize(fb.rgba.size());
  for (std::size_t i = 0; i < fb.rgba.size(); ++i)
    img.rgba[i] = render::channel_byte(fb.rgba[i]);
  return img;
}

std::uint64_t FrameImage::hash() const noexcept {
  // Same quantized bytes, same basis: equals content_hash() of the source
  // FrameBuffer, so viewer-side hashes compare against render references.
  return common::fnv1a_bytes(std::span<const std::uint8_t>(rgba),
                             common::kFnvImageBasis);
}

EncodedFrame encode_key(const std::string& pipeline, std::uint32_t camera,
                        std::uint64_t iteration, const FrameImage& img) {
  EncodedFrame f;
  f.pipeline = pipeline;
  f.camera = camera;
  f.iteration = iteration;
  f.kind = static_cast<std::uint8_t>(FrameKind::key);
  f.width = img.width;
  f.height = img.height;
  f.payload = img.rgba;
  f.crc = payload_crc(f.payload);
  f.image_hash = img.hash();
  return f;
}

EncodedFrame encode_delta(const std::string& pipeline, std::uint32_t camera,
                          std::uint64_t iteration, const FrameImage& img,
                          std::uint64_t base_iteration,
                          const FrameImage& base) {
  if (img.width != base.width || img.height != base.height ||
      img.rgba.size() != base.rgba.size()) {
    return encode_key(pipeline, camera, iteration, img);
  }
  EncodedFrame f;
  f.pipeline = pipeline;
  f.camera = camera;
  f.iteration = iteration;
  f.kind = static_cast<std::uint8_t>(FrameKind::delta);
  f.base_iteration = base_iteration;
  f.width = img.width;
  f.height = img.height;
  // XOR-RLE: alternate (zero_run, literal_len, literal XOR bytes) groups.
  // The XOR stream is mostly zero between nearby frames, so runs dominate.
  // Worst case is alternating one-byte runs: 3 bytes out per 2 in, plus one
  // each for a leading empty zero run and a trailing empty literal run.
  const std::size_t n = img.rgba.size();
  const std::uint8_t* a = img.rgba.data();
  const std::uint8_t* b = base.rgba.data();
  f.payload.resize(n + n / 2 + 2);
  std::uint8_t* out = f.payload.data();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t zeros_at = i;
    while (i < n && a[i] == b[i]) ++i;
    put_varint(out, i - zeros_at);
    const std::size_t lit_at = i;
    while (i < n && a[i] != b[i]) ++i;
    put_varint(out, i - lit_at);
    for (std::size_t k = lit_at; k < i; ++k) *out++ = a[k] ^ b[k];
  }
  f.payload.resize(static_cast<std::size_t>(out - f.payload.data()));
  f.payload.shrink_to_fit();  // cached frames keep only what they ship
  f.crc = payload_crc(f.payload);
  f.image_hash = img.hash();
  return f;
}

Expected<FrameImage> decode(const EncodedFrame& frame, const FrameImage* base) {
  if (payload_crc(frame.payload) != frame.crc) {
    return Status::Corrupt("viewer frame payload failed CRC32C (iteration " +
                           std::to_string(frame.iteration) + ")");
  }
  FrameImage img;
  img.width = frame.width;
  img.height = frame.height;
  const std::size_t n =
      static_cast<std::size_t>(frame.width) * frame.height * 4;
  if (frame.kind == static_cast<std::uint8_t>(FrameKind::key)) {
    if (frame.payload.size() != n) {
      return Status::Corrupt("viewer keyframe payload size mismatch");
    }
    img.rgba = frame.payload;
  } else {
    if (base == nullptr || base->rgba.size() != n) {
      return Status::FailedPrecondition(
          "viewer delta frame without its base keyframe (iteration " +
          std::to_string(frame.base_iteration) + ")");
    }
    img.rgba = base->rgba;
    std::size_t cursor = 0;
    std::size_t out = 0;
    const std::span<const std::uint8_t> in(frame.payload);
    while (cursor < in.size()) {
      std::uint64_t zeros = 0;
      std::uint64_t lit = 0;
      // Subtraction-form bounds checks: `zeros` and `lit` come off the wire,
      // so sum-form checks (out + zeros + lit > n) could wrap uint64 and let
      // a crafted frame (valid CRC -- it covers the payload itself) write far
      // past the image buffer.
      if (!get_varint(in, cursor, zeros) || !get_varint(in, cursor, lit) ||
          zeros > n - out || lit > (n - out) - zeros ||
          lit > in.size() - cursor) {
        return Status::Corrupt("viewer delta frame RLE stream malformed");
      }
      out += zeros;
      for (std::uint64_t k = 0; k < lit; ++k) {
        img.rgba[out + k] ^= in[cursor + k];
      }
      cursor += lit;
      out += lit;
    }
  }
  if (img.hash() != frame.image_hash) {
    // CRC passed but the pixels are wrong: the delta was applied against a
    // base of the wrong generation. The caller resynchronizes from a key.
    return Status::Corrupt("viewer frame decoded to the wrong image hash");
  }
  return img;
}

}  // namespace colza::viewer
