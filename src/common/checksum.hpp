// CRC32C (Castagnoli, polynomial 0x1EDC6F41) for end-to-end payload
// integrity on the staging data plane.
//
// Two implementations: a hardware path using the SSE4.2 `crc32` instruction,
// taken whenever the CPU has SSE4.2, and a scalar table fallback. CRC is an
// exact function of the input, so the two paths are bit-identical by
// construction; common_test compares them bit for bit on every run.
//
// Every staged block is hashed twice: by the client, and by the server's
// RDMA pull as it copies the block (net::Network::rdma_get hashes each
// 24 KiB chunk, one 3 x 8 KiB block below, just before appending it). So
// the hardware path is written to run at memory speed. One `crc32` chain is
// latency-bound: each instruction waits for the previous result (3 cycles)
// although the core can start one per cycle. So crc32c_hw runs
// three independent chains over adjacent thirds of each 3 x 8 KiB block,
// then of each 3 x 256 B block, and finishes the tail with the single
// chain. The three partial CRCs are spliced back together with the GF(2)
// "zeros operator" (Mark Adler's method): the raw CRC register is linear,
// so
//   crc(s, A || B) == shift_|B|(crc(s, A)) ^ crc(0, B),
// where shift_n advances a register over n zero bytes. shift_n is a 32x32
// bit matrix, built at compile time by squaring the one-zero-byte operator
// and stored byte-sliced as four 256-entry tables (shift = four lookups).
// It is still the one hardware path, needs only SSE4.2 (the same dispatch
// condition as a single chain), and is bit-identical to the table path.
//
// The checksum is computed over the serialized dataset bytes at stage time,
// carried on StageMetadata / replica frames, and re-verified at every read:
// after the RDMA pull (against the pull's own digest of the landed bytes),
// at replica promotion, at the execute-time parse and by the background
// scrub. The computation itself is never charged virtual time: it is part of
// the always-on protocol, so charging it would only shift every timeline
// uniformly.
//
// Standard check value: crc32c("123456789") == 0xE3069283.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace colza::common {

namespace detail {

// Reflected-polynomial table, generated at compile time.
consteval std::array<std::uint32_t, 256> crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = crc32c_table();

inline std::uint32_t crc32c_scalar(const std::byte* data, std::size_t n,
                                   std::uint32_t crc) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^
          kCrc32cTable[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)
// ---- the zeros operator (compile time) ------------------------------------

// A linear map on the 32-bit raw CRC register over GF(2): entry i is the
// image of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

consteval std::uint32_t gf2_apply(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if ((v & 1u) != 0) sum ^= m[i];
  }
  return sum;
}

consteval Gf2Matrix gf2_compose(const Gf2Matrix& a, const Gf2Matrix& b) {
  Gf2Matrix ab{};
  for (std::size_t i = 0; i < 32; ++i) ab[i] = gf2_apply(a, b[i]);
  return ab;
}

// The operator that advances a raw CRC register over `n` zero bytes.
consteval Gf2Matrix crc32c_zeros_op(std::size_t n) {
  Gf2Matrix byte{};  // one zero byte: one table step of each basis bit
  Gf2Matrix result{};
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint32_t bit = 1u << i;
    byte[i] = (bit >> 8) ^ kCrc32cTable[bit & 0xFFu];
    result[i] = bit;
  }
  for (; n != 0; n >>= 1) {
    if ((n & 1u) != 0) result = gf2_compose(byte, result);
    byte = gf2_compose(byte, byte);
  }
  return result;
}

// crc32c_zeros_op(n) sliced by input byte: shift(c) is four lookups.
using Crc32cShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

consteval Crc32cShiftTable crc32c_shift_table(std::size_t n) {
  const Gf2Matrix op = crc32c_zeros_op(n);
  Crc32cShiftTable table{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      table[k][b] = gf2_apply(op, b << (8 * k));
    }
  }
  return table;
}

template <std::size_t Lane>
inline constexpr Crc32cShiftTable kCrc32cShift = crc32c_shift_table(Lane);

inline std::uint32_t crc32c_shift(const Crc32cShiftTable& table,
                                  std::uint32_t crc) noexcept {
  return table[0][crc & 0xFFu] ^ table[1][(crc >> 8) & 0xFFu] ^
         table[2][(crc >> 16) & 0xFFu] ^ table[3][crc >> 24];
}

// Consumes every whole 3 x Lane block at the front of [data, data + n):
// three chains over the block's thirds, spliced with shift_Lane.
template <std::size_t Lane>
__attribute__((target("sse4.2"))) inline std::uint64_t crc32c_hw_lanes(
    const std::byte*& data, std::size_t& n, std::uint64_t crc) noexcept {
  constexpr const Crc32cShiftTable& shift = kCrc32cShift<Lane>;
  while (n >= 3 * Lane) {
    std::uint64_t crc1 = 0, crc2 = 0;
    for (std::size_t i = 0; i < Lane; i += 8) {
      std::uint64_t w0, w1, w2;
      __builtin_memcpy(&w0, data + i, 8);
      __builtin_memcpy(&w1, data + Lane + i, 8);
      __builtin_memcpy(&w2, data + 2 * Lane + i, 8);
      crc = __builtin_ia32_crc32di(crc, w0);
      crc1 = __builtin_ia32_crc32di(crc1, w1);
      crc2 = __builtin_ia32_crc32di(crc2, w2);
    }
    crc = crc32c_shift(shift, static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = crc32c_shift(shift, static_cast<std::uint32_t>(crc)) ^ crc2;
    data += 3 * Lane;
    n -= 3 * Lane;
  }
  return crc;
}

__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const std::byte* data, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t c = crc;
  c = crc32c_hw_lanes<8192>(data, n, c);
  c = crc32c_hw_lanes<256>(data, n, c);
  while (n >= 8) {
    std::uint64_t chunk;
    __builtin_memcpy(&chunk, data, 8);
    c = __builtin_ia32_crc32di(c, chunk);
    data += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, static_cast<std::uint8_t>(*data));
    ++data;
    --n;
  }
  return c32;
}

inline bool crc32c_hw_usable() noexcept {
  static const bool usable = __builtin_cpu_supports("sse4.2");
  return usable;
}
#endif

}  // namespace detail

// CRC32C of `data`. `seed` is the CRC of any preceding bytes (0 to start),
// so checksums compose: crc32c(a + b) == crc32c(b, crc32c(a)).
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::byte> data,
                                          std::uint32_t seed = 0) noexcept {
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__)
  if (detail::crc32c_hw_usable()) {
    return ~detail::crc32c_hw(data.data(), data.size(), crc);
  }
#endif
  return ~detail::crc32c_scalar(data.data(), data.size(), crc);
}

}  // namespace colza::common
