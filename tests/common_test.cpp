// Unit tests for the common layer: Status/Expected, Archive, Rng, JSON, units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace colza {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::ok);
  EXPECT_NO_THROW(s.check());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::Timeout("rpc to node 3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::timeout);
  EXPECT_EQ(s.message(), "rpc to node 3");
  EXPECT_EQ(s.to_string(), "timeout: rpc to node 3");
  EXPECT_THROW(s.check(), std::runtime_error);
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::internal); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(Expected, HoldsStatus) {
  Expected<int> e(Status::NotFound("pipeline x"));
  EXPECT_FALSE(e.has_value());
  EXPECT_EQ(e.status().code(), StatusCode::not_found);
  EXPECT_THROW((void)e.value(), std::runtime_error);
}

TEST(Expected, RejectsOkStatus) {
  EXPECT_THROW(Expected<int>{Status::Ok()}, std::logic_error);
}

// ---------------------------------------------------------------- Archive

TEST(Archive, RoundTripScalars) {
  auto bytes = pack(std::int32_t{-7}, 3.5, std::uint8_t{255}, true);
  std::int32_t i = 0;
  double d = 0;
  std::uint8_t b = 0;
  bool f = false;
  unpack(bytes, i, d, b, f);
  EXPECT_EQ(i, -7);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(b, 255);
  EXPECT_TRUE(f);
}

TEST(Archive, RoundTripStringsAndVectors) {
  std::vector<double> v{1.0, 2.5, -3.0};
  std::string s = "colza pipeline";
  std::vector<std::string> names{"a", "", "long string with spaces"};
  auto bytes = pack(v, s, names);
  std::vector<double> v2;
  std::string s2;
  std::vector<std::string> names2;
  unpack(bytes, v2, s2, names2);
  EXPECT_EQ(v, v2);
  EXPECT_EQ(s, s2);
  EXPECT_EQ(names, names2);
}

TEST(Archive, RoundTripOptionalAndMap) {
  std::optional<int> some{5};
  std::optional<int> none;
  std::map<std::string, std::uint64_t> m{{"x", 1}, {"y", 2}};
  auto bytes = pack(some, none, m);
  std::optional<int> some2;
  std::optional<int> none2{99};
  std::map<std::string, std::uint64_t> m2;
  unpack(bytes, some2, none2, m2);
  EXPECT_EQ(some2, some);
  EXPECT_EQ(none2, none);
  EXPECT_EQ(m2, m);
}

struct Point {
  double x = 0, y = 0;
  std::string label;
  template <typename Ar>
  void serialize(Ar& ar) {
    ar & x & y & label;
  }
  bool operator==(const Point&) const = default;
};

TEST(Archive, RoundTripUserType) {
  Point p{1.5, -2.5, "origin"};
  std::vector<Point> pts{p, {0, 0, ""}};
  auto bytes = pack(p, pts);
  Point q;
  std::vector<Point> qs;
  unpack(bytes, q, qs);
  EXPECT_EQ(q, p);
  EXPECT_EQ(qs, pts);
}

TEST(Archive, TruncatedInputThrows) {
  auto bytes = pack(std::uint64_t{12345});
  bytes.resize(3);
  std::uint64_t out = 0;
  EXPECT_THROW(unpack(bytes, out), std::runtime_error);
}

TEST(Archive, CorruptVectorSizeThrows) {
  // A vector claiming 2^60 elements must not allocate; it must throw.
  auto bytes = pack(std::uint64_t{1ULL << 60});
  std::vector<double> v;
  EXPECT_THROW(unpack(bytes, v), std::runtime_error);
}

// A common::Bytes (the landing buffer that grows without a zero-fill) has
// the same wire form as std::vector<std::byte>, and either loads the other.
TEST(Archive, BytesWriteTheSameWireBytesAsByteVectors) {
  std::vector<std::byte> plain(1000);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::byte>(i * 7);
  const common::Bytes bytes(plain.begin(), plain.end());
  const auto wire = pack(bytes, std::uint32_t{42});
  EXPECT_EQ(wire, pack(plain, std::uint32_t{42}));

  common::Bytes loaded = {std::byte{1}, std::byte{2}};
  std::uint32_t tail = 0;
  unpack(wire, loaded, tail);
  EXPECT_EQ(loaded, bytes);
  EXPECT_EQ(tail, 42u);
  std::vector<std::byte> back;
  unpack(pack(loaded), back);
  EXPECT_EQ(back, plain);
  EXPECT_EQ(pack(common::Bytes{}), pack(std::vector<std::byte>{}));
}

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.fork();
  Rng a2(5);
  Rng child2 = a2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child(), child2());
}

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, ParsesNested) {
  auto v = json::parse(R"({"pipeline":"iso","levels":[0.1,0.2],"opts":{"clip":true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("pipeline", ""), "iso");
  ASSERT_TRUE(v.find("levels")->is_array());
  EXPECT_EQ(v.find("levels")->as_array().size(), 2u);
  EXPECT_TRUE(v.find("opts")->bool_or("clip", false));
}

TEST(Json, DefaultsOnMissingKeys) {
  auto v = json::parse(R"({"a":1})");
  EXPECT_DOUBLE_EQ(v.number_or("a", 0), 1.0);
  EXPECT_DOUBLE_EQ(v.number_or("b", 7.5), 7.5);
  EXPECT_EQ(v.string_or("b", "dflt"), "dflt");
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(Json, DumpRoundTrips) {
  const std::string src = R"({"arr":[1,2.5,"s",null,true],"n":-3})";
  auto v = json::parse(src);
  auto v2 = json::parse(v.dump());
  EXPECT_EQ(v2.dump(), v.dump());
}

TEST(Json, MalformedThrows) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("1 2"), std::runtime_error);
}

// ---------------------------------------------------------------- units

TEST(Units, FormatSize) {
  EXPECT_EQ(format_size(8), "8 B");
  EXPECT_EQ(format_size(2 * KiB), "2 KiB");
  EXPECT_EQ(format_size(512 * KiB), "512 KiB");
  EXPECT_EQ(format_size(8 * MiB), "8 MiB");
  EXPECT_EQ(format_size(3 * GiB), "3 GiB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration_ns(500), "500 ns");
  EXPECT_EQ(format_duration_ns(1500000), "1.5 ms");
  EXPECT_EQ(format_duration_ns(2000000000ULL), "2 s");
}

// ------------------------------------------------------------- BufferPool

TEST(BufferPool, ReusesFreedStorage) {
  common::BufferPool pool;
  std::byte* first = nullptr;
  {
    common::Buffer b = pool.acquire(100);
    first = b.data();
    EXPECT_EQ(b.size(), 100u);
  }
  EXPECT_EQ(pool.idle_buffers(), 1u);
  // Same size class (128 B): must get the identical block back.
  common::Buffer b2 = pool.acquire(120);
  EXPECT_EQ(b2.data(), first);
  EXPECT_EQ(b2.size(), 120u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPool, RoundsUpToPowerOfTwoClasses) {
  common::BufferPool pool;
  { common::Buffer b = pool.acquire(65); }     // class 128
  { common::Buffer b = pool.acquire(1); }      // class 64 (minimum)
  EXPECT_EQ(pool.idle_buffers(), 2u);
  common::Buffer small = pool.acquire(60);     // hits the 64 B block
  common::Buffer medium = pool.acquire(128);   // hits the 128 B block
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPool, CopyOfPreservesContents) {
  common::BufferPool pool;
  std::vector<std::byte> src(37);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i * 7);
  common::Buffer b = pool.copy_of(src);
  ASSERT_EQ(b.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(b.data()[i], src[i]);
}

TEST(BufferPool, OversizedRequestsBypassPool) {
  common::BufferPool pool;
  const std::size_t huge =
      (std::size_t{1} << common::BufferPool::kMaxClassLog2) + 1;
  { common::Buffer b = pool.acquire(huge); EXPECT_EQ(b.size(), huge); }
  EXPECT_EQ(pool.idle_buffers(), 0u);  // not recycled
  EXPECT_EQ(pool.hits(), 0u);
}

TEST(BufferPool, FreelistDepthIsCapped) {
  common::BufferPool pool;
  std::vector<common::Buffer> live;
  for (std::size_t i = 0; i < common::BufferPool::kMaxPerClass + 10; ++i)
    live.push_back(pool.acquire(64));
  live.clear();  // all return to the 64 B class at once
  EXPECT_EQ(pool.idle_buffers(), common::BufferPool::kMaxPerClass);
  pool.trim();
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPool, AdoptedVectorIsNotPooled) {
  common::BufferPool pool;
  std::vector<std::byte> v(50, std::byte{42});
  { common::Buffer b(std::move(v)); EXPECT_EQ(b.size(), 50u); }
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  common::BufferPool pool;
  common::Buffer a = pool.acquire(64);
  std::byte* p = a.data();
  common::Buffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  b = pool.acquire(64);    // move-assign releases the old block to the pool
  EXPECT_EQ(pool.idle_buffers(), 1u);
}

TEST(BufferPool, FreedBlockNeverServesAMismatchedClass) {
  common::BufferPool pool;
  { common::Buffer big = pool.acquire(200); }  // class 256 recycled
  common::Buffer small = pool.acquire(64);     // class 64: different freelist
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  common::Buffer big2 = pool.acquire(129);  // class 256 again: reuse
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPool, ReuseKeepsLogicalSizeIndependentOfCapacity) {
  common::BufferPool pool;
  { common::Buffer b = pool.acquire(100); }  // class-128 block recycled
  common::Buffer b = pool.acquire(70);       // same class, shorter length
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.span().size(), 70u);
  std::span<const std::byte> view = b;  // implicit conversion
  EXPECT_EQ(view.size(), 70u);
}

// Adversarial free/alloc interleaving: a seeded random walk acquires and
// releases buffers of mixed size classes while dozens stay live. Each live
// buffer carries a distinct fill pattern verified at release time, so any
// aliasing between a recycled block and a still-live buffer (the classic
// pool double-hand-out bug) shows up as a corrupted pattern.
TEST(BufferPool, AdversarialInterleavingNeverAliasesLiveBuffers) {
  common::BufferPool pool;
  Rng rng(20260805);
  struct Live {
    common::Buffer buf;
    std::byte fill{};
  };
  std::vector<Live> live;
  // Sizes straddle class boundaries (64/128/4096) plus an unpooled giant.
  const std::size_t sizes[] = {1,    60,   64,   65,      100,
                               128,  1000, 4096, 5000,    1u << 20,
                               (std::size_t{1} << common::BufferPool::kMaxClassLog2) + 1};
  std::uint64_t pattern = 0;
  for (int step = 0; step < 1200; ++step) {
    const bool alloc = live.empty() || (live.size() < 48 && rng.below(2) == 0);
    if (alloc) {
      const std::size_t n = sizes[rng.below(std::size(sizes))];
      common::Buffer b = pool.acquire(n);
      ASSERT_EQ(b.size(), n);
      const auto fill = static_cast<std::byte>(++pattern & 0xff);
      std::fill(b.data(), b.data() + b.size(), fill);
      live.push_back(Live{std::move(b), fill});
    } else {
      const auto victim = static_cast<std::size_t>(rng.below(live.size()));
      const Live& l = live[victim];
      // The pattern written at acquire time must have survived every pool
      // round-trip other buffers made since: the first byte is the fill and
      // every byte equals its successor (one memcmp of the buffer against
      // itself shifted by a byte, so every byte is still compared).
      const std::byte* d = l.buf.data();
      const bool intact =
          d[0] == l.fill && std::memcmp(d, d + 1, l.buf.size() - 1) == 0;
      ASSERT_TRUE(intact) << "buffer contents clobbered at step " << step;
      std::swap(live[victim], live.back());
      live.pop_back();  // releases the victim's storage back to the pool
    }
  }
  EXPECT_GT(pool.hits(), 0u);  // the walk actually exercised reuse
  live.clear();
  // Every pooled class respects the freelist depth cap even after the walk.
  EXPECT_LE(pool.idle_buffers(),
            (common::BufferPool::kMaxClassLog2 -
             common::BufferPool::kMinClassLog2 + 1) *
                common::BufferPool::kMaxPerClass);
}

// ---------------------------------------------------------------- Crc32c

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::transform(s.begin(), s.end(), out.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return out;
}

TEST(Crc32c, StandardCheckValue) {
  // The canonical CRC32C test vector (RFC 3720 appendix B.4).
  EXPECT_EQ(common::crc32c(to_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(common::crc32c(std::span<const std::byte>{}), 0u);
}

TEST(Crc32c, SeedComposes) {
  const auto whole = to_bytes("colza staging data plane");
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::span<const std::byte> head(whole.data(), split);
    const std::span<const std::byte> tail(whole.data() + split,
                                          whole.size() - split);
    EXPECT_EQ(common::crc32c(tail, common::crc32c(head)),
              common::crc32c(whole))
        << "split at " << split;
  }
  // Splits inside the hardware path's lanes: a seed must enter and leave
  // the three-chain blocks (3 x 8 KiB, then 3 x 256 B) intact.
  std::vector<std::byte> big(3 * 8192 + 3 * 256 + 13);
  Rng rng(17);
  for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
  const std::uint32_t want = common::crc32c(big);
  for (std::size_t split : {std::size_t{5}, std::size_t{8192 + 3},
                            std::size_t{2 * 8192 + 4000},
                            std::size_t{3 * 8192 + 300}}) {
    const std::span<const std::byte> head(big.data(), split);
    const std::span<const std::byte> tail(big.data() + split,
                                          big.size() - split);
    EXPECT_EQ(common::crc32c(tail, common::crc32c(head)), want)
        << "split at " << split;
  }
}

// crc32c_splice joins two CRCs: crc32c(A || B, seed) from crc32c(A, seed)
// and crc32c(B) when |B| is the splice length -- whichever kernel produced
// the two parts (the table kernel's parts splice the same way, which is
// what a CPU without SSE4.2 relies on).
TEST(Crc32c, SpliceJoinsTwoParts) {
  Rng rng(29);
  auto check = [&]<std::size_t Len>() {
    for (int round = 0; round < 4; ++round) {
      std::vector<std::byte> whole(
          static_cast<std::size_t>(rng.below(3000)) + Len);
      for (auto& b : whole) b = static_cast<std::byte>(rng.below(256));
      const std::size_t split = whole.size() - Len;
      const std::span<const std::byte> a(whole.data(), split);
      const std::span<const std::byte> b(whole.data() + split, Len);
      const auto seed = static_cast<std::uint32_t>(rng());
      EXPECT_EQ(common::crc32c_splice<Len>(common::crc32c(a, seed),
                                           common::crc32c(b)),
                common::crc32c(whole, seed))
          << "len " << Len << " split " << split;
      const std::uint32_t a_table =
          ~common::detail::crc32c_scalar(a.data(), a.size(), ~seed);
      const std::uint32_t b_table =
          ~common::detail::crc32c_scalar(b.data(), b.size(), ~0u);
      EXPECT_EQ(common::crc32c_splice<Len>(a_table, b_table),
                common::crc32c(whole, seed))
          << "len " << Len << " (table kernel)";
    }
  };
  check.template operator()<1>();
  check.template operator()<256>();
  check.template operator()<24 * 1024>();
  check.template operator()<256 * 1024>();
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  auto data = to_bytes("silent corruption must not stay silent");
  const std::uint32_t good = common::crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    EXPECT_NE(common::crc32c(data), good) << "bit " << bit;
    data[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
  }
  EXPECT_EQ(common::crc32c(data), good);
}

// The dispatch contract: whatever path crc32c() picks (the SSE4.2 kernel
// whenever the CPU has SSE4.2), its result and the hardware kernel's are
// bit-identical to the scalar table fallback -- including every length mod
// 8 (the hardware path switches from 64-bit to byte steps there), each side
// of the three-chain block sizes (3 x 256 B and 3 x 8 KiB, whose partial
// CRCs are spliced by the shift tables), a staging-size block, unaligned
// starts and nonzero seeds.
TEST(Crc32c, ActivePathMatchesScalarBitForBit) {
  auto check = [](std::span<const std::byte> data, std::uint32_t seed,
                  std::size_t start) {
    const std::uint32_t scalar =
        ~common::detail::crc32c_scalar(data.data(), data.size(), ~seed);
    EXPECT_EQ(common::crc32c(data, seed), scalar)
        << "len " << data.size() << " start " << start;
#if defined(__x86_64__)
    if (common::detail::crc32c_hw_usable()) {
      EXPECT_EQ(~common::detail::crc32c_hw(data.data(), data.size(), ~seed),
                scalar)
          << "len " << data.size() << " start " << start;
    }
#endif
  };
  Rng rng(41);
  for (int round = 0; round < 64; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.below(1024));
    std::vector<std::byte> data(n);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    const auto seed =
        round % 2 != 0 ? static_cast<std::uint32_t>(rng.below(0x100000000ull))
                       : 0u;
    check(data, seed, 0);
  }
  constexpr std::size_t kStaged = (2u << 20) + 13;
  std::vector<std::byte> big(kStaged + 7);
  for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
  for (std::size_t n : {std::size_t{767}, std::size_t{768}, std::size_t{769},
                        std::size_t{24575}, std::size_t{24576},
                        std::size_t{24577}, kStaged}) {
    for (std::size_t start = 0; start < 8; ++start) {
      const auto seed =
          static_cast<std::uint32_t>(rng.below(0xFFFFFFFFull)) + 1u;
      check(std::span<const std::byte>(big.data() + start, n), seed, start);
    }
  }
}

}  // namespace
}  // namespace colza
