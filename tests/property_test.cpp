// Property-based / fuzz tests across modules: randomized inputs checked
// against independent reference implementations or round-trip identities.
// All randomness is seeded -- failures reproduce exactly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "des/simulation.hpp"
#include "icet/icet.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "vis/communicator.hpp"
#include "vis/filters.hpp"

namespace colza {
namespace {

// ------------------------------------------------------------ icet fuzz

render::FrameBuffer random_image(Rng& rng, int w, int h) {
  render::FrameBuffer fb(w, h);
  for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
    if (rng.uniform() < 0.45) continue;  // inactive
    for (int c = 0; c < 3; ++c)
      fb.rgba[p * 4 + static_cast<std::size_t>(c)] =
          static_cast<float>(rng.uniform());
    fb.rgba[p * 4 + 3] = 1.0f;
    fb.depth[p] = static_cast<float>(rng.uniform(0.05, 0.95));
  }
  return fb;
}

// Sequential reference: composite all images with closest-depth per pixel.
render::FrameBuffer reference_composite(
    const std::vector<render::FrameBuffer>& images) {
  render::FrameBuffer out(images[0].width, images[0].height);
  for (const auto& img : images) {
    for (std::size_t p = 0; p < out.pixel_count(); ++p) {
      if (img.rgba[p * 4 + 3] == 0.0f && img.depth[p] == 1.0f) continue;
      if (img.depth[p] < out.depth[p]) {
        for (int c = 0; c < 4; ++c)
          out.rgba[p * 4 + static_cast<std::size_t>(c)] =
              img.rgba[p * 4 + static_cast<std::size_t>(c)];
        out.depth[p] = img.depth[p];
      }
    }
  }
  return out;
}

class IcetFuzz : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, IcetFuzz, ::testing::Range(0, 10));

TEST_P(IcetFuzz, AllStrategiesMatchSequentialReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
  const int n = 1 + static_cast<int>(rng.below(9));
  const int w = 8 + static_cast<int>(rng.below(24));
  const int h = 8 + static_cast<int>(rng.below(24));
  std::vector<render::FrameBuffer> images;
  for (int i = 0; i < n; ++i) images.push_back(random_image(rng, w, h));
  const render::FrameBuffer expected = reference_composite(images);

  for (icet::Strategy strategy :
       {icet::Strategy::tree, icet::Strategy::binary_swap,
        icet::Strategy::direct}) {
    des::Simulation sim;
    net::Network net(sim);
    std::vector<net::Process*> procs;
    std::vector<std::unique_ptr<mona::Instance>> insts;
    std::vector<net::ProcId> addrs;
    for (int i = 0; i < n; ++i) {
      auto& p = net.create_process(static_cast<net::NodeId>(i / 4));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      addrs.push_back(p.id());
    }
    std::vector<std::unique_ptr<vis::MonaCommunicator>> comms(
        static_cast<std::size_t>(n));
    std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      comms[static_cast<std::size_t>(i)] =
          std::make_unique<vis::MonaCommunicator>(
              insts[static_cast<std::size_t>(i)]->comm_create(addrs));
      fbs[static_cast<std::size_t>(i)] = images[static_cast<std::size_t>(i)];
      procs[static_cast<std::size_t>(i)]->spawn("c", [&, i, strategy] {
        auto vt = icet::make_vtable(*comms[static_cast<std::size_t>(i)]);
        auto r = icet::composite(fbs[static_cast<std::size_t>(i)], vt,
                                 strategy, icet::CompositeOp::closest_depth);
        ASSERT_TRUE(r.has_value());
      });
    }
    sim.run();
    ASSERT_EQ(fbs[0].content_hash(), expected.content_hash())
        << "strategy " << static_cast<int>(strategy) << " n=" << n << " "
        << w << "x" << h;
  }
}

// ----------------------------------------------------------- archive fuzz

struct FuzzRecord {
  std::int64_t id = 0;
  std::string name;
  std::vector<double> values;
  std::optional<std::string> note;
  std::map<std::string, std::uint32_t> tags;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & id & name & values & note & tags;
  }
  bool operator==(const FuzzRecord&) const = default;
};

FuzzRecord random_record(Rng& rng) {
  FuzzRecord r;
  r.id = static_cast<std::int64_t>(rng() - (1ULL << 62));
  const auto len = rng.below(40);
  for (std::uint64_t i = 0; i < len; ++i)
    r.name += static_cast<char>(rng.below(256));
  const auto nvals = rng.below(100);
  for (std::uint64_t i = 0; i < nvals; ++i)
    r.values.push_back(rng.uniform(-1e9, 1e9));
  if (rng.uniform() < 0.5) r.note = "note-" + std::to_string(rng());
  const auto ntags = rng.below(8);
  for (std::uint64_t i = 0; i < ntags; ++i)
    r.tags["k" + std::to_string(rng.below(100))] =
        static_cast<std::uint32_t>(rng());
  return r;
}

TEST(ArchiveFuzz, RandomStructuredDataRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<FuzzRecord> records;
    const auto n = rng.below(5);
    for (std::uint64_t i = 0; i < n; ++i) records.push_back(random_record(rng));
    auto bytes = pack(records);
    std::vector<FuzzRecord> back;
    unpack(bytes, back);
    ASSERT_EQ(back, records) << "trial " << trial;
  }
}

TEST(ArchiveFuzz, TruncationAlwaysThrowsNeverCrashes) {
  Rng rng(123);
  FuzzRecord r = random_record(rng);
  auto bytes = pack(r);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<std::byte> truncated(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    FuzzRecord out;
    EXPECT_THROW(unpack(truncated, out), std::runtime_error) << cut;
  }
}

// -------------------------------------------------------------- json fuzz

json::Value random_json(Rng& rng, int depth) {
  const auto kind = rng.below(depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.uniform() < 0.5);
    case 2: return json::Value(rng.uniform(-1e6, 1e6));
    case 3: {
      std::string s;
      const auto len = rng.below(12);
      const char alphabet[] =
          "abcXYZ019 _-\"\\\n\t";  // includes escape-needing chars
      for (std::uint64_t i = 0; i < len; ++i)
        s += alphabet[rng.below(sizeof(alphabet) - 1)];
      return json::Value(std::move(s));
    }
    case 4: {
      json::Array a;
      const auto n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i)
        a.push_back(random_json(rng, depth - 1));
      return json::Value(std::move(a));
    }
    default: {
      json::Object o;
      const auto n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i)
        o.emplace("key" + std::to_string(i), random_json(rng, depth - 1));
      return json::Value(std::move(o));
    }
  }
}

TEST(JsonFuzz, DumpParseIsAFixpoint) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    json::Value v = random_json(rng, 4);
    const std::string d1 = v.dump();
    json::Value v2 = json::parse(d1);
    ASSERT_EQ(v2.dump(), d1) << "trial " << trial << ": " << d1;
  }
}

// ------------------------------------------------------------- mona fuzz

TEST(MonaFuzz, RandomCollectiveSequencesMatchReference) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed * 31 + 11);
    const int n = 2 + static_cast<int>(rng.below(9));
    const int ops = 6;
    // Pre-draw the op sequence and per-rank contributions.
    std::vector<int> kinds;
    std::vector<std::vector<std::int64_t>> contrib(
        static_cast<std::size_t>(n));
    for (int o = 0; o < ops; ++o) kinds.push_back(static_cast<int>(rng.below(3)));
    for (auto& c : contrib) {
      for (int o = 0; o < ops; ++o)
        c.push_back(static_cast<std::int64_t>(rng.below(1000)));
    }

    des::Simulation sim(des::SimConfig{.seed = seed});
    net::Network net(sim);
    std::vector<net::Process*> procs;
    std::vector<std::unique_ptr<mona::Instance>> insts;
    std::vector<net::ProcId> addrs;
    for (int i = 0; i < n; ++i) {
      auto& p = net.create_process(static_cast<net::NodeId>(i / 4));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      addrs.push_back(p.id());
    }
    std::vector<std::shared_ptr<mona::Communicator>> comms;
    for (int i = 0; i < n; ++i)
      comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));

    std::vector<std::vector<std::int64_t>> results(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
        auto& comm = *comms[static_cast<std::size_t>(i)];
        for (int o = 0; o < ops; ++o) {
          std::int64_t mine = contrib[static_cast<std::size_t>(i)]
                                     [static_cast<std::size_t>(o)];
          std::int64_t out = -1;
          std::span<const std::byte> is{
              reinterpret_cast<const std::byte*>(&mine), 8};
          std::span<std::byte> os{reinterpret_cast<std::byte*>(&out), 8};
          switch (kinds[static_cast<std::size_t>(o)]) {
            case 0:
              ASSERT_TRUE(
                  comm.allreduce(is, os, 1, mona::op_sum<std::int64_t>()).ok());
              break;
            case 1:
              ASSERT_TRUE(
                  comm.allreduce(is, os, 1, mona::op_max<std::int64_t>()).ok());
              break;
            default:
              ASSERT_TRUE(
                  comm.scan(is, os, 1, mona::op_sum<std::int64_t>()).ok());
              break;
          }
          results[static_cast<std::size_t>(i)].push_back(out);
        }
      });
    }
    sim.run();

    // Reference.
    for (int o = 0; o < ops; ++o) {
      std::int64_t sum = 0, mx = std::numeric_limits<std::int64_t>::min();
      for (int i = 0; i < n; ++i) {
        const std::int64_t c = contrib[static_cast<std::size_t>(i)]
                                      [static_cast<std::size_t>(o)];
        sum += c;
        mx = std::max(mx, c);
      }
      std::int64_t prefix = 0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t c = contrib[static_cast<std::size_t>(i)]
                                      [static_cast<std::size_t>(o)];
        prefix += c;
        const std::int64_t got = results[static_cast<std::size_t>(i)]
                                        [static_cast<std::size_t>(o)];
        switch (kinds[static_cast<std::size_t>(o)]) {
          case 0: ASSERT_EQ(got, sum) << "seed " << seed; break;
          case 1: ASSERT_EQ(got, mx) << "seed " << seed; break;
          default: ASSERT_EQ(got, prefix) << "seed " << seed; break;
        }
      }
    }
  }
}

// ----------------------------------------------------- determinism property

TEST(Determinism, IdenticalSeedsIdenticalTimelines) {
  auto run_once = [](std::uint64_t seed) {
    des::Simulation sim(des::SimConfig{.seed = seed});
    net::Network net(sim);
    std::vector<net::Process*> procs;
    std::vector<std::unique_ptr<mona::Instance>> insts;
    std::vector<net::ProcId> addrs;
    for (int i = 0; i < 6; ++i) {
      auto& p = net.create_process(static_cast<net::NodeId>(i / 2));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      addrs.push_back(p.id());
    }
    std::vector<std::shared_ptr<mona::Communicator>> comms;
    for (int i = 0; i < 6; ++i)
      comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));
    std::uint64_t signature = 0;
    for (int i = 0; i < 6; ++i) {
      procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
        auto& comm = *comms[static_cast<std::size_t>(i)];
        for (int o = 0; o < 5; ++o) {
          sim.sleep_for(des::microseconds(sim.rng().below(500)));
          std::int64_t mine = i * 17 + o;
          std::int64_t out = 0;
          comm.allreduce({reinterpret_cast<const std::byte*>(&mine), 8},
                         {reinterpret_cast<std::byte*>(&out), 8}, 1,
                         mona::op_sum<std::int64_t>())
              .check();
          signature = signature * 31 + static_cast<std::uint64_t>(out) +
                      sim.now();
        }
      });
    }
    sim.run();
    return signature ^ sim.now();
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_NE(run_once(5), run_once(9));  // different seeds, different timing
}

}  // namespace
}  // namespace colza
