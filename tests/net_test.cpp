// Unit tests for the simulated fabric: mailboxes, transmission delays,
// protocol profiles, NIC contention, RDMA, and process lifecycle.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "net/profile.hpp"

namespace colza::net {
namespace {

using des::microseconds;
using des::milliseconds;
using des::seconds;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string string_of(std::span<const std::byte> v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

class NetTest : public ::testing::Test {
 protected:
  des::Simulation sim;
  Network net{sim};
  Profile prof = Profile::mona();
};

TEST_F(NetTest, DeliversMessageBetweenProcesses) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  std::string got;
  ProcId from = kInvalidProc;
  b.spawn("recv", [&] {
    auto m = b.mailbox("x").recv();
    ASSERT_TRUE(m.has_value());
    got = string_of(m->payload);
    from = m->source;
  });
  a.spawn("send", [&] {
    net.transmit(a, b.id(), "x", prof, Message{a.id(), 7, bytes_of("hello")});
  });
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(from, a.id());
}

TEST_F(NetTest, DeliveryTakesModeledTime) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  des::Time arrival = 0;
  b.spawn("recv", [&] {
    (void)b.mailbox("x").recv();
    arrival = sim.now();
  });
  a.spawn("send", [&] {
    net.transmit(a, b.id(), "x", prof,
                 Message{a.id(), 0, std::vector<std::byte>(128)});
  });
  sim.run();
  const des::Duration expected = net.message_delay(0, 1, 128, prof);
  EXPECT_GT(arrival, 0u);
  // Arrival = model delay (no NIC contention for a single message, but NIC
  // serialization adds a little on top of the base delay).
  EXPECT_GE(arrival, expected);
  EXPECT_LE(arrival, expected + microseconds(1));
}

TEST_F(NetTest, MessageDelayMonotoneInSize) {
  for (const auto& p : {Profile::cray_mpich(), Profile::openmpi(),
                        Profile::mona(), Profile::na()}) {
    des::Duration prev = 0;
    for (std::size_t size : {8u, 128u, 2048u, 16384u, 32768u, 524288u}) {
      const des::Duration d = net.message_delay(0, 1, size, p);
      EXPECT_GE(d, prev) << p.name << " @ " << size;
      prev = d;
    }
  }
}

TEST_F(NetTest, ProfileShapesMatchTable1) {
  // Relative shapes from the paper's Table I (per-op latency):
  // small messages: cray < openmpi < mona < na
  for (std::size_t size : {8u, 128u, 2048u}) {
    const auto cray = net.message_delay(0, 1, size, Profile::cray_mpich());
    const auto omp = net.message_delay(0, 1, size, Profile::openmpi());
    const auto mona = net.message_delay(0, 1, size, Profile::mona());
    const auto na = net.message_delay(0, 1, size, Profile::na());
    EXPECT_LT(cray, omp) << size;
    EXPECT_LT(omp, mona) << size;
    EXPECT_LT(mona, na) << size;
  }
  // Large messages: mona overtakes openmpi (RDMA vs rendezvous), cray wins.
  for (std::size_t size : {16384u, 32768u, 524288u}) {
    const auto cray = net.message_delay(0, 1, size, Profile::cray_mpich());
    const auto omp = net.message_delay(0, 1, size, Profile::openmpi());
    const auto mona = net.message_delay(0, 1, size, Profile::mona());
    EXPECT_LT(cray, mona) << size;
    EXPECT_LT(mona, omp) << size;
  }
}

TEST_F(NetTest, SameNodeUsesSharedMemoryFastPath) {
  const auto remote = net.message_delay(0, 1, 4096, prof);
  const auto local = net.message_delay(0, 0, 4096, prof);
  EXPECT_LT(local, remote);
}

TEST_F(NetTest, NicContentionSerializesIncast) {
  // Many senders to one receiver node: arrivals must spread out in time.
  auto& dst = net.create_process(0);
  constexpr int kSenders = 8;
  constexpr std::size_t kBytes = 512 * 1024;
  std::vector<des::Time> arrivals;
  dst.spawn("recv", [&] {
    for (int i = 0; i < kSenders; ++i) {
      (void)dst.mailbox("x").recv();
      arrivals.push_back(sim.now());
    }
  });
  for (int i = 0; i < kSenders; ++i) {
    auto& s = net.create_process(static_cast<NodeId>(1 + i));
    s.spawn("send", [&net = net, &s, &dst, this] {
      net.transmit(s, dst.id(), "x", prof,
                   Message{s.id(), 0, std::vector<std::byte>(kBytes)});
    });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kSenders));
  // Last arrival must be at least (kSenders-1) serialization slots after the
  // first: the shared NIC admits one 512 KiB transfer at a time.
  const auto slot = static_cast<des::Duration>(
      static_cast<double>(kBytes) / net.config().nic_bandwidth_gbps);
  EXPECT_GE(arrivals.back() - arrivals.front(), (kSenders - 1) * slot);
}

TEST_F(NetTest, TransmitToDeadProcessIsDropped) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  b.kill();
  bool sent = false;
  a.spawn("send", [&] {
    net.transmit(a, b.id(), "x", prof, Message{a.id(), 0, {}});
    sent = true;  // transmit never blocks or throws
  });
  sim.run();
  EXPECT_TRUE(sent);
}

TEST_F(NetTest, KillClosesMailboxesAndWakesReceivers) {
  auto& a = net.create_process(0);
  bool got_nothing = false;
  a.spawn("recv", [&] {
    auto m = a.mailbox("x").recv();
    got_nothing = !m.has_value();
  });
  sim.schedule_at(milliseconds(5), [&] { a.kill(); });
  sim.run();
  EXPECT_TRUE(got_nothing);
}

TEST_F(NetTest, RecvTimeout) {
  auto& a = net.create_process(0);
  bool timed_out = false;
  a.spawn("recv", [&] {
    auto m = a.mailbox("x").recv(milliseconds(10));
    timed_out = !m.has_value();
    EXPECT_EQ(sim.now(), milliseconds(10));
  });
  sim.run();
  EXPECT_TRUE(timed_out);
}

TEST_F(NetTest, TryRecv) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  a.spawn("check", [&] {
    EXPECT_FALSE(a.mailbox("x").try_recv().has_value());
    sim.sleep_for(seconds(1));
    auto m = a.mailbox("x").try_recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(string_of(m->payload), "later");
  });
  b.spawn("send", [&] {
    net.transmit(b, a.id(), "x", prof, Message{b.id(), 0, bytes_of("later")});
  });
  sim.run();
}

TEST_F(NetTest, MessagesFromOneSenderStayOrdered) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  std::vector<std::uint64_t> tags;
  b.spawn("recv", [&] {
    for (int i = 0; i < 20; ++i) {
      auto m = b.mailbox("x").recv();
      ASSERT_TRUE(m.has_value());
      tags.push_back(m->tag);
    }
  });
  a.spawn("send", [&] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      net.transmit(a, b.id(), "x", prof,
                   Message{a.id(), i, std::vector<std::byte>(64)});
    }
  });
  sim.run();
  ASSERT_EQ(tags.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(tags[i], i);
}

// ------------------------------------------------------------------ RDMA

TEST_F(NetTest, RdmaGetPullsExposedRegion) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data = bytes_of("staged simulation data");
  BulkRef ref = server.expose(data);
  EXPECT_EQ(ref.size, data.size());

  std::string got;
  client.spawn("pull", [&] {
    std::vector<std::byte> out;
    auto st = net.rdma_get(client, ref, 0, data.size(), out, prof);
    ASSERT_TRUE(st.ok()) << st.to_string();
    got = string_of(out);
    EXPECT_GT(sim.now(), 0u);  // pulling takes virtual time
  });
  sim.run();
  EXPECT_EQ(got, "staged simulation data");
}

TEST_F(NetTest, RdmaGetWithOffset) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data = bytes_of("0123456789");
  BulkRef ref = server.expose(data);
  client.spawn("pull", [&] {
    // The pull appends exactly the pulled range after what `out` holds.
    std::vector<std::byte> out = bytes_of("ab");
    ASSERT_TRUE(net.rdma_get(client, ref, 3, 4, out, prof).ok());
    ASSERT_TRUE(net.rdma_get(client, ref, 10, 0, out, prof).ok());
    EXPECT_EQ(string_of(out), "ab3456");
  });
  sim.run();
}

// The pull reports the CRC32C of the bytes it appended, computed while
// copying them: only the appended range, whatever `out` already held, across
// the 24 KiB chunk boundaries of the copy loop.
TEST_F(NetTest, RdmaGetDigestCoversOnlyTheAppendedRange) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  constexpr std::size_t kChunk = 24 * 1024;
  std::vector<std::byte> data((2u << 20) + 13 + 64);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  BulkRef ref = server.expose(data);
  client.spawn("pull", [&] {
    std::uint64_t offset = 1;
    for (std::size_t length : {std::size_t{0}, std::size_t{1}, kChunk - 1,
                               kChunk, kChunk + 1, (std::size_t{2} << 20) + 13}) {
      std::vector<std::byte> out = bytes_of("already here");
      const std::size_t before = out.size();
      std::uint32_t crc = 0xDEADBEEFu;
      ASSERT_TRUE(net.rdma_get(client, ref, offset, length, out, prof, &crc)
                      .ok())
          << length;
      ASSERT_EQ(out.size(), before + length) << length;
      EXPECT_EQ(string_of({out.data(), before}), "already here") << length;
      EXPECT_EQ(std::memcmp(out.data() + before, data.data() + offset, length),
                0)
          << length;
      const std::span<const std::byte> appended(out.data() + before, length);
      EXPECT_EQ(crc, common::crc32c(appended)) << length;
      EXPECT_NE(crc, common::crc32c(out)) << length;
      offset += 7;
    }
  });
  sim.run();
}

TEST_F(NetTest, RdmaGetBeyondRegionFails) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data(16);
  BulkRef ref = server.expose(data);
  client.spawn("pull", [&] {
    std::vector<std::byte> out;
    EXPECT_EQ(net.rdma_get(client, ref, 0, 17, out, prof).code(),
              StatusCode::invalid_argument);
    EXPECT_EQ(net.rdma_get(client, ref, 9, 8, out, prof).code(),
              StatusCode::invalid_argument);
    // offset + length wraps to 4: the check must not wrap with it.
    EXPECT_EQ(
        net.rdma_get(client, ref, ~std::uint64_t{0} - 3, 8, out, prof).code(),
        StatusCode::invalid_argument);
    EXPECT_TRUE(out.empty());
  });
  sim.run();
}

// A BulkRef is a wire value: one that overstates the owner's exposed region
// fails at once, before the pull allocates its destination or waits out a
// transfer modeled for the forged size.
TEST_F(NetTest, RdmaGetForgedLengthFailsBeforeAllocating) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data(4096);
  BulkRef forged = server.expose(data);
  client.spawn("pull", [&] {
    for (std::uint64_t size : {std::uint64_t{4097}, std::uint64_t{1} << 30,
                               std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      forged.size = size;
      std::vector<std::byte> out;
      EXPECT_EQ(net.rdma_get(client, forged, 0, size, out, prof).code(),
                StatusCode::invalid_argument)
          << size;
      EXPECT_EQ(out.capacity(), 0u) << size;
    }
    EXPECT_EQ(sim.now(), 0u);
  });
  sim.run();
}

TEST_F(NetTest, RdmaGetAfterUnexposeFails) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data(64);
  BulkRef ref = server.expose(data);
  server.unexpose(ref);
  client.spawn("pull", [&] {
    std::vector<std::byte> out;
    EXPECT_EQ(net.rdma_get(client, ref, 0, 64, out, prof).code(),
              StatusCode::not_found);
    EXPECT_TRUE(out.empty());
  });
  sim.run();
}

TEST_F(NetTest, RdmaGetFromDeadOwnerFails) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data(64);
  BulkRef ref = server.expose(data);
  client.spawn("pull", [&] {
    server.kill();
    std::vector<std::byte> out;
    EXPECT_EQ(net.rdma_get(client, ref, 0, 64, out, prof).code(),
              StatusCode::unreachable);
  });
  sim.run();
}

TEST_F(NetTest, RdmaLargeTransferScalesWithSize) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> small(4 * 1024), large(4 * 1024 * 1024);
  BulkRef rs = server.expose(small);
  BulkRef rl = server.expose(large);
  des::Duration t_small = 0, t_large = 0;
  client.spawn("pull", [&] {
    std::vector<std::byte> out;
    des::Time t0 = sim.now();
    ASSERT_TRUE(net.rdma_get(client, rs, 0, small.size(), out, prof).ok());
    t_small = sim.now() - t0;
    std::vector<std::byte> out2;
    t0 = sim.now();
    ASSERT_TRUE(net.rdma_get(client, rl, 0, large.size(), out2, prof).ok());
    t_large = sim.now() - t0;
  });
  sim.run();
  EXPECT_GT(t_large, 30 * t_small);  // 1024x bigger payload; fixed setup amortized
}

// ---------------------------------------------------------- lifecycle

TEST_F(NetTest, ProcessIdsAreUniqueAndFindable) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(0);
  auto& c = net.create_process(3);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(b.id(), c.id());
  EXPECT_EQ(net.find(a.id()), &a);
  EXPECT_EQ(net.find(12345), nullptr);
  EXPECT_EQ(net.alive_count(), 3u);
  b.kill();
  EXPECT_EQ(net.alive_count(), 2u);
}

TEST_F(NetTest, LateCreatedProcessCanCommunicate) {
  auto& a = net.create_process(0);
  std::string got;
  a.spawn("recv", [&] {
    auto m = a.mailbox("x").recv();
    ASSERT_TRUE(m.has_value());
    got = string_of(m->payload);
  });
  sim.schedule_at(seconds(10), [&] {
    auto& late = net.create_process(9);
    late.spawn("send", [&net = net, &late, &a, this] {
      net.transmit(late, a.id(), "x", prof,
                   Message{late.id(), 0, bytes_of("joined late")});
    });
  });
  sim.run();
  EXPECT_EQ(got, "joined late");
}


TEST_F(NetTest, LinkDownDropsMessagesUntilRestored) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  int received = 0;
  b.spawn("recv", [&] {
    while (true) {
      auto m = b.mailbox("x").recv(seconds(5));
      if (!m.has_value()) return;  // idle timeout ends the test
      ++received;
    }
  });
  a.spawn("send", [&] {
    net.set_link_down(a.id(), b.id(), true);
    EXPECT_TRUE(net.link_down(a.id(), b.id()));
    net.transmit(a, b.id(), "x", prof, Message{a.id(), 0, {}});  // dropped
    sim.sleep_for(seconds(1));
    net.set_link_down(a.id(), b.id(), false);
    net.transmit(a, b.id(), "x", prof, Message{a.id(), 0, {}});  // delivered
  });
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetTest, LinkDownIsDirectional) {
  auto& a = net.create_process(0);
  auto& b = net.create_process(1);
  net.set_link_down(a.id(), b.id(), true);
  EXPECT_TRUE(net.link_down(a.id(), b.id()));
  EXPECT_FALSE(net.link_down(b.id(), a.id()));
}

TEST_F(NetTest, RdmaFailsAcrossDownLink) {
  auto& server = net.create_process(0);
  auto& client = net.create_process(1);
  std::vector<std::byte> data(32);
  BulkRef ref = server.expose(data);
  net.set_link_down(client.id(), server.id(), true);
  client.spawn("pull", [&] {
    std::vector<std::byte> out;
    EXPECT_EQ(net.rdma_get(client, ref, 0, 32, out, prof).code(),
              StatusCode::unreachable);
  });
  sim.run();
}

TEST_F(NetTest, RandomLossDropsRoughlyTheConfiguredFraction) {
  des::Simulation lsim(des::SimConfig{.seed = 5});
  net::NetworkConfig ncfg;
  ncfg.message_loss_probability = 0.25;
  Network lnet(lsim, ncfg);
  auto& a = lnet.create_process(0);
  auto& b = lnet.create_process(1);
  constexpr int kSends = 2000;
  int received = 0;
  b.spawn("recv", [&] {
    while (true) {
      auto m = b.mailbox("x").recv(des::seconds(2));
      if (!m.has_value()) return;
      ++received;
    }
  });
  a.spawn("send", [&] {
    for (int i = 0; i < kSends; ++i) {
      lnet.transmit(a, b.id(), "x", prof,
                    Message{a.id(), 0, std::vector<std::byte>(8)});
    }
  });
  lsim.run();
  EXPECT_GT(received, kSends * 0.65);
  EXPECT_LT(received, kSends * 0.85);
}

TEST_F(NetTest, SameNodeTrafficImmuneToRandomLoss) {
  des::Simulation lsim(des::SimConfig{.seed = 6});
  net::NetworkConfig ncfg;
  ncfg.message_loss_probability = 1.0;  // drop every inter-node message
  Network lnet(lsim, ncfg);
  auto& a = lnet.create_process(0);
  auto& b = lnet.create_process(0);  // same node: shared-memory path
  bool got = false;
  b.spawn("recv", [&] {
    got = b.mailbox("x").recv(des::seconds(2)).has_value();
  });
  a.spawn("send", [&] {
    lnet.transmit(a, b.id(), "x", prof, Message{a.id(), 0, {}});
  });
  lsim.run();
  EXPECT_TRUE(got);
}


TEST_F(NetTest, DragonflyGroupsAddInterGroupLatency) {
  des::Simulation lsim;
  net::NetworkConfig ncfg;
  ncfg.nodes_per_group = 4;
  ncfg.inter_group_latency = des::nanoseconds(500);
  Network lnet(lsim, ncfg);
  const auto intra = lnet.message_delay(0, 3, 1024, prof);   // same group
  const auto inter = lnet.message_delay(0, 4, 1024, prof);   // next group
  EXPECT_EQ(inter, intra + des::nanoseconds(500));
  // Flat network (default): no difference.
  Network flat(lsim);
  EXPECT_EQ(flat.message_delay(0, 3, 1024, prof),
            flat.message_delay(0, 4, 1024, prof));
}

TEST_F(NetTest, RecvDrainsSameInstantBurstWithoutExtraEvents) {
  // A burst pushed at one instant wakes the receiver once: recv() on a
  // non-empty mailbox returns without blocking, so five messages cost the
  // run no more DES events than one does, and they come back in FIFO order.
  auto run = [](int count, std::vector<std::string>& got) {
    des::Simulation s;
    Network n(s);
    auto& p = n.create_process(0);
    p.spawn("recv", [&] {
      auto& box = p.mailbox("x");
      while (auto m = box.recv()) got.push_back(string_of(m->payload));
    });
    p.spawn("push", [&] {
      s.sleep_for(milliseconds(1));
      for (int i = 0; i < count; ++i) {
        p.mailbox("x").push(
            Message{p.id(), 0, bytes_of("m" + std::to_string(i))});
      }
      s.sleep_for(milliseconds(1));
      p.mailbox("x").close();
    });
    s.run();
    return s.events_processed();
  };
  std::vector<std::string> one;
  std::vector<std::string> five;
  const std::uint64_t one_events = run(1, one);
  const std::uint64_t five_events = run(5, five);
  EXPECT_EQ(one, std::vector<std::string>{"m0"});
  ASSERT_EQ(five.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(five[i], "m" + std::to_string(i));
  EXPECT_EQ(five_events, one_events);
}

}  // namespace
}  // namespace colza::net
