// Unit tests for the RPC engine: request/response, typed calls, handler
// fibers, error mapping, timeouts, notifications, shutdown, and RDMA pulls.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "rpc/engine.hpp"

namespace colza::rpc {
namespace {

using des::milliseconds;
using des::seconds;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : server_proc(net.create_process(0)),
        client_proc(net.create_process(1)),
        server(server_proc, net::Profile::mona()),
        client(client_proc, net::Profile::mona()) {}

  des::Simulation sim;
  net::Network net{sim};
  net::Process& server_proc;
  net::Process& client_proc;
  Engine server;
  Engine client;
};

TEST_F(RpcTest, TypedEcho) {
  server.define("echo", [](const RequestInfo&, InArchive& in, OutArchive& out) {
    std::string s;
    in.load(s);
    out.save(s + "!");
    return Status::Ok();
  });
  std::string got;
  client_proc.spawn("caller", [&] {
    auto r = client.call<std::string>(server.self(), "echo",
                                      std::string("ping"));
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
    got = *r;
  });
  sim.run();
  EXPECT_EQ(got, "ping!");
}

TEST_F(RpcTest, MultipleArgumentsAndStructuredReply) {
  server.define("axpy", [](const RequestInfo&, InArchive& in, OutArchive& out) {
    double a = 0;
    std::vector<double> x, y;
    in.load(a);
    in.load(x);
    in.load(y);
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
    out.save(y);
    return Status::Ok();
  });
  std::vector<double> result;
  client_proc.spawn("caller", [&] {
    auto r = client.call<std::vector<double>>(
        server.self(), "axpy", 2.0, std::vector<double>{1, 2, 3},
        std::vector<double>{10, 10, 10});
    ASSERT_TRUE(r.has_value());
    result = *r;
  });
  sim.run();
  EXPECT_EQ(result, (std::vector<double>{12, 14, 16}));
}

TEST_F(RpcTest, RequestInfoCarriesCaller) {
  net::ProcId seen = net::kInvalidProc;
  server.define("who", [&](const RequestInfo& info, InArchive&, OutArchive&) {
    seen = info.caller;
    return Status::Ok();
  });
  client_proc.spawn("caller", [&] {
    (void)client.call<None>(server.self(), "who");
  });
  sim.run();
  EXPECT_EQ(seen, client_proc.id());
}

TEST_F(RpcTest, UnknownRpcReturnsNotFound) {
  client_proc.spawn("caller", [&] {
    auto r = client.call<None>(server.self(), "nope");
    EXPECT_EQ(r.status().code(), StatusCode::not_found);
  });
  sim.run();
}

TEST_F(RpcTest, HandlerErrorStatusPropagates) {
  server.define("fail", [](const RequestInfo&, InArchive&, OutArchive&) {
    return Status::FailedPrecondition("group is frozen");
  });
  client_proc.spawn("caller", [&] {
    auto r = client.call<None>(server.self(), "fail");
    EXPECT_EQ(r.status().code(), StatusCode::failed_precondition);
    EXPECT_EQ(r.status().message(), "group is frozen");
  });
  sim.run();
}

TEST_F(RpcTest, HandlerExceptionBecomesInternal) {
  server.define("throw", [](const RequestInfo&, InArchive&, OutArchive&) -> Status {
    throw std::runtime_error("bad pipeline");
  });
  client_proc.spawn("caller", [&] {
    auto r = client.call<None>(server.self(), "throw");
    EXPECT_EQ(r.status().code(), StatusCode::internal);
  });
  sim.run();
}

TEST_F(RpcTest, CallToDeadProcessTimesOut) {
  server_proc.kill();
  client_proc.spawn("caller", [&] {
    auto t0 = sim.now();
    auto r = client.call_timeout<None>(server.self(), "echo", seconds(2));
    EXPECT_EQ(r.status().code(), StatusCode::timeout);
    EXPECT_EQ(sim.now() - t0, seconds(2));
  });
  sim.run();
}

TEST_F(RpcTest, SlowHandlerTimesOutButLateResponseIsIgnored) {
  server.define("slow", [&](const RequestInfo&, InArchive&, OutArchive& out) {
    sim.sleep_for(seconds(10));
    out.save(std::string("late"));
    return Status::Ok();
  });
  client_proc.spawn("caller", [&] {
    auto r = client.call_timeout<std::string>(server.self(), "slow",
                                              milliseconds(100));
    EXPECT_EQ(r.status().code(), StatusCode::timeout);
    // Keep the client alive long enough for the late response to arrive and
    // be discarded without crashing.
    sim.sleep_for(seconds(15));
  });
  sim.run();
}

TEST_F(RpcTest, HandlersRunConcurrently) {
  // Two slow requests to the same server must overlap (handlers run in
  // separate fibers), so total time ~= one handler, not two.
  server.define("slow", [&](const RequestInfo&, InArchive&, OutArchive&) {
    sim.sleep_for(seconds(1));
    return Status::Ok();
  });
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    client_proc.spawn("caller", [&] {
      ASSERT_TRUE(client.call<None>(server.self(), "slow").has_value());
      ++done;
      EXPECT_LT(sim.now(), seconds(2));
    });
  }
  sim.run();
  EXPECT_EQ(done, 2);
}

TEST_F(RpcTest, HandlerCanIssueNestedRpc) {
  Engine backend{net.create_process(2), net::Profile::mona()};
  backend.define("leaf", [](const RequestInfo&, InArchive&, OutArchive& out) {
    out.save(std::int32_t{7});
    return Status::Ok();
  });
  server.define("front", [&](const RequestInfo&, InArchive&, OutArchive& out) {
    auto r = server.call<std::int32_t>(backend.self(), "leaf");
    if (!r.has_value()) return r.status();
    out.save(*r * 6);
    return Status::Ok();
  });
  std::int32_t got = 0;
  client_proc.spawn("caller", [&] {
    auto r = client.call<std::int32_t>(server.self(), "front");
    ASSERT_TRUE(r.has_value());
    got = *r;
  });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST_F(RpcTest, NotificationIsFireAndForget) {
  int hits = 0;
  server.define("note", [&](const RequestInfo&, InArchive& in, OutArchive&) {
    std::int32_t v = 0;
    in.load(v);
    hits += v;
    return Status::Ok();
  });
  client_proc.spawn("caller", [&] {
    client.notify(server.self(), "note", std::int32_t{5});
    client.notify(server.self(), "note", std::int32_t{6});
    sim.sleep_for(seconds(1));  // give notifications time to land
  });
  sim.run();
  EXPECT_EQ(hits, 11);
}

TEST_F(RpcTest, ShutdownFailsPendingCalls) {
  server.define("hang", [&](const RequestInfo&, InArchive&, OutArchive&) {
    sim.sleep_for(seconds(100));
    return Status::Ok();
  });
  StatusCode code = StatusCode::ok;
  client_proc.spawn("caller", [&] {
    auto r = client.call_timeout<None>(server.self(), "hang", seconds(50));
    code = r.status().code();
  });
  sim.schedule_at(seconds(1), [&] { client.shutdown(); });
  sim.run_until(seconds(2));
  EXPECT_EQ(code, StatusCode::shutting_down);
}

TEST_F(RpcTest, CallAfterShutdownFailsFast) {
  client.shutdown();
  client_proc.spawn("caller", [&] {
    auto r = client.call<None>(server.self(), "echo");
    EXPECT_EQ(r.status().code(), StatusCode::shutting_down);
    EXPECT_EQ(sim.now(), 0u);
  });
  sim.run();
}

TEST_F(RpcTest, RdmaPullThroughEngine) {
  std::vector<std::byte> data(1024, std::byte{0x5a});
  net::BulkRef ref = server_proc.expose(data);
  client_proc.spawn("caller", [&] {
    std::vector<std::byte> out;
    auto st = client.rdma_pull(ref, 0, data.size(), out);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(out, data);
  });
  sim.run();
}

TEST_F(RpcTest, ManyConcurrentCallsAllComplete) {
  server.define("inc", [](const RequestInfo&, InArchive& in, OutArchive& out) {
    std::int32_t v = 0;
    in.load(v);
    out.save(v + 1);
    return Status::Ok();
  });
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    client_proc.spawn("caller", [&, i] {
      auto r = client.call<std::int32_t>(server.self(), "inc",
                                         std::int32_t{i});
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(*r, i + 1);
      ++completed;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 64);
}

// The caller's absolute deadline rides the request frame, and a handler's
// nested RPCs inherit it as their ambient budget -- the deadline a nested
// callee observes is the *original* caller's, not now + default_timeout.
TEST_F(RpcTest, DeadlinePropagatesThroughNestedRpc) {
  auto& inner_proc = net.create_process(2);
  Engine inner(inner_proc, net::Profile::mona());
  des::Time seen = 0;
  inner.define("inner",
               [&](const RequestInfo& info, InArchive&, OutArchive&) {
                 seen = info.deadline;
                 return Status::Ok();
               });
  server.define("outer", [&](const RequestInfo&, InArchive&, OutArchive&) {
    auto r = server.call<None>(inner.self(), "inner");
    return r.status();
  });
  des::Time want = 0;
  client_proc.spawn("caller", [&] {
    want = sim.now() + seconds(2);
    auto r = client.call_timeout<None>(server.self(), "outer", seconds(2));
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
  });
  sim.run();
  EXPECT_EQ(seen, want);
}

// A request whose deadline lapsed in flight is never dispatched: the handler
// does not run (it may not be free to) and the caller sees a plain timeout.
TEST_F(RpcTest, RequestExpiredOnArrivalIsNotDispatched) {
  bool ran = false;
  server.define("work", [&](const RequestInfo&, InArchive&, OutArchive&) {
    ran = true;
    return Status::Ok();
  });
  StatusCode code = StatusCode::ok;
  client_proc.spawn("caller", [&] {
    // 1 ns of budget is less than any transport latency, so the request is
    // already expired when the server demuxes it.
    auto r = client.call_timeout<None>(server.self(), "work", 1);
    code = r.status().code();
  });
  sim.run();
  EXPECT_EQ(code, StatusCode::timeout);
  EXPECT_FALSE(ran);
}

// Per-peer circuit breaker: `breaker_threshold` consecutive timeouts open
// the circuit (calls fail fast with Unavailable, no waiting), and after the
// cooldown the next call goes through again and closes it.
// A registry reset() between two calls of one method: the second call's
// latency lands in the fresh rpc.latency.<method> histogram (the engine
// used to keep a raw pointer into the histogram the reset freed).
TEST_F(RpcTest, LatencyRecordingSurvivesRegistryReset) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  server.define("ping", [](const RequestInfo&, InArchive&, OutArchive&) {
    return Status::Ok();
  });
  client_proc.spawn("caller", [&] {
    ASSERT_TRUE(client.call<None>(server.self(), "ping").has_value());
    const obs::Histogram* first = reg.find_histogram("rpc.latency.ping");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->count, 1u);
    reg.reset();
    ASSERT_TRUE(client.call<None>(server.self(), "ping").has_value());
    const obs::Histogram* second = reg.find_histogram("rpc.latency.ping");
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->count, 1u);
  });
  sim.run();
}

TEST_F(RpcTest, BreakerOpensAfterConsecutiveTimeoutsAndRecovers) {
  auto& proc = net.create_process(2);
  EngineConfig cfg;
  cfg.default_timeout = seconds(1);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = seconds(10);
  Engine caller(proc, net::Profile::mona(), cfg);
  server.define("ping", [](const RequestInfo&, InArchive&, OutArchive&) {
    return Status::Ok();
  });
  std::vector<StatusCode> codes;
  proc.spawn("caller", [&] {
    net.set_link_down(proc.id(), server_proc.id(), true);
    for (int i = 0; i < 3; ++i) {
      codes.push_back(caller.call<None>(server_proc.id(), "ping")
                          .status()
                          .code());
    }
    EXPECT_TRUE(caller.circuit_open(server_proc.id()));
    const des::Time opened_at = sim.now();
    net.set_link_down(proc.id(), server_proc.id(), false);
    sim.sleep_for(cfg.breaker_cooldown + seconds(1));
    codes.push_back(caller.call<None>(server_proc.id(), "ping")
                        .status()
                        .code());
    EXPECT_FALSE(caller.circuit_open(server_proc.id()));
    EXPECT_GE(sim.now(), opened_at + cfg.breaker_cooldown);
  });
  sim.run();
  ASSERT_EQ(codes.size(), 4u);
  EXPECT_EQ(codes[0], StatusCode::timeout);
  EXPECT_EQ(codes[1], StatusCode::timeout);
  EXPECT_EQ(codes[2], StatusCode::unavailable);  // fail-fast while open
  EXPECT_EQ(codes[3], StatusCode::ok);
}

// Half-open lifecycle: after the cooldown the breaker lets one probe
// through; a failing probe re-opens the circuit for a fresh cooldown
// (immediate fail-fast again), and only a successful probe closes it. The
// transition counters record every state change.
TEST_F(RpcTest, BreakerHalfOpenProbeFailureReopens) {
  obs::MetricsRegistry::global().reset();
  auto& proc = net.create_process(2);
  EngineConfig cfg;
  cfg.default_timeout = seconds(1);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = seconds(10);
  Engine caller(proc, net::Profile::mona(), cfg);
  server.define("ping", [](const RequestInfo&, InArchive&, OutArchive&) {
    return Status::Ok();
  });
  proc.spawn("caller", [&] {
    net.set_link_down(proc.id(), server_proc.id(), true);
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
                StatusCode::timeout);
    }
    EXPECT_TRUE(caller.circuit_open(server_proc.id()));

    // Cooldown elapses but the link is still down: the half-open probe
    // fails and the circuit re-opens...
    sim.sleep_for(cfg.breaker_cooldown + seconds(1));
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::timeout);
    EXPECT_TRUE(caller.circuit_open(server_proc.id()));
    // ...so the next call fails fast without consuming virtual time.
    const des::Time t0 = sim.now();
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::unavailable);
    EXPECT_EQ(sim.now(), t0);

    // Second cooldown with the link healed: the probe succeeds and closes.
    net.set_link_down(proc.id(), server_proc.id(), false);
    sim.sleep_for(cfg.breaker_cooldown + seconds(1));
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::ok);
    EXPECT_FALSE(caller.circuit_open(server_proc.id()));
  });
  sim.run();
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter_value("rpc.breaker.open"), 2u);  // open + re-open
  EXPECT_EQ(reg.counter_value("rpc.breaker.half_open"), 2u);
  EXPECT_EQ(reg.counter_value("rpc.breaker.close"), 1u);
  EXPECT_EQ(reg.counter_value("rpc.breaker.rejected"), 1u);
}

// While a half-open probe is in flight, concurrent calls to the same peer
// are rejected immediately -- exactly one request may test the waters.
TEST_F(RpcTest, BreakerHalfOpenAdmitsSingleProbe) {
  auto& proc = net.create_process(2);
  EngineConfig cfg;
  cfg.default_timeout = seconds(1);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = seconds(10);
  Engine caller(proc, net::Profile::mona(), cfg);
  server.define("slow", [&](const RequestInfo&, InArchive&, OutArchive&) {
    sim.sleep_for(milliseconds(500));
    return Status::Ok();
  });
  StatusCode probe = StatusCode::ok, rejected = StatusCode::ok;
  proc.spawn("caller", [&] {
    net.set_link_down(proc.id(), server_proc.id(), true);
    for (int i = 0; i < 2; ++i) {
      (void)caller.call<None>(server_proc.id(), "slow");
    }
    net.set_link_down(proc.id(), server_proc.id(), false);
    sim.sleep_for(cfg.breaker_cooldown + seconds(1));
    // This call is the probe; it holds the half-open slot for ~500 ms.
    probe = caller.call<None>(server_proc.id(), "slow").status().code();
  });
  proc.spawn("second", [&] {
    // Arrive while the probe is in flight: the two 1 s timeouts put the
    // probe at t = 13 s, holding the slot until ~13.5 s.
    sim.sleep_for(seconds(2) + cfg.breaker_cooldown + seconds(1) +
                  milliseconds(100));
    const des::Time t0 = sim.now();
    rejected = caller.call<None>(server_proc.id(), "slow").status().code();
    EXPECT_EQ(sim.now(), t0);  // fail-fast, no waiting
  });
  sim.run();
  EXPECT_EQ(probe, StatusCode::ok);
  EXPECT_EQ(rejected, StatusCode::unavailable);
}

// A recovered peer starts with a clean slate: closing through a successful
// probe clears the consecutive-failure count, so a single later blip stays
// below the threshold and must not re-open the circuit.
TEST_F(RpcTest, BreakerFailureCountResetsAfterRecovery) {
  auto& proc = net.create_process(2);
  EngineConfig cfg;
  cfg.default_timeout = seconds(1);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = seconds(10);
  Engine caller(proc, net::Profile::mona(), cfg);
  server.define("ping", [](const RequestInfo&, InArchive&, OutArchive&) {
    return Status::Ok();
  });
  proc.spawn("caller", [&] {
    // Trip the breaker, then recover through a successful probe.
    net.set_link_down(proc.id(), server_proc.id(), true);
    for (int i = 0; i < 2; ++i) {
      (void)caller.call<None>(server_proc.id(), "ping");
    }
    EXPECT_TRUE(caller.circuit_open(server_proc.id()));
    net.set_link_down(proc.id(), server_proc.id(), false);
    sim.sleep_for(cfg.breaker_cooldown + seconds(1));
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::ok);
    EXPECT_FALSE(caller.circuit_open(server_proc.id()));

    // One isolated failure afterwards is below the threshold: the breaker
    // must stay closed and the next call must go through normally.
    net.set_link_down(proc.id(), server_proc.id(), true);
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::timeout);
    EXPECT_FALSE(caller.circuit_open(server_proc.id()));
    net.set_link_down(proc.id(), server_proc.id(), false);
    EXPECT_EQ(caller.call<None>(server_proc.id(), "ping").status().code(),
              StatusCode::ok);
  });
  sim.run();
}

}  // namespace
}  // namespace colza::rpc
