// RPC engine: the simulated equivalent of Margo (Mercury RPC + Argobots).
//
// One Engine per simulated process. Handlers are registered by name and run
// each in their own fiber, so a handler may block on collectives, RDMA pulls,
// or nested RPCs without stalling the progress loop -- the property of
// Margo's Argobots binding that the paper relies on (S II-C).
//
// Wire format (over net::Mailbox "rpc"):
//   request : [kind=0][id][deadline][trace_id][span_id][name][args...]
//   response: [kind=1][id][status_code][status_msg][body...]
//
// Trace context: every request carries the caller's span context next to the
// deadline (zeros when tracing is disabled -- the 16 bytes are ALWAYS on the
// wire so enabling tracing never changes message sizes, and therefore never
// changes modeled latencies). The handler fiber opens its span as a child of
// the wire context, so cross-process traces stitch into one tree.
//
// Deadlines: every call carries an absolute virtual-time deadline (0 = none).
// The callee installs it as the handler fiber's *ambient* deadline, so nested
// RPCs made from that handler are automatically capped by the caller's
// remaining budget instead of re-starting a full timeout at every hop. A
// request that arrives after its deadline is answered with Timeout without
// running the handler (the caller has already given up and will retry; all
// handlers are idempotent). Callers can tighten the ambient deadline of their
// own fiber with a DeadlineScope.
//
// Circuit breaker: when EngineConfig::breaker_threshold > 0, that many
// consecutive *transport* failures (timeouts -- error replies prove the peer
// is alive and reset the count) open the circuit to that peer: calls fail
// fast with Unavailable until breaker_cooldown elapses, then one probe call
// is let through (half-open) and its outcome re-opens or closes the circuit.
//
// Failure model: requests to dead processes vanish on the fabric; the caller
// observes a timeout. A handler throwing maps to StatusCode::internal at the
// caller. Unknown RPC names map to StatusCode::not_found.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/archive.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "des/sync.hpp"
#include "net/network.hpp"
#include "net/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza::rpc {

// Information about an in-flight request visible to the handler.
struct RequestInfo {
  net::ProcId caller = net::kInvalidProc;
  std::string name;
  des::Time deadline = 0;  // absolute virtual time; 0 = none
  obs::TraceContext trace;  // caller's span context (zeros when untraced)
};

// A handler consumes arguments from `in`, writes its reply into `out`, and
// returns the status delivered to the caller.
using Handler =
    std::function<Status(const RequestInfo&, InArchive& in, OutArchive& out)>;

struct EngineConfig {
  des::Duration default_timeout = des::seconds(5);
  // Per-peer circuit breaker: after this many consecutive transport failures
  // (timeouts) to one peer, calls to it fail fast with Unavailable for
  // breaker_cooldown. 0 disables the breaker (the default: membership and
  // server engines keep their own retry discipline).
  int breaker_threshold = 0;
  des::Duration breaker_cooldown = des::seconds(10);
};

class Engine;

// RAII: tightens the ambient RPC deadline of the *current fiber* for the
// scope's lifetime. Nested scopes only ever tighten (the effective deadline
// is the minimum of the enclosing one and the new one); 0 is a no-op.
class DeadlineScope {
 public:
  DeadlineScope(Engine& engine, des::Time deadline);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  Engine* engine_;
  std::uint64_t fiber_;
  des::Time previous_ = 0;
  bool had_previous_ = false;
};

class Engine {
 public:
  Engine(net::Process& proc, net::Profile profile, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] net::Process& process() noexcept { return *proc_; }
  [[nodiscard]] net::ProcId self() const noexcept { return proc_->id(); }
  [[nodiscard]] const net::Profile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] des::Simulation& sim() noexcept { return proc_->sim(); }

  // Registers (or replaces) the handler for `name`.
  void define(const std::string& name, Handler handler);

  // The ambient deadline registered for the calling fiber (0 = none).
  [[nodiscard]] des::Time ambient_deadline() noexcept;

  // True while the breaker to `dest` is open (calls fail fast).
  [[nodiscard]] bool circuit_open(net::ProcId dest) noexcept;

  // ---- raw call ------------------------------------------------------------
  // Blocks the calling fiber until the response arrives or the deadline hits.
  // The effective deadline is min(now + timeout, ambient fiber deadline).
  Expected<std::vector<std::byte>> call_raw(net::ProcId dest,
                                            const std::string& name,
                                            std::vector<std::byte> args,
                                            des::Duration timeout = 0);

  // ---- typed convenience -----------------------------------------------------
  // Packs `args`, calls, and deserializes the reply into Res (use e.g.
  // rpc::None for empty replies).
  template <typename Res, typename... Args>
  Expected<Res> call(net::ProcId dest, const std::string& name,
                     const Args&... args) {
    auto reply = call_raw(dest, name, pack(args...));
    if (!reply.has_value()) return reply.status();
    Res res{};
    InArchive in(reply.value());
    in.load(res);
    return res;
  }

  template <typename Res, typename... Args>
  Expected<Res> call_timeout(net::ProcId dest, const std::string& name,
                             des::Duration timeout, const Args&... args) {
    auto reply = call_raw(dest, name, pack(args...), timeout);
    if (!reply.has_value()) return reply.status();
    Res res{};
    InArchive in(reply.value());
    in.load(res);
    return res;
  }

  // One-way notification: no response expected, never blocks on the peer.
  template <typename... Args>
  void notify(net::ProcId dest, const std::string& name, const Args&... args) {
    // id 0: no reply slot; deadline 0: notifications are never abandoned.
    send_request(dest, name, pack(args...), /*id=*/0, /*deadline=*/0,
                 obs::Tracer::global().current());
  }

  // RDMA pull through this engine's protocol profile (the stage() data path):
  // appends [offset, offset+length) of `ref` to `out` and, when `crc` is
  // given, stores the CRC32C of the bytes that landed (net::Network::rdma_get).
  Status rdma_pull(const net::BulkRef& ref, std::uint64_t offset,
                   std::uint64_t length, common::Bytes& out,
                   std::uint32_t* crc = nullptr) {
    return proc_->network().rdma_get(*proc_, ref, offset, length, out,
                                     profile_, crc);
  }

  // Stops the demux loop and fails all pending calls with shutting_down.
  void shutdown();
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

 private:
  friend class DeadlineScope;

  void demux_loop();
  void process_message(net::Message msg);
  void send_request(net::ProcId dest, const std::string& name,
                    std::vector<std::byte> args, std::uint64_t id,
                    des::Time deadline, obs::TraceContext trace);
  void handle_request(net::ProcId caller, std::uint64_t id, std::string name,
                      des::Time deadline, obs::TraceContext trace,
                      std::vector<std::byte> body);
  // Returns Unavailable when the breaker rejects the call; ok otherwise
  // (possibly admitting this call as the half-open probe).
  Status breaker_admit(net::ProcId dest, des::Time now);
  void breaker_failure(net::ProcId dest);
  void breaker_success(net::ProcId dest);
  void record_latency(const std::string& name, des::Duration elapsed);

  net::Process* proc_;
  net::Profile profile_;
  EngineConfig config_;
  std::map<std::string, Handler> handlers_;
  std::map<std::uint64_t, std::shared_ptr<des::Eventual<Expected<std::vector<std::byte>>>>>
      pending_;
  // Ambient per-fiber deadlines (DeadlineScope + handler dispatch).
  std::map<std::uint64_t, des::Time> fiber_deadlines_;
  // Per-peer breaker state machine: closed -> (threshold consecutive
  // transport failures) -> open -> (cooldown elapses) -> half_open, where
  // exactly one probe call is admitted (concurrent calls fail fast); the
  // probe's outcome closes or re-opens the circuit. A breakers_ entry only
  // exists while non-closed or counting failures; closed-and-clean = erased.
  struct Breaker {
    enum class State : std::uint8_t { closed, open, half_open };
    State state = State::closed;
    int failures = 0;
    des::Time open_until = 0;
    bool probe_in_flight = false;
  };
  std::map<net::ProcId, Breaker> breakers_;
  // One latency histogram handle per method ("rpc.latency.<method>"), so
  // steady-state recording is one hash lookup and an increment, and a
  // registry reset() re-resolves instead of leaving a dangling pointer.
  std::unordered_map<std::string, obs::Handle<obs::Histogram>> latency_;
  std::uint64_t next_id_ = 1;
  bool stopped_ = false;
};

// Empty reply/argument placeholder.
struct None {
  template <typename Ar>
  void serialize(Ar&) {}
};

}  // namespace colza::rpc
