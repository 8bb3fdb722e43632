#include "rpc/engine.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"

namespace colza::rpc {

namespace {
constexpr std::uint8_t kRequest = 0;
constexpr std::uint8_t kResponse = 1;
constexpr const char* kMailbox = "rpc";
}  // namespace

DeadlineScope::DeadlineScope(Engine& engine, des::Time deadline)
    : engine_(&engine), fiber_(engine.sim().current_fiber_id()) {
  auto it = engine_->fiber_deadlines_.find(fiber_);
  had_previous_ = it != engine_->fiber_deadlines_.end();
  previous_ = had_previous_ ? it->second : 0;
  des::Time effective = deadline;
  if (had_previous_ && (effective == 0 || previous_ < effective)) {
    effective = previous_;  // only ever tighten
  }
  if (effective != 0) engine_->fiber_deadlines_[fiber_] = effective;
}

DeadlineScope::~DeadlineScope() {
  if (had_previous_) {
    engine_->fiber_deadlines_[fiber_] = previous_;
  } else {
    engine_->fiber_deadlines_.erase(fiber_);
  }
}

Engine::Engine(net::Process& proc, net::Profile profile, EngineConfig config)
    : proc_(&proc), profile_(std::move(profile)), config_(config) {
  proc_->spawn("rpc-demux", [this] { demux_loop(); },
               des::SpawnOptions{.daemon = true});
}

Engine::~Engine() { shutdown(); }

void Engine::define(const std::string& name, Handler handler) {
  handlers_[name] = std::move(handler);
}

des::Time Engine::ambient_deadline() noexcept {
  auto it = fiber_deadlines_.find(sim().current_fiber_id());
  return it == fiber_deadlines_.end() ? 0 : it->second;
}

bool Engine::circuit_open(net::ProcId dest) noexcept {
  auto it = breakers_.find(dest);
  return it != breakers_.end() && it->second.state == Breaker::State::open &&
         it->second.open_until > sim().now();
}

Status Engine::breaker_admit(net::ProcId dest, des::Time now) {
  auto it = breakers_.find(dest);
  if (it == breakers_.end()) return Status::Ok();
  Breaker& b = it->second;
  if (b.state == Breaker::State::open) {
    if (now < b.open_until) {
      obs::MetricsRegistry::global().counter("rpc.breaker.rejected").inc();
      return Status::Unavailable("circuit open to " + net::to_string(dest));
    }
    // Cooldown elapsed: go half-open and let exactly one probe through.
    b.state = Breaker::State::half_open;
    b.probe_in_flight = false;
    obs::MetricsRegistry::global().counter("rpc.breaker.half_open").inc();
    obs::Tracer::global().instant("breaker.half_open", "rpc");
  }
  if (b.state == Breaker::State::half_open) {
    if (b.probe_in_flight) {
      // The trial call is still out; don't pile more load on a peer we
      // have good reason to distrust.
      obs::MetricsRegistry::global().counter("rpc.breaker.rejected").inc();
      return Status::Unavailable("circuit half-open to " +
                                 net::to_string(dest) + ", probe in flight");
    }
    b.probe_in_flight = true;  // this call is the probe
  }
  return Status::Ok();
}

void Engine::breaker_failure(net::ProcId dest) {
  if (config_.breaker_threshold <= 0) return;
  auto& b = breakers_[dest];
  auto& metrics = obs::MetricsRegistry::global();
  switch (b.state) {
    case Breaker::State::half_open:
      // The probe failed: straight back to open for a fresh cooldown.
      b.state = Breaker::State::open;
      b.open_until = sim().now() + config_.breaker_cooldown;
      b.probe_in_flight = false;
      b.failures = config_.breaker_threshold;
      metrics.counter("rpc.breaker.open").inc();
      obs::Tracer::global().instant("breaker.reopen", "rpc");
      break;
    case Breaker::State::closed:
      if (++b.failures >= config_.breaker_threshold) {
        b.state = Breaker::State::open;
        b.open_until = sim().now() + config_.breaker_cooldown;
        metrics.counter("rpc.breaker.open").inc();
        obs::Tracer::global().instant("breaker.open", "rpc");
      }
      break;
    case Breaker::State::open:
      // A straggler that was already in flight when the circuit opened;
      // the breaker is doing its job, nothing to update.
      break;
  }
}

void Engine::breaker_success(net::ProcId dest) {
  if (config_.breaker_threshold <= 0) return;
  auto it = breakers_.find(dest);
  if (it == breakers_.end()) return;
  // Success proves the peer alive: close and forget, whatever the state
  // (a half-open probe succeeding is the designed recovery path; an
  // in-flight call outliving the open transition is equally good news).
  if (it->second.state != Breaker::State::closed) {
    obs::MetricsRegistry::global().counter("rpc.breaker.close").inc();
    obs::Tracer::global().instant("breaker.close", "rpc");
  }
  breakers_.erase(it);
}

void Engine::record_latency(const std::string& name, des::Duration elapsed) {
  auto it = latency_.find(name);
  if (it == latency_.end()) {
    it = latency_.try_emplace(name, "rpc.latency." + name).first;
  }
  it->second->record(elapsed);
}

void Engine::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  proc_->mailbox(kMailbox).close();
  for (auto& [id, ev] : pending_) {
    if (!ev->ready()) ev->set_value(Status::ShuttingDown());
  }
  pending_.clear();
}

void Engine::demux_loop() {
  auto& box = proc_->mailbox(kMailbox);
  // A burst that lands at one virtual instant (incast replies, fan-out
  // requests) costs one wakeup: recv() on a non-empty mailbox never blocks.
  while (!stopped_) {
    auto msg = box.recv();
    if (!msg.has_value()) return;  // mailbox closed (shutdown or kill)
    process_message(std::move(*msg));
  }
}

void Engine::process_message(net::Message msg) {
  InArchive in(msg.payload);
  std::uint8_t kind = 0;
  std::uint64_t id = 0;
  in.load(kind);
  in.load(id);
  if (kind == kRequest) {
    des::Time deadline = 0;
    obs::TraceContext trace;
    std::string name;
    in.load(deadline);
    in.load(trace);
    in.load(name);
    std::vector<std::byte> body(in.remaining());
    in.read_raw(body.data(), body.size());
    handle_request(msg.source, id, std::move(name), deadline, trace,
                   std::move(body));
  } else {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // late response after timeout
    auto ev = it->second;
    pending_.erase(it);
    StatusCode code{};
    std::string status_msg;
    std::uint64_t retry_after_us = 0;
    std::uint64_t detail = 0;
    in.load(code);
    in.load(status_msg);
    in.load(retry_after_us);
    in.load(detail);
    if (code == StatusCode::ok) {
      std::vector<std::byte> body(in.remaining());
      in.read_raw(body.data(), body.size());
      ev->set_value(std::move(body));
    } else {
      Status st(code, std::move(status_msg));
      st.set_retry_after_us(retry_after_us);
      st.set_detail(detail);
      ev->set_value(std::move(st));
    }
  }
}

void Engine::handle_request(net::ProcId caller, std::uint64_t id,
                            std::string name, des::Time deadline,
                            obs::TraceContext trace,
                            std::vector<std::byte> body) {
  // Each request runs in its own fiber so handlers can block (collectives,
  // RDMA, nested RPCs) without stalling the demux loop.
  proc_->spawn(
      "rpc:" + name,
      [this, caller, id, name = std::move(name), deadline, trace,
       body = std::move(body)] {
        // Server-side span: child of the caller's wire context, and the
        // ambient parent for any nested RPCs this handler makes.
        obs::SpanScope span("rpc.handle:", name, "rpc", trace);
        OutArchive reply;
        Status st;
        if (deadline != 0 && sim().now() >= deadline) {
          // The caller has already given up; handlers are idempotent and the
          // caller retries, so skipping the work is safe and avoids charging
          // for a reply nobody is waiting on.
          st = Status::Timeout("rpc '" + name + "' expired before dispatch");
        } else {
          auto it = handlers_.find(name);
          if (it == handlers_.end()) {
            st = Status::NotFound("no handler for rpc '" + name + "'");
          } else {
            RequestInfo info{caller, name, deadline, trace};
            InArchive in(body);
            // Nested RPCs made by this handler inherit the caller's
            // remaining budget instead of a fresh full timeout.
            DeadlineScope scope(*this, deadline);
            try {
              st = it->second(info, in, reply);
            } catch (const std::exception& e) {
              st = Status::Internal(std::string("handler threw: ") + e.what());
            }
          }
        }
        span.arg("status", static_cast<std::uint64_t>(st.code()));
        if (id == 0) return;  // notification: no response wanted
        OutArchive out;
        out.save(kResponse);
        out.save(id);
        out.save(st.code());
        out.save(st.message());
        // Retry-after hint (busy shedding) and status detail (the corrupt
        // block hint): always on the wire, zero when unset, so the response
        // frame stays constant-size like the trace context in the request
        // frame.
        out.save(st.retry_after_us());
        out.save(st.detail());
        out.write_raw(reply.bytes().data(), reply.size());
        proc_->network().transmit(
            *proc_, caller, kMailbox, profile_,
            net::Message{proc_->id(), id, out.release()});
      },
      des::SpawnOptions{.daemon = true});
}

void Engine::send_request(net::ProcId dest, const std::string& name,
                          std::vector<std::byte> args, std::uint64_t id,
                          des::Time deadline, obs::TraceContext trace) {
  OutArchive out;
  out.save(kRequest);
  out.save(id);
  out.save(deadline);
  out.save(trace);  // always on the wire (zeros untraced): constant frame size
  out.save(name);
  out.write_raw(args.data(), args.size());
  proc_->network().transmit(*proc_, dest, kMailbox, profile_,
                            net::Message{proc_->id(), id, out.release()});
}

Expected<std::vector<std::byte>> Engine::call_raw(net::ProcId dest,
                                                  const std::string& name,
                                                  std::vector<std::byte> args,
                                                  des::Duration timeout) {
  if (stopped_) return Status::ShuttingDown();
  if (timeout == 0) timeout = config_.default_timeout;
  const des::Time now = sim().now();
  des::Time deadline = now + timeout;
  if (const des::Time ambient = ambient_deadline(); ambient != 0) {
    deadline = std::min(deadline, ambient);
  }
  if (deadline <= now) {
    return Status::Timeout("deadline expired before rpc '" + name + "' to " +
                           net::to_string(dest));
  }
  if (config_.breaker_threshold > 0) {
    if (Status admit = breaker_admit(dest, now); !admit.ok()) return admit;
  }
  // Client-side span; its context rides the frame so the server-side
  // handler span becomes its child.
  obs::SpanScope span("rpc.call:", name, "rpc");
  const obs::TraceContext trace = obs::Tracer::global().current();
  const std::uint64_t id = next_id_++;
  auto ev = std::make_shared<des::Eventual<Expected<std::vector<std::byte>>>>(
      sim());
  pending_.emplace(id, ev);
  send_request(dest, name, std::move(args), id, deadline, trace);
  auto* result = ev->wait_for(deadline - now);
  record_latency(name, sim().now() - now);
  if (result == nullptr) {
    pending_.erase(id);
    breaker_failure(dest);
    span.arg("status", static_cast<std::uint64_t>(StatusCode::timeout));
    return Status::Timeout("rpc '" + name + "' to " + net::to_string(dest));
  }
  breaker_success(dest);
  span.arg("status",
           static_cast<std::uint64_t>(
               result->has_value() ? StatusCode::ok : result->status().code()));
  return std::move(*result);
}

}  // namespace colza::rpc
