#include "colza/client.hpp"

#include <algorithm>

#include "colza/placement.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza {

// ------------------------------------------------------------------ AsyncOp

Status AsyncOp::wait() {
  if (state_ == nullptr) return Status::Ok();
  if (!state_->done) sim_->join(fiber_);
  return state_->status;
}

bool AsyncOp::test() const { return state_ == nullptr || state_->done; }

// ------------------------------------------------------------------ Client

Client::Client(net::Process& proc, net::Profile profile)
    : proc_(&proc),
      engine_(std::make_unique<rpc::Engine>(proc, std::move(profile))) {}

// ------------------------------------------------------- pipeline handle

DistributedPipelineHandle::DistributedPipelineHandle(
    Client* client, std::string name, std::vector<net::ProcId> view,
    std::uint64_t hash)
    : client_(client),
      name_(std::move(name)),
      view_(std::move(view)),
      view_hash_(hash) {
  policy_ = [](std::uint64_t block_id, std::size_t nservers) {
    return static_cast<std::size_t>(block_id % nservers);
  };
}

Expected<DistributedPipelineHandle> DistributedPipelineHandle::lookup(
    Client& client, const std::vector<net::ProcId>& contacts,
    std::string pipeline_name) {
  for (net::ProcId contact : contacts) {
    auto r = client.engine().call_raw(contact, "colza.get_view", {});
    if (!r.has_value()) continue;
    std::vector<net::ProcId> view;
    std::uint64_t hash = 0;
    unpack(*r, view, hash);
    return DistributedPipelineHandle(&client, std::move(pipeline_name),
                                     std::move(view), hash);
  }
  return Status::Unreachable("lookup: no Colza server answered");
}

Status DistributedPipelineHandle::refresh_view() {
  for (net::ProcId server : view_) {
    auto r = client_->engine().call_raw(server, "colza.get_view", {});
    if (!r.has_value()) continue;
    std::vector<net::ProcId> view;
    std::uint64_t hash = 0;
    unpack(*r, view, hash);
    set_view(std::move(view), hash);
    return Status::Ok();
  }
  return Status::Unreachable("refresh_view: no Colza server answered");
}

void DistributedPipelineHandle::set_view(std::vector<net::ProcId> view,
                                         std::uint64_t hash) {
  if (flow_.enabled && hash != view_hash_) {
    // Elastic resize: the learned AIMD operating point belongs to the old
    // server population; restart probing so shares re-converge (docs/flow.md).
    window_.on_view_change();
  }
  view_ = std::move(view);
  view_hash_ = hash;
}

void DistributedPipelineHandle::set_flow_control(FlowClientOptions options) {
  flow_ = std::move(options);
  window_ = flow::AimdWindow(flow_.aimd);
}

Status DistributedPipelineHandle::parallel_over(
    const std::vector<net::ProcId>& servers,
    const std::function<Status(net::ProcId)>& fn) {
  auto& sim = client_->process().sim();
  auto done = std::make_shared<des::Eventual<Status>>(sim);
  auto remaining = std::make_shared<std::size_t>(servers.size());
  auto first_error = std::make_shared<Status>();
  if (servers.empty()) return Status::Ok();
  // Fan-out fibers are fresh fibers, so they would lose the calling fiber's
  // ambient RPC deadline and ambient trace span; re-install both explicitly
  // in each (the per-fiber span also makes every fan leg visible in traces).
  auto* engine = &client_->engine();
  const des::Time ambient = engine->ambient_deadline();
  const obs::TraceContext parent = obs::Tracer::global().current();
  for (net::ProcId server : servers) {
    client_->process().spawn(
        "colza-rpc-fan",
        [fn, server, done, remaining, first_error, engine, ambient, parent] {
          rpc::DeadlineScope scope(*engine, ambient);
          obs::SpanScope span("colza.fan:", net::to_string(server), "colza",
                              parent);
          Status s = fn(server);
          span.arg("status", static_cast<std::uint64_t>(s.code()));
          if (!s.ok() && first_error->ok()) *first_error = s;
          if (--*remaining == 0) done->set_value(*first_error);
        },
        des::SpawnOptions{.daemon = true});
  }
  return done->wait();
}

// ------------------------------------------------------------------ 2PC

Status DistributedPipelineHandle::activate(std::uint64_t iteration,
                                           int max_attempts) {
  return activate_impl(iteration, max_attempts, /*recover=*/false);
}

Status DistributedPipelineHandle::reactivate(std::uint64_t iteration,
                                             int max_attempts) {
  return activate_impl(iteration, max_attempts, /*recover=*/true);
}

Status DistributedPipelineHandle::activate_impl(std::uint64_t iteration,
                                                int max_attempts,
                                                bool recover) {
  obs::SpanScope span(recover ? "colza.reactivate" : "colza.activate",
                      "colza");
  span.arg("iteration", iteration);
  auto& engine = client_->engine();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (view_.empty()) {
      Status s = refresh_view();
      if (!s.ok()) return s;
      if (view_.empty())
        return Status::Unreachable("activate: empty staging area");
    }

    // Phase 1: prepare. Servers vote by comparing view hashes.
    bool mismatch = false;
    std::vector<net::ProcId> fresh_view;
    std::uint64_t fresh_hash = 0;
    Status s = parallel_over(view_, [&](net::ProcId server) {
      auto r = engine.call_raw(server, "colza.prepare",
                               pack(name_, iteration, view_hash_));
      if (r.has_value()) return Status::Ok();
      if (r.status().code() == StatusCode::aborted ||
          r.status().code() == StatusCode::not_found) {
        // aborted: view-hash mismatch. not_found: a freshly respawned
        // server is in the view but has not installed the pipeline yet
        // (Supervisor::launch_one creates it moments after the join is
        // visible). Both heal with a short backoff + fresh view.
        mismatch = true;
        return Status::Ok();  // not fatal: retry with a fresh view
      }
      return r.status();
    });
    if (!s.ok()) {
      // A server is unreachable (likely departed): drop it from our view and
      // retry; SSG will confirm the departure.
      if (s.code() == StatusCode::timeout ||
          s.code() == StatusCode::unreachable ||
          s.code() == StatusCode::shutting_down) {
        (void)refresh_view();
        continue;
      }
      return s;
    }

    if (mismatch) {
      // Abort the prepared servers, refresh, retry.
      (void)parallel_over(view_, [&](net::ProcId server) {
        (void)engine.call_raw(server, "colza.abort", pack(name_, iteration));
        return Status::Ok();
      });
      Status rs = refresh_view();
      if (!rs.ok()) return rs;
      (void)fresh_view;
      (void)fresh_hash;
      // Small backoff: let the gossip converge (S II-E measures ~1 s of
      // overhead when the group changed).
      client_->process().sim().sleep_for(des::milliseconds(200));
      continue;
    }

    // Phase 2: commit. Every attempt commits under a fresh epoch; servers
    // derive the iteration's communicator context from it, so a retried
    // attempt can never exchange collective messages with the remains of an
    // abandoned one (a peer still blocked in the old attempt's collective).
    const std::uint64_t epoch = ++epoch_;
    const auto recover_flag = static_cast<std::uint8_t>(recover ? 1 : 0);
    Status cs = parallel_over(view_, [&](net::ProcId server) {
      auto r = engine.call_raw(server, "colza.commit",
                               pack(name_, iteration, epoch, recover_flag));
      return r.status();
    });
    if (cs.ok()) return Status::Ok();
    if (cs.code() == StatusCode::failed_precondition) {
      // Lost the prepare (e.g. a competing activate); retry.
      continue;
    }
    return cs;
  }
  return Status::Aborted("activate: could not reach view agreement after " +
                         std::to_string(max_attempts) + " attempts");
}

// ------------------------------------------------------------------ steering

Expected<std::vector<SteeringUpdate>>
DistributedPipelineHandle::drain_steering(std::uint64_t iteration) {
  if (viewer_tier_ == net::kInvalidProc) return std::vector<SteeringUpdate>{};
  return client_->engine().call<std::vector<SteeringUpdate>>(
      viewer_tier_, "colza.viewer.drain_steering", name_, iteration);
}

// ------------------------------------------------------------------ stage

std::vector<net::ProcId> DistributedPipelineHandle::copyset_for(
    std::uint64_t block_id) const {
  if (view_.empty()) return {};
  return placement::copyset(block_id, view_, policy_(block_id, view_.size()),
                            replication_);
}

Status DistributedPipelineHandle::stage(std::uint64_t iteration,
                                        std::uint64_t block_id,
                                        std::span<const std::byte> data,
                                        std::string field_name) {
  if (view_.empty()) return Status::FailedPrecondition("stage: empty view");
  return stage_to(iteration, block_id, data, copyset_for(block_id),
                  std::move(field_name));
}

Status DistributedPipelineHandle::stage_to(
    std::uint64_t iteration, std::uint64_t block_id,
    std::span<const std::byte> data, const std::vector<net::ProcId>& copyset,
    std::string field_name) {
  if (copyset.empty()) {
    return Status::FailedPrecondition("stage: empty copyset");
  }
  auto& proc = client_->process();

  obs::SpanScope span("colza.stage", "colza");
  span.arg("block", block_id);
  span.arg("bytes", static_cast<std::uint64_t>(data.size()));
  span.arg("copies", static_cast<std::uint64_t>(copyset.size()));
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("colza.bytes_staged").inc(data.size());
  if (copyset.size() > 1) {
    metrics.counter("colza.bytes_replicated")
        .inc(data.size() * (copyset.size() - 1));
  }

  StageMetadata meta;
  meta.pipeline = name_;
  meta.iteration = iteration;
  meta.block_id = block_id;
  meta.field_name = std::move(field_name);
  meta.data = proc.expose(data);
  meta.copyset = copyset;
  // End-to-end integrity: hash the payload once here, at the source; every
  // consumer downstream (RDMA pull, replica promotion, execute-time parse,
  // background scrub) re-verifies against this value. A block of two or
  // more 256 KiB chunks is hashed over the worker pool (net::crc32c_copy).
  meta.checksum = net::crc32c_copy(data, nullptr);

  // Client-side flow control: bound the bytes this pipeline keeps in flight
  // across all copies (AIMD window) before touching any server.
  const std::uint64_t reserved =
      flow_.enabled ? static_cast<std::uint64_t>(data.size()) * copyset.size()
                    : 0;
  if (flow_.enabled) window_reserve(reserved);

  Status s;
  if (copyset.size() == 1) {
    s = stage_copy(copyset[0], meta);
  } else {
    // One RPC per copy; each server pulls the same exposed region. All
    // copies must land: a failed buddy write would silently erode the
    // redundancy the recovery path counts on, so it is reported (and
    // retried) like a primary failure.
    s = parallel_over(copyset, [&](net::ProcId server) {
      StageMetadata m = meta;
      m.replica_rank = static_cast<std::uint32_t>(
          std::find(copyset.begin(), copyset.end(), server) -
          copyset.begin());
      return stage_copy(server, m);
    });
  }
  if (flow_.enabled) window_.release(reserved);
  proc.unexpose(meta.data);
  return s;
}

void DistributedPipelineHandle::window_reserve(std::uint64_t bytes) {
  auto& sim = client_->process().sim();
  // Bounded poll: concurrent istages drain the window as their copies land.
  // If it stays pinned (e.g. every server shedding for a long time), proceed
  // anyway after the cap -- the servers still protect themselves; the window
  // only shapes client concurrency.
  for (int i = 0; i < 20000 && !window_.try_reserve(bytes); ++i) {
    sim.sleep_for(des::microseconds(500));
  }
}

Status DistributedPipelineHandle::stage_copy(net::ProcId server,
                                             const StageMetadata& meta) {
  auto& engine = client_->engine();
  auto& metrics = obs::MetricsRegistry::global();
  // In-transit corruption (the server's pull failed CRC verification) is
  // repaired by retransmission: the client still holds the pristine bytes,
  // so a bounded resend fixes a transient wire fault for free.
  constexpr int kCorruptRetransmits = 3;
  if (!flow_.enabled) {
    Status last;
    for (int attempt = 0; attempt <= kCorruptRetransmits; ++attempt) {
      auto r = engine.call_raw(server, "colza.stage", pack(meta));
      last = r.status();
      if (last.code() != StatusCode::corrupt) return last;
      metrics.counter("integrity.client.retransmit").inc();
    }
    return last;
  }
  auto& sim = client_->process().sim();
  Backoff backoff(flow_.busy_backoff);
  Status last;
  for (int attempt = 0; attempt <= flow_.max_busy_retries; ++attempt) {
    // 1. Credit: ask the target server for a byte lease.
    auto grant = engine.call_raw(
        server, "colza.flow.acquire",
        pack(name_, static_cast<std::uint64_t>(meta.data.size)));
    if (!grant.has_value()) {
      last = grant.status();
      if (last.code() != StatusCode::busy) return last;
      metrics.counter("flow.client.busy").inc();
      window_.on_busy();
      sim.sleep_for(
          backoff.next_at_least(des::microseconds(last.retry_after_us())));
      continue;
    }
    std::uint64_t grant_id = 0;
    unpack(*grant, grant_id);
    window_.on_grant();
    // 2. Stage under the credit.
    StageMetadata m = meta;
    m.grant_id = grant_id;
    auto r = engine.call_raw(server, "colza.stage", pack(m));
    if (r.has_value()) return Status::Ok();
    last = r.status();
    if (last.code() == StatusCode::busy) {
      // The server consumed the lease but shed the stage (budget shifted
      // between grant and pull); back off and re-acquire.
      metrics.counter("flow.client.busy").inc();
      window_.on_busy();
      sim.sleep_for(
          backoff.next_at_least(des::microseconds(last.retry_after_us())));
      continue;
    }
    if (last.code() == StatusCode::corrupt) {
      // The pull failed CRC verification; the server dropped the bytes and
      // uncharged the lease. Re-acquire and retransmit the pristine copy.
      metrics.counter("integrity.client.retransmit").inc();
      continue;
    }
    // Unrelated failure: return the unconsumed lease so it doesn't hold
    // budget until its TTL (best effort; the TTL is the backstop).
    (void)engine.call_raw(server, "colza.flow.release", pack(grant_id));
    return last;
  }
  return last;  // Busy after max retries: still retriable upstream
}

Status DistributedPipelineHandle::stage(std::uint64_t iteration,
                                        std::uint64_t block_id,
                                        const vis::DataSet& dataset,
                                        std::string field_name) {
  auto& sim = client_->process().sim();
  std::vector<std::byte> bytes;
  if (sim.in_fiber()) {
    bytes = sim.charge_scoped([&] { return vis::serialize_dataset(dataset); });
  } else {
    bytes = vis::serialize_dataset(dataset);
  }
  return stage(iteration, block_id, bytes, std::move(field_name));
}

// ------------------------------------------------------------------ exec

Status DistributedPipelineHandle::execute(std::uint64_t iteration) {
  obs::SpanScope span("colza.execute", "colza");
  span.arg("iteration", iteration);
  return parallel_over(view_, [&](net::ProcId server) {
    // Pipeline execution can be long (minutes of rendering); use a generous
    // timeout.
    auto r = client_->engine().call_timeout<rpc::None>(
        server, "colza.execute", des::seconds(600), name_, iteration);
    return r.status();
  });
}

Status DistributedPipelineHandle::deactivate(std::uint64_t iteration) {
  return deactivate_on(iteration, view_);
}

Status DistributedPipelineHandle::deactivate_on(
    std::uint64_t iteration, const std::vector<net::ProcId>& servers) {
  obs::SpanScope span("colza.deactivate", "colza");
  span.arg("iteration", iteration);
  return parallel_over(servers, [&](net::ProcId server) {
    auto r = client_->engine().call_raw(server, "colza.deactivate",
                                        pack(name_, iteration));
    return r.status();
  });
}

// ------------------------------------------------------------- non-blocking

AsyncOp DistributedPipelineHandle::async(std::string label,
                                         std::function<Status()> op) {
  auto& sim = client_->process().sim();
  auto state = std::make_shared<AsyncOp::State>();
  auto fiber = client_->process().spawn(
      std::move(label),
      [state, op = std::move(op)] {
        state->status = op();
        state->done = true;
      },
      des::SpawnOptions{.daemon = true});
  return AsyncOp(&sim, fiber, state);
}

AsyncOp DistributedPipelineHandle::iactivate(std::uint64_t iteration) {
  return async("colza-iactivate",
               [this, iteration] { return activate(iteration); });
}

AsyncOp DistributedPipelineHandle::istage(std::uint64_t iteration,
                                          std::uint64_t block_id,
                                          std::span<const std::byte> data,
                                          std::string field_name) {
  return async("colza-istage",
               [this, iteration, block_id, data,
                field_name = std::move(field_name)]() mutable {
                 return stage(iteration, block_id, data,
                              std::move(field_name));
               });
}

AsyncOp DistributedPipelineHandle::iexecute(std::uint64_t iteration) {
  return async("colza-iexecute",
               [this, iteration] { return execute(iteration); });
}

AsyncOp DistributedPipelineHandle::ideactivate(std::uint64_t iteration) {
  return async("colza-ideactivate",
               [this, iteration] { return deactivate(iteration); });
}

}  // namespace colza
