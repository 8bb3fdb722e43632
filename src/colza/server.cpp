#include "colza/server.hpp"

#include <algorithm>
#include <tuple>

#include "colza/placement.hpp"
#include "colza/supervisor.hpp"
#include "common/checksum.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza {

namespace {
// Damages `data` in place per the chaos mode, leaving its recorded checksum
// stale. Returns the number of bytes damaged.
std::size_t mangle_payload(common::Bytes& data,
                           common::integrity::CorruptMode mode,
                           std::uint64_t pick) {
  using common::integrity::CorruptMode;
  switch (mode) {
    case CorruptMode::bit_flip: {
      // Mixed, so the bit is decorrelated from the victim-block choice.
      const std::uint64_t bit = common::splitmix64(pick) % (data.size() * 8);
      data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      return 1;
    }
    case CorruptMode::truncate: {
      const std::size_t keep = data.size() / 2;
      const std::size_t removed = data.size() - keep;
      data.resize(keep);
      return removed;
    }
    case CorruptMode::zero:
      std::fill(data.begin(), data.end(), std::byte{0});
      return data.size();
  }
  return 0;
}
}  // namespace

Server::Server(net::Process& proc, ServerConfig config,
               ssg::Bootstrap* bootstrap)
    : proc_(&proc),
      config_(std::move(config)),
      bootstrap_(bootstrap),
      engine_(std::make_unique<rpc::Engine>(
          proc, config_.profile, rpc::EngineConfig{config_.rpc_timeout})),
      mona_(std::make_unique<mona::Instance>(proc, config_.profile)),
      flow_(std::make_unique<flow::ServerFlow>(proc.sim(), proc.id(),
                                               config_.flow)),
      viewer_(std::make_unique<viewer::ViewerTier>(proc, *engine_,
                                                   config_.viewer)) {
  // Expose this daemon's stored bytes to the chaos layer's corrupt rules
  // (common/integrity.hpp explains why this goes through a registry).
  common::integrity::Registry::add(
      &proc.sim(), proc.id(),
      [this](common::integrity::CorruptMode mode, std::uint64_t pick) {
        return corrupt_storage(mode, pick);
      });
}

Server::Server(net::Process& proc, ServerConfig config,
               std::vector<net::ProcId> initial_group,
               ssg::Bootstrap* bootstrap)
    : Server(proc, std::move(config), bootstrap) {
  if (proc.sim().in_fiber()) proc.sim().charge(config_.init_cost);
  group_ = std::make_unique<ssg::Group>(*engine_, config_.swim,
                                        std::move(initial_group), bootstrap_);
  install_handlers();
  commit_view();
}

Expected<std::unique_ptr<Server>> Server::join(net::Process& proc,
                                               ServerConfig config,
                                               ssg::Bootstrap* bootstrap) {
  auto server =
      std::unique_ptr<Server>(new Server(proc, std::move(config), bootstrap));
  if (proc.sim().in_fiber()) proc.sim().charge(server->config_.init_cost);
  auto contacts = bootstrap->contacts();
  auto g = ssg::Group::join(*server->engine_, server->config_.swim,
                            std::move(contacts), bootstrap);
  if (!g.has_value()) return g.status();
  server->group_ = std::move(*g);
  server->install_handlers();
  server->commit_view();
  return server;
}

Server::~Server() {
  common::integrity::Registry::remove(&proc_->sim(), proc_->id());
}

// ---------------------------------------------------------------- pipelines

Status Server::create_pipeline(const std::string& name,
                               const std::string& type,
                               const std::string& json_config) {
  if (pipelines_.count(name) != 0)
    return Status::AlreadyExists("pipeline '" + name + "' already exists");
  Backend::Context ctx;
  ctx.proc = proc_;
  ctx.mona = mona_.get();
  try {
    ctx.config = json::parse(json_config);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("bad pipeline config: ") +
                                   e.what());
  }
  auto backend = BackendRegistry::create(type, std::move(ctx));
  if (!backend.has_value()) return backend.status();
  std::shared_ptr<Backend> shared = std::move(backend.value());
  shared->update_comm(service_comm_);
  // The viewer tier snapshots this pipeline's framebuffer for fan-out. The
  // producer runs on the tier's render fiber right after publish; pipelines
  // that render nothing yield an empty image and viewers see no frames.
  // Captured weak: the render fiber pops the producer and then yields on its
  // modeled render charge, and destroy_pipeline can free the backend inside
  // that window -- an expired lock serves an empty image instead.
  viewer_->set_producer(
      name, [w = std::weak_ptr<Backend>(shared)](std::uint64_t, std::uint32_t,
                                                 double) {
        const std::shared_ptr<Backend> b = w.lock();
        const render::FrameBuffer* fb = b ? b->rendered_frame() : nullptr;
        return fb != nullptr ? viewer::FrameImage::from(*fb)
                             : viewer::FrameImage{};
      });
  pipelines_.emplace(name, PipelineEntry{type, std::move(shared)});
  // Loading a pipeline's shared library and constructing it is not free.
  if (proc_->sim().in_fiber()) proc_->sim().charge(des::milliseconds(150));
  return Status::Ok();
}

Status Server::destroy_pipeline(const std::string& name) {
  if (pipelines_.erase(name) == 0)
    return Status::NotFound("pipeline '" + name + "' does not exist");
  flow_->free_pipeline(name);  // its staged bytes no longer hold budget
  viewer_->remove_producer(name);  // its frames can no longer be rendered
  return Status::Ok();
}

Backend* Server::pipeline(const std::string& name) {
  return backend(name).get();
}

std::shared_ptr<Backend> Server::backend(const std::string& name) const {
  auto it = pipelines_.find(name);
  return it == pipelines_.end() ? nullptr : it->second.backend;
}

// ---------------------------------------------------------------- replicas

std::size_t Server::replica_count(const std::string& pipeline,
                                  std::uint64_t iteration) const {
  auto pit = replicas_.find(pipeline);
  if (pit == replicas_.end()) return 0;
  auto it = pit->second.find(iteration);
  return it == pit->second.end() ? 0 : it->second.size();
}

void Server::promote_replicas(const std::string& name, Backend* backend,
                              std::uint64_t iteration) {
  auto pit = replicas_.find(name);
  if (pit == replicas_.end()) return;
  auto it = pit->second.find(iteration);
  if (it == pit->second.end()) return;
  for (auto& [key, rb] : it->second) {
    // Promote only when this server is the first recorded copyset member
    // still present in the frozen recovery view: every view member computes
    // the same answer, so exactly one copy of each block reaches a backend.
    if (placement::promoter(rb.copyset, service_view_) != proc_->id()) {
      continue;
    }
    StagedBlock block;
    block.iteration = iteration;
    block.block_id = key.first;
    block.field_name = key.second;
    block.sender = rb.sender;
    block.data = rb.data;  // keep the replica: later crashes may need it
    block.checksum = rb.checksum;
    block.copyset = rb.copyset;
    Status s = backend->stage(std::move(block));
    if (!s.ok()) {
      COLZA_LOG_WARN("colza", "replica promotion of block %llu failed: %s",
                     static_cast<unsigned long long>(key.first),
                     s.to_string().c_str());
    }
  }
}

// ---------------------------------------------------------------- integrity

bool Server::fetch_from_buddies(
    const std::string& name, std::uint64_t iteration, std::uint64_t block_id,
    const std::string& field, const std::vector<net::ProcId>& copyset,
    std::uint32_t want,
    const std::function<bool(net::ProcId, common::Bytes&)>& take) {
  for (net::ProcId buddy : copyset) {
    if (buddy == proc_->id()) continue;
    auto r = engine_->call_raw(buddy, "colza.fetch_block",
                               pack(name, iteration, block_id, field));
    if (!r.has_value()) continue;
    common::Bytes data;
    std::uint32_t checksum = 0;
    unpack(*r, data, checksum);
    // The buddy serves its copy unverified (it cannot know its own bytes
    // rotted); the requester is the arbiter.
    if (common::crc32c(data) != checksum) {
      Supervisor::report_bad_bytes(proc_->sim(), buddy);
      continue;
    }
    if (checksum != want) continue;  // different generation
    if (take(buddy, data)) return true;
  }
  return false;
}

void Server::count_repair(std::uint64_t bytes) {
  repairs_->inc();
  repair_bytes_->inc(bytes);
}

bool Server::repair_block(const std::string& name, Backend* backend,
                          std::uint64_t iteration,
                          const Backend::BlockInfo& info) {
  obs::SpanScope span("integrity.repair", "integrity");
  span.arg("block", info.block_id);
  return fetch_from_buddies(
      name, iteration, info.block_id, info.field_name, info.copyset,
      info.checksum, [&](net::ProcId buddy, common::Bytes& data) {
        // Re-stage the verified copy: keyed backend staging replaces the
        // rotten bytes in place. The flow-control charge recorded at the
        // original stage still matches (repair restores the original size),
        // so no re-admission is needed. A rejected copy tries the next buddy.
        const std::uint64_t bytes = data.size();
        StagedBlock block;
        block.iteration = iteration;
        block.block_id = info.block_id;
        block.field_name = info.field_name;
        block.sender = buddy;
        block.data = std::move(data);
        block.checksum = info.checksum;
        block.copyset = info.copyset;
        if (!backend->stage(std::move(block)).ok()) return false;
        count_repair(bytes);
        span.arg("bytes", bytes);
        return true;
      });
}

Status Server::verify_and_repair(const std::string& name, Backend* backend,
                                 std::uint64_t iteration) {
  const auto scan = backend->integrity_scan(iteration);
  if (!scan.empty()) verifies_->inc(scan.size());
  Status result = Status::Ok();
  for (const auto& info : scan) {
    if (info.valid) continue;
    mismatches_->inc();
    obs::Tracer::global().instant(
        "integrity.mismatch", "integrity",
        "\"block\":" + std::to_string(info.block_id) + ",\"member\":" +
            std::to_string(proc_->id()));
    // Our own storage rotted: strike ourselves, so a daemon on memory that
    // keeps corrupting data eventually gets its node quarantined.
    Supervisor::report_bad_bytes(proc_->sim(), proc_->id());
    if (repair_block(name, backend, iteration, info)) continue;
    restage_fallbacks_->inc();
    if (result.ok()) {
      result = Status::Corrupt(
          "no intact copy of block " + std::to_string(info.block_id) +
              " field '" + info.field_name + "' (iteration " +
              std::to_string(iteration) + ")",
          info.block_id + 1);
    }
  }
  return result;
}

void Server::scrub_pass() {
  obs::SpanScope span("integrity.scrub", "integrity");
  // Snapshot the worklists first: repairs block on nested RPCs, and commit /
  // deactivate may mutate the maps while this fiber is parked.
  std::vector<std::pair<std::string, std::uint64_t>> slots;
  for (const auto& [name, entry] : pipelines_) {
    for (std::uint64_t iteration : active_set_) {
      slots.emplace_back(name, iteration);
    }
  }
  for (const auto& [name, iteration] : slots) {
    if (left_ || !proc_->alive()) return;
    const std::shared_ptr<Backend> p = backend(name);
    if (p == nullptr || active_set_.count(iteration) == 0) continue;
    // An unrepairable block is NOT an error here: the execute path reports
    // it to the client (which re-stages); the scrubber's job is only to fix
    // what is fixable before anyone reads it.
    (void)verify_and_repair(name, p.get(), iteration);
  }
  // The buddy-replica store: same verify/repair cycle, repaired in place so
  // a later promotion hands the backend intact bytes.
  std::vector<std::tuple<std::string, std::uint64_t, ReplicaKey>> rkeys;
  for (const auto& [name, iters] : replicas_) {
    for (const auto& [iteration, rmap] : iters) {
      for (const auto& [key, rb] : rmap) rkeys.emplace_back(name, iteration, key);
    }
  }
  for (const auto& [name, iteration, key] : rkeys) {
    if (left_ || !proc_->alive()) return;
    auto find_replica = [&]() -> ReplicaBlock* {
      auto pit = replicas_.find(name);
      if (pit == replicas_.end()) return nullptr;
      auto iit = pit->second.find(iteration);
      if (iit == pit->second.end()) return nullptr;
      auto bit = iit->second.find(key);
      return bit == iit->second.end() ? nullptr : &bit->second;
    };
    ReplicaBlock* rb = find_replica();
    if (rb == nullptr) continue;  // deactivated while we were scrubbing
    verifies_->inc();
    if (common::crc32c(rb->data) == rb->checksum) continue;
    mismatches_->inc();
    obs::Tracer::global().instant(
        "integrity.mismatch", "integrity",
        "\"block\":" + std::to_string(key.first) + ",\"member\":" +
            std::to_string(proc_->id()) + ",\"replica\":1");
    Supervisor::report_bad_bytes(proc_->sim(), proc_->id());
    const auto copyset = rb->copyset;  // rb may dangle across the RPCs below
    (void)fetch_from_buddies(
        name, iteration, key.first, key.second, copyset, rb->checksum,
        [&](net::ProcId, common::Bytes& data) {
          rb = find_replica();
          if (rb == nullptr) return true;  // deactivated meanwhile: done
          count_repair(data.size());
          rb->data = std::move(data);
          return true;
        });
  }
  scrubs_->inc();
}

common::integrity::CorruptResult Server::corrupt_storage(
    common::integrity::CorruptMode mode, std::uint64_t pick) {
  using common::integrity::CorruptMode;
  // Deterministic victim enumeration: pipelines in name order, iterations in
  // id order, blocks in scan (sorted-key) order, then the replica store in
  // its own sorted order. Identical state across replayed runs therefore
  // yields the identical victim for a given pick.
  std::vector<common::Bytes*> candidates;
  for (auto& [name, entry] : pipelines_) {
    for (std::uint64_t iteration : active_set_) {
      for (const auto& info : entry.backend->integrity_scan(iteration)) {
        auto* data = entry.backend->stored_payload(iteration, info.block_id,
                                                   info.field_name);
        if (data != nullptr && !data->empty()) candidates.push_back(data);
      }
    }
  }
  for (auto& [name, iters] : replicas_) {
    for (auto& [iteration, rmap] : iters) {
      for (auto& [key, rb] : rmap) {
        if (!rb.data.empty()) candidates.push_back(&rb.data);
      }
    }
  }
  if (candidates.empty()) {
    // Staged windows last milliseconds; an instant-only rule would almost
    // always fire into an idle server. Defer to the next payload written
    // instead -- rot on write, like a failing memory controller.
    pending_corrupts_.emplace_back(mode, pick);
    common::integrity::CorruptResult result;
    result.deferred = true;
    return result;
  }
  common::Bytes& data = *candidates[pick % candidates.size()];
  common::integrity::CorruptResult result;
  result.blocks = 1;
  result.bytes = mangle_payload(data, mode, pick);
  return result;
}

void Server::apply_pending_corrupt(common::Bytes& data) {
  if (pending_corrupts_.empty() || data.empty()) return;
  const auto [mode, pick] = pending_corrupts_.front();
  pending_corrupts_.erase(pending_corrupts_.begin());
  mangle_payload(data, mode, pick);
}

// ---------------------------------------------------------------- view

void Server::commit_view() {
  const std::uint64_t hash = group_->view_hash();
  if (hash == service_view_hash_ && service_comm_ != nullptr) return;
  service_view_ = group_->view();  // sorted
  service_view_hash_ = hash;
  service_comm_ = mona_->comm_create(service_view_);
  for (auto& [name, entry] : pipelines_) {
    entry.backend->update_comm(service_comm_);
  }
}

void Server::commit_view(std::uint64_t epoch) {
  // Always rebuild, even when the view hash is unchanged: every member of
  // the frozen view runs this commit with the same epoch, so everyone gets
  // a matching fresh context with collective sequence numbers reset to
  // zero. Reusing the previous communicator would let a peer still blocked
  // in an abandoned attempt's collective consume (or feed) this attempt's
  // messages -- the tag streams would be permanently misaligned.
  //
  // The superseded context is revoked outright (ULFM-style, like the
  // member-failure path): a commit declares every earlier attempt
  // abandoned, and a peer may still be parked in one of its collectives --
  // e.g. waiting on a member that refused to enter the reduction because a
  // staged block failed its CRC. Revoking wakes those fibers with Aborted
  // so they unwind (releasing the buffers parked on their stacks) instead
  // of blocking on the dead tag space forever.
  if (service_comm_ != nullptr) service_comm_->revoke();
  service_view_ = group_->view();  // sorted
  service_view_hash_ = group_->view_hash();
  service_comm_ = mona_->comm_create(service_view_, epoch);
  for (auto& [name, entry] : pipelines_) {
    entry.backend->update_comm(service_comm_);
  }
}

void Server::leave() {
  if (left_) return;
  if (!active_set_.empty()) {
    // Frozen: the paper defers removals until deactivate (S II-B).
    leave_pending_ = true;
    return;
  }
  finish_leave();
}

void Server::finish_leave() {
  left_ = true;
  proc_->spawn(
      "colza-shutdown",
      [this] {
        // Stateful pipelines migrate their accumulated state to a surviving
        // peer before this daemon disappears (paper S VI future-work item 3:
        // "state-full pipelines, for which shutting down a process requires
        // data migration").
        net::ProcId successor = net::kInvalidProc;
        for (net::ProcId p : service_view_) {
          if (p != proc_->id()) {
            successor = p;
            break;
          }
        }
        if (successor != net::kInvalidProc) {
          // Walk a copy: destroy_pipeline may erase entries while the
          // migration RPCs block, and each backend is held until migrated.
          const auto pipelines = pipelines_;
          for (const auto& [name, entry] : pipelines) {
            if (!entry.backend->stateful()) continue;
            auto state = entry.backend->export_state();
            auto r = engine_->call_raw(successor, "colza.migrate_state",
                                       pack(name, state));
            if (!r.has_value()) {
              COLZA_LOG_WARN("colza", "state migration of '%s' failed: %s",
                             name.c_str(), r.status().to_string().c_str());
            }
          }
        }
        group_->leave();
        // Allow the departure gossip to leave this process, then die.
        proc_->sim().sleep_for(des::milliseconds(50));
        engine_->shutdown();
        mona_->shutdown();
        proc_->kill();
      },
      des::SpawnOptions{.daemon = true});
}

// ---------------------------------------------------------------- handlers

void Server::install_handlers() {
  // ---- fault tolerance ----------------------------------------------------
  // When SSG reports a member failure, unblock any pipeline operation that
  // waits on the failed peer, and -- if an iteration is active on the frozen
  // view containing it -- revoke the service communicator (ULFM-style, the
  // extension path the paper's S V points to). Pipelines then fail their
  // execute() cleanly, and the client re-runs the iteration on the
  // surviving view.
  group_->on_change([this](net::ProcId p, ssg::MemberEvent e) {
    if (e == ssg::MemberEvent::joined) return;
    mona_->fail_pending(p);
    if (!active_set_.empty() && service_comm_ != nullptr &&
        std::find(service_view_.begin(), service_view_.end(), p) !=
            service_view_.end()) {
      service_comm_->revoke();
    }
  });

  // If the group evicts us (we were partitioned away long enough to be
  // declared dead, and the dead-declaration is tombstoned on every other
  // member), this daemon can never serve again: take the process down so
  // clients fail over instead of reaching a zombie with a stale view.
  group_->on_self_evicted([this] {
    if (left_) return;
    left_ = true;
    engine_->shutdown();
    mona_->shutdown();
    proc_->kill();
  });

  // ---- client protocol ---------------------------------------------------
  engine_->define("colza.get_view", [this](const rpc::RequestInfo&, InArchive&,
                                           OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    out.save(group_->view());
    out.save(group_->view_hash());
    return Status::Ok();
  });

  engine_->define("colza.prepare", [this](const rpc::RequestInfo&,
                                          InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, client_hash = 0;
    in.load(pipeline);
    in.load(iteration);
    in.load(client_hash);
    if (pipelines_.count(pipeline) == 0)
      return Status::NotFound("pipeline '" + pipeline + "'");
    if (client_hash != group_->view_hash()) {
      // Vote no; ship our view so the client can refresh in one round trip.
      out.save(group_->view());
      out.save(group_->view_hash());
      return Status::Aborted("view mismatch");
    }
    prepared_ = true;
    prepared_iteration_ = iteration;
    return Status::Ok();
  });

  engine_->define("colza.commit", [this](const rpc::RequestInfo&,
                                         InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, epoch = 0;
    std::uint8_t recover = 0;
    in.load(pipeline);
    in.load(iteration);
    in.load(epoch);
    in.load(recover);
    if (!prepared_ || prepared_iteration_ != iteration)
      return Status::FailedPrecondition("commit without prepare");
    // Epoch fence: within a handle, retries of an iteration carry strictly
    // increasing epochs, so a commit at or below the last committed epoch
    // for this iteration is a stale retransmission. Rebuilding the
    // communicator for it would reset this member's collective sequence
    // numbers while its peers keep counting -- a permanent wedge.
    auto [fence, inserted] = committed_epoch_.try_emplace(iteration, epoch);
    if (!inserted) {
      if (epoch <= fence->second)
        return Status::FailedPrecondition("stale commit epoch");
      fence->second = epoch;
    }
    prepared_ = false;
    const std::shared_ptr<Backend> p = backend(pipeline);
    if (p == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    const bool resumed = active_set_.count(iteration) != 0;
    active_set_.insert(iteration);  // freeze membership application
    commit_view(epoch);  // adopt the agreed view in a fresh tag space
    if (recover != 0 && resumed) {
      // Recovery commit (reactivate): this survivor keeps its staged blocks
      // and buddy replicas; only the view/communicator changed. Re-running
      // the backend's activate would wipe its staging slot.
      return Status::Ok();
    }
    // Fresh activation: replicas of a previous incarnation of this
    // iteration are stale (the client re-stages everything), and so are
    // their flow-control charges.
    if (auto rit = replicas_.find(pipeline); rit != replicas_.end()) {
      rit->second.erase(iteration);
    }
    flow_->free_iteration(pipeline, iteration);
    return p->activate(iteration);
  });

  engine_->define("colza.abort", [this](const rpc::RequestInfo&, InArchive&,
                                        OutArchive&) {
    prepared_ = false;
    return Status::Ok();
  });

  engine_->define("colza.stage", [this](const rpc::RequestInfo& info,
                                        InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    StageMetadata meta;
    in.load(meta);
    // Held until the handler returns: a destroy_pipeline that lands while
    // the pull below blocks takes effect for later requests only.
    const std::shared_ptr<Backend> p = backend(meta.pipeline);
    if (p == nullptr)
      return Status::NotFound("pipeline '" + meta.pipeline + "'");
    // Admission before the RDMA pull: over-budget stages are shed (Busy)
    // before any bytes move. Consuming spends the grant lease; if the pull
    // then fails, the charge is rolled back below.
    Status admit =
        flow_->consume(meta.grant_id, meta.pipeline, meta.iteration,
                       meta.block_id, meta.field_name, meta.replica_rank,
                       meta.data.size);
    if (!admit.ok()) return admit;
    auto uncharge_on_failure = [&] {
      flow_->uncharge_block(meta.pipeline, meta.iteration, meta.block_id,
                            meta.field_name, meta.replica_rank);
    };
    // Verifies a freshly pulled payload against the client's stage-time CRC,
    // using the digest the pull computed over the landed bytes as it copied
    // them (no second read of the block). A mismatch here means the bytes
    // rotted in transit (or the chaos layer flipped them on the wire): drop
    // them, uncharge, and return Corrupt so the client -- which still holds
    // the pristine copy -- retransmits. No strike: the wire, not a server, is
    // at fault.
    auto verify_pull = [&](std::uint32_t landed_crc) {
      verifies_->inc();
      if (landed_crc == meta.checksum) return Status::Ok();
      mismatches_->inc();
      obs::Tracer::global().instant(
          "integrity.mismatch", "integrity",
          "\"block\":" + std::to_string(meta.block_id) + ",\"member\":" +
              std::to_string(proc_->id()) + ",\"in_transit\":1");
      return Status::Corrupt("stage: block " + std::to_string(meta.block_id) +
                                 " failed checksum after RDMA pull",
                             meta.block_id + 1);
    };
    if (meta.replica_rank > 0) {
      // Buddy copy: held in the server-level replica store, invisible to
      // the backend unless promoted during a recovery execute.
      if (active_set_.count(meta.iteration) == 0) {
        uncharge_on_failure();
        return Status::FailedPrecondition("replica stage: iteration " +
                                          std::to_string(meta.iteration) +
                                          " not active");
      }
      ReplicaBlock rb;
      rb.copyset = meta.copyset;
      rb.sender = info.caller;
      rb.checksum = meta.checksum;
      std::uint32_t landed_crc = 0;
      Status s = engine_->rdma_pull(meta.data, 0, meta.data.size, rb.data,
                                    &landed_crc);
      if (s.ok()) s = verify_pull(landed_crc);
      if (!s.ok()) {
        uncharge_on_failure();
        return s;
      }
      replica_bytes_pulled_->inc(meta.data.size);
      // Rot-on-write: a deferred chaos corruption lands on the verified
      // bytes after the pull check, so it stays silent until the next read.
      apply_pending_corrupt(rb.data);
      replicas_[meta.pipeline][meta.iteration]
               [ReplicaKey{meta.block_id, meta.field_name}] = std::move(rb);
      return Status::Ok();
    }
    // Pull the data from the simulation's memory via RDMA (paper S II-B).
    StagedBlock block;
    block.iteration = meta.iteration;
    block.block_id = meta.block_id;
    block.field_name = meta.field_name;
    block.sender = info.caller;
    block.checksum = meta.checksum;
    block.copyset = meta.copyset;
    std::uint32_t landed_crc = 0;
    Status s = engine_->rdma_pull(meta.data, 0, meta.data.size, block.data,
                                  &landed_crc);
    if (s.ok()) s = verify_pull(landed_crc);
    if (!s.ok()) {
      uncharge_on_failure();
      return s;
    }
    bytes_pulled_->inc(meta.data.size);
    // Rot-on-write: a deferred chaos corruption lands on the verified bytes
    // after the pull check, so it stays silent until the next read.
    apply_pending_corrupt(block.data);
    s = p->stage(std::move(block));
    if (!s.ok()) uncharge_on_failure();
    return s;
  });

  engine_->define("colza.execute", [this](const rpc::RequestInfo&,
                                          InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0;
    in.load(pipeline);
    in.load(iteration);
    const std::shared_ptr<Backend> p = backend(pipeline);
    if (p == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    // Recovery path: feed any replicas this member must stand in for (their
    // primary fell out of the frozen view) into the backend first.
    promote_replicas(pipeline, p.get(), iteration);
    // Verify every stored block (repairing from buddies) before the backend
    // reads it. The backend re-checks each block right before parsing it, so
    // rot that lands *during* execute -- after this pass -- still cannot be
    // rendered; it surfaces as Corrupt, and a bounded number of repair +
    // retry rounds absorbs it. Unrepairable corruption falls through to the
    // client, which re-stages the one bad block (fault.cpp).
    Status s;
    for (int round = 0; round < 3; ++round) {
      s = verify_and_repair(pipeline, p.get(), iteration);
      if (!s.ok()) return s;
      s = p->execute(iteration);
      if (s.code() != StatusCode::corrupt) break;
    }
    // Fan the rendered result out to observers. publish() only appends and
    // signals the tier's render fiber -- constant work, no charge, no
    // blocking -- so viewers never perturb the execute path's timing.
    if (s.ok()) viewer_->publish(pipeline, iteration);
    return s;
  });

  // Integrity repair fetch: a copyset member asks for our copy of a staged
  // block (backend slot first, then the buddy-replica store). The bytes are
  // served as-is, unverified -- a server with rotting memory does not know
  // its bytes are bad; the requester verifies and reports us if they fail.
  engine_->define("colza.fetch_block", [this](const rpc::RequestInfo&,
                                              InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0, block_id = 0;
    std::string field;
    in.load(pipeline);
    in.load(iteration);
    in.load(block_id);
    in.load(field);
    StagedBlock block;
    bool found = false;
    if (const std::shared_ptr<Backend> p = backend(pipeline)) {
      found = p->fetch_block(iteration, block_id, field, block);
    }
    if (!found) {
      auto pit = replicas_.find(pipeline);
      if (pit != replicas_.end()) {
        auto iit = pit->second.find(iteration);
        if (iit != pit->second.end()) {
          auto bit = iit->second.find(ReplicaKey{block_id, field});
          if (bit != iit->second.end()) {
            block.data = bit->second.data;
            block.checksum = bit->second.checksum;
            found = true;
          }
        }
      }
    }
    if (!found)
      return Status::NotFound("fetch_block: no copy of block " +
                              std::to_string(block_id) + " field '" + field +
                              "'");
    out.save(block.data);
    out.save(block.checksum);
    return Status::Ok();
  });

  engine_->define("colza.deactivate", [this](const rpc::RequestInfo&,
                                             InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t iteration = 0;
    in.load(pipeline);
    in.load(iteration);
    const std::shared_ptr<Backend> p = backend(pipeline);
    if (p == nullptr) return Status::NotFound("pipeline '" + pipeline + "'");
    Status s = p->deactivate(iteration);
    active_set_.erase(iteration);
    if (auto rit = replicas_.find(pipeline); rit != replicas_.end()) {
      rit->second.erase(iteration);
    }
    flow_->free_iteration(pipeline, iteration);
    if (active_set_.empty() && leave_pending_) finish_leave();
    return s;
  });

  // ---- flow control (docs/flow.md) ---------------------------------------
  // Credit acquisition: the client asks for a byte lease before shipping a
  // stage handle. Blocks in the DRR grant queue when the budget is full;
  // sheds with Busy + retry-after hint when waiting is pointless. The
  // caller's RPC deadline doubles as the grant-wait deadline.
  engine_->define("colza.flow.acquire", [this](const rpc::RequestInfo& info,
                                               InArchive& in, OutArchive& out) {
    if (left_) return Status::ShuttingDown();
    std::string pipeline;
    std::uint64_t bytes = 0;
    in.load(pipeline);
    in.load(bytes);
    flow::AcquireResult r = flow_->acquire(pipeline, bytes, info.deadline);
    if (!r.status.ok()) return r.status;
    out.save(r.grant_id);
    return Status::Ok();
  });

  engine_->define("colza.flow.release", [this](const rpc::RequestInfo&,
                                               InArchive& in, OutArchive&) {
    std::uint64_t grant_id = 0;
    in.load(grant_id);
    flow_->release(grant_id);
    return Status::Ok();
  });

  // ---- admin protocol (paper S II-B: a separate library of RPCs) ---------
  engine_->define("colza.admin.create_pipeline",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    if (left_) return Status::ShuttingDown();
                    std::string name, type, cfg;
                    in.load(name);
                    in.load(type);
                    in.load(cfg);
                    return create_pipeline(name, type, cfg);
                  });

  engine_->define("colza.admin.destroy_pipeline",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::string name;
                    in.load(name);
                    return destroy_pipeline(name);
                  });

  engine_->define("colza.admin.leave", [this](const rpc::RequestInfo&,
                                              InArchive&, OutArchive&) {
    leave();
    return Status::Ok();
  });

  engine_->define("colza.migrate_state", [this](const rpc::RequestInfo&,
                                                InArchive& in, OutArchive&) {
    if (left_) return Status::ShuttingDown();
    std::string name;
    std::vector<std::byte> state;
    in.load(name);
    in.load(state);
    const std::shared_ptr<Backend> p = backend(name);
    if (p == nullptr) return Status::NotFound("pipeline '" + name + "'");
    return p->import_state(state);
  });

  engine_->define("colza.admin.stats", [this](const rpc::RequestInfo&,
                                              InArchive& in, OutArchive& out) {
    std::string name;
    in.load(name);
    const std::shared_ptr<Backend> p = backend(name);
    if (p == nullptr) return Status::NotFound("pipeline '" + name + "'");
    out.save(p->stats().dump());
    return Status::Ok();
  });

  engine_->define("colza.admin.set_weight",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::string pipeline;
                    std::uint32_t weight = 0;
                    in.load(pipeline);
                    in.load(weight);
                    if (weight == 0)
                      return Status::InvalidArgument("weight must be >= 1");
                    flow_->set_weight(pipeline, weight);
                    return Status::Ok();
                  });

  engine_->define("colza.admin.quota", [this](const rpc::RequestInfo&,
                                              InArchive&, OutArchive& out) {
    out.save(flow_->quota_json().dump());
    return Status::Ok();
  });

  // Every count this daemon keeps -- its own, its flow control's and its
  // viewer tier's -- whose name starts with the requested prefix.
  engine_->define(
      "colza.admin.metrics",
      [this](const rpc::RequestInfo&, InArchive& in, OutArchive& out) {
        std::string prefix;
        in.load(prefix);
        const std::vector<obs::ScopeId> scopes{scope_, flow_->metrics_scope(),
                                               viewer_->metrics_scope()};
        out.save(
            obs::MetricsRegistry::global().to_json(scopes, prefix).dump());
        return Status::Ok();
      });

  engine_->define("colza.admin.list_pipelines",
                  [this](const rpc::RequestInfo&, InArchive&, OutArchive& out) {
                    std::vector<std::string> names;
                    for (const auto& [name, e] : pipelines_)
                      names.push_back(name);
                    out.save(names);
                    return Status::Ok();
                  });

  // ---- background scrubber ------------------------------------------------
  // Walks everything staged on this daemon at a fixed cadence, re-verifying
  // stage-time CRCs and repairing rotted copies from buddies while the data
  // plane is idle -- so most corruption is healed before an execute (or a
  // promotion after a crash) would ever observe it. CRC passes are free in
  // virtual time; only actual repairs (nested fetch RPCs) appear on the
  // timeline.
  if (config_.scrub_interval != 0) {
    proc_->spawn(
        "colza-scrub",
        [this] {
          while (alive()) {
            proc_->sim().sleep_for(config_.scrub_interval);
            if (!alive()) return;
            scrub_pass();
          }
        },
        des::SpawnOptions{.daemon = true});
  }
}

}  // namespace colza
