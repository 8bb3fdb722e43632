#include "viewer/viewer.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza::viewer {

namespace {

std::vector<QualityClass> default_classes() {
  return {
      {"gold", 4, 400ull << 20, 4ull << 20},
      {"silver", 2, 100ull << 20, 1ull << 20},
      {"bronze", 1, 25ull << 20, 256ull << 10},
  };
}

}  // namespace

// ---- Registry --------------------------------------------------------------

namespace {
std::map<std::pair<des::Simulation*, net::ProcId>, ViewerTier*>& registry() {
  static std::map<std::pair<des::Simulation*, net::ProcId>, ViewerTier*> map;
  return map;
}
}  // namespace

ViewerTier* Registry::find(des::Simulation* sim, net::ProcId id) {
  auto it = registry().find({sim, id});
  return it == registry().end() ? nullptr : it->second;
}

void Registry::add(des::Simulation* sim, net::ProcId id, ViewerTier* tier) {
  registry()[{sim, id}] = tier;
}

void Registry::remove(des::Simulation* sim, net::ProcId id) {
  registry().erase({sim, id});
}

// ---- ViewerTier ------------------------------------------------------------

ViewerTier::ViewerTier(net::Process& proc, rpc::Engine& engine,
                       ViewerConfig config)
    : proc_(&proc),
      engine_(&engine),
      config_(std::move(config)),
      mu_(proc.sim()),
      render_cv_(proc.sim()),
      pump_cv_(proc.sim()),
      idle_cv_(proc.sim()),
      delivery_(config_.quantum_bytes) {
  if (config_.classes.empty()) config_.classes = default_classes();
  if (config_.keyframe_interval == 0) config_.keyframe_interval = 1;
  for (const QualityClass& c : config_.classes) {
    class_tenant_.push_back(delivery_.tenant(c.name));
    delivery_.set_weight(class_tenant_.back(), c.weight);
  }
  install_handlers();
  Registry::add(&proc_->sim(), proc_->id(), this);
  proc_->spawn("viewer.render", [this] { render_loop(); }, {.daemon = true});
  proc_->spawn("viewer.pump", [this] { pump_loop(); }, {.daemon = true});
}

ViewerTier::~ViewerTier() {
  // No notify: the parked render and pump fibers must never resume into a
  // freed tier (a failed join frees its server's tier at once, DESIGN.md S4).
  Registry::remove(&proc_->sim(), proc_->id());
}

// ---- sessions --------------------------------------------------------------

std::uint64_t ViewerTier::connect(std::uint32_t quality, net::ProcId remote) {
  const std::uint64_t id = next_session_++;
  auto s = std::make_unique<Session>();
  s->quality = std::min<std::uint32_t>(
      quality, static_cast<std::uint32_t>(config_.classes.size() - 1));
  s->remote = remote;
  s->credit = cls(*s).burst_bytes;  // buckets start full
  s->credit_at = proc_->sim().now();
  sessions_.push_back(std::move(s));
  ++live_sessions_;
  connects_->inc();
  sessions_gauge_->set(static_cast<double>(live_sessions_));
  return id;
}

bool ViewerTier::disconnect(std::uint64_t session) {
  Session* s = find_session(session);
  if (s == nullptr) return false;
  for (const Sub& sub : s->subs) {
    streams_[sub.stream].subscribers.erase(session);
  }
  sessions_[session - 1].reset();
  --live_sessions_;
  disconnects_->inc();
  sessions_gauge_->set(static_cast<double>(live_sessions_));
  // Let the pump sweep any now-canceled queue entries so quiesce() settles.
  pump_cv_.notify_one();
  return true;
}

ViewerTier::StreamId ViewerTier::stream_id(const std::string& pipeline,
                                           std::uint32_t camera) {
  auto [it, created] = stream_ids_.try_emplace(
      {pipeline, camera}, static_cast<StreamId>(streams_.size()));
  if (created) {
    Stream& st = streams_.emplace_back();
    st.pipeline = pipeline;
    st.camera = camera;
  }
  return it->second;
}

Status ViewerTier::subscribe(std::uint64_t session, const std::string& pipeline,
                             std::uint32_t camera) {
  Session* s = find_session(session);
  if (s == nullptr) {
    return Status::NotFound("viewer session " + std::to_string(session));
  }
  const StreamId id = stream_id(pipeline, camera);
  Sub* sub = s->find(id);
  if (sub == nullptr) sub = &s->subs.emplace_back(Sub{.stream = id});
  Stream& st = streams_[id];
  st.subscribers.insert(session);
  // A late joiner is immediately offered the stream's current frame.
  if (st.latest != kNone && !sub->queued) {
    sub->queued = true;
    enqueue_delivery(session, *s, id, st.cache.at(st.latest));
  }
  return Status::Ok();
}

Status ViewerTier::unsubscribe(std::uint64_t session,
                               const std::string& pipeline,
                               std::uint32_t camera) {
  Session* s = find_session(session);
  if (s == nullptr) {
    return Status::NotFound("viewer session " + std::to_string(session));
  }
  auto it = stream_ids_.find({pipeline, camera});
  if (it != stream_ids_.end()) {
    std::erase_if(s->subs,
                  [&](const Sub& sub) { return sub.stream == it->second; });
    streams_[it->second].subscribers.erase(session);
  }
  pump_cv_.notify_one();
  return Status::Ok();
}

// ---- producer side ---------------------------------------------------------

void ViewerTier::set_producer(const std::string& pipeline, Producer producer) {
  producers_[pipeline] = std::move(producer);
  render_cv_.notify_one();
}

void ViewerTier::remove_producer(const std::string& pipeline) {
  producers_.erase(pipeline);
  // Drop frames published but not yet rendered: without a producer they can
  // never be served, and they would wedge quiesce().
  for (auto it = stream_ids_.lower_bound({pipeline, 0});
       it != stream_ids_.end() && it->first.first == pipeline; ++it) {
    Stream& st = streams_[it->second];
    pending_renders_ -= st.pending.size();
    st.pending.clear();
  }
  maybe_idle();
}

void ViewerTier::publish(const std::string& pipeline, std::uint64_t iteration) {
  // Apply any steering still queued for this boundary (no-op if the
  // application already drained it for this iteration).
  drain(pipeline, iteration);
  if (producers_.find(pipeline) == producers_.end()) {
    publish_no_producer_->inc();
    return;
  }
  bool queued = false;
  for (auto it = stream_ids_.lower_bound({pipeline, 0});
       it != stream_ids_.end() && it->first.first == pipeline; ++it) {
    Stream& st = streams_[it->second];
    if (st.subscribers.empty()) continue;
    st.pending.push_back(PendingFrame{iteration, st.param});
    ++pending_renders_;
    queued = true;
  }
  if (queued) render_cv_.notify_one();
}

// ---- steering --------------------------------------------------------------

void ViewerTier::steer(const std::string& pipeline, SteeringUpdate update) {
  steer_queue_[pipeline].emplace_back(proc_->sim().now(), std::move(update));
  steering_queued_->inc();
}

void ViewerTier::apply_update(const std::string& pipeline, SteeringRecord rec) {
  if (rec.update.kind ==
      static_cast<std::uint8_t>(SteeringUpdate::Kind::camera)) {
    streams_[stream_id(pipeline, rec.update.camera)].param = rec.update.value;
  } else {
    params_[pipeline][rec.update.name] = rec.update.value;
  }
  log_.append(std::move(rec));
  steering_applied_->inc();
}

std::vector<SteeringUpdate> ViewerTier::drain(const std::string& pipeline,
                                              std::uint64_t iteration) {
  auto done = drained_.find(pipeline);
  if (done != drained_.end() && done->second == iteration) return {};
  drained_[pipeline] = iteration;

  std::vector<SteeringUpdate> out;
  if (replay_.has_value()) {
    // Replay mode: live steering is suspended; the loaded log dictates what
    // applies at this boundary, verbatim (same seq, same arrival times), so
    // the rebuilt log converges to the same digest.
    for (SteeringRecord rec : replay_->at_iteration(iteration)) {
      if (rec.pipeline != pipeline) continue;
      if (rec.update.kind ==
          static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter)) {
        out.push_back(rec.update);
      }
      apply_update(pipeline, std::move(rec));
    }
    return out;
  }

  auto qit = steer_queue_.find(pipeline);
  if (qit == steer_queue_.end()) return out;
  while (!qit->second.empty()) {
    auto [queued_at, update] = std::move(qit->second.front());
    qit->second.pop_front();
    SteeringRecord rec;
    rec.seq = next_seq_++;
    rec.pipeline = pipeline;
    rec.queued_at = queued_at;
    rec.applied_iteration = iteration;
    rec.update = std::move(update);
    if (rec.update.kind ==
        static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter)) {
      out.push_back(rec.update);
    }
    apply_update(pipeline, std::move(rec));
  }
  return out;
}

void ViewerTier::load_replay(SteeringLog log) {
  replay_.emplace(std::move(log));
  log_ = SteeringLog{};
  drained_.clear();
}

double ViewerTier::parameter(const std::string& pipeline,
                             const std::string& name) const {
  auto pit = params_.find(pipeline);
  if (pit == params_.end()) return 0.0;
  auto nit = pit->second.find(name);
  return nit == pit->second.end() ? 0.0 : nit->second;
}

// ---- chaos hook ------------------------------------------------------------

std::size_t ViewerTier::churn(double fraction, std::uint64_t seed) {
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t id = 1; id <= sessions_.size(); ++id) {
    if (sessions_[id - 1] == nullptr) continue;
    const double u =
        static_cast<double>(common::splitmix64(seed ^ id) >> 11) * 0x1.0p-53;
    if (u < fraction) doomed.push_back(id);
  }
  for (std::uint64_t id : doomed) disconnect(id);
  churned_->inc(doomed.size());
  obs::Tracer::global().instant("viewer.churn", "viewer");
  return doomed.size();
}

// ---- render fiber ----------------------------------------------------------

void ViewerTier::render_loop() {
  des::Simulation& sim = proc_->sim();
  for (;;) {
    StreamId id = 0;
    PendingFrame pf{};
    Producer producer;
    {
      des::LockGuard g(mu_);
      for (;;) {
        bool found = false;
        for (const auto& [key, sid] : stream_ids_) {
          Stream& st = streams_[sid];
          if (st.pending.empty()) continue;
          auto pit = producers_.find(key.first);
          if (pit == producers_.end()) continue;
          id = sid;
          pf = st.pending.front();
          st.pending.pop_front();
          producer = pit->second;
          found = true;
          break;
        }
        if (found) break;
        render_cv_.wait(mu_);
      }
    }
    // Streams never move or die, so this reference survives the yields in
    // the charge and the producer.
    Stream& st = streams_[id];
    {
      obs::SpanScope span("viewer.render.", st.pipeline, "viewer");
      // Fixed modeled cost (never wall-measured): rendering happens on the
      // tier's own clock only, so timelines replay bit-identically.
      sim.charge(config_.render_cost);
    }
    FrameImage img = producer(pf.iteration, st.camera, pf.param);
    const bool want_key = st.key_iteration == kNone ||
                          st.frame_index % config_.keyframe_interval == 0;
    ++st.frame_index;
    EncodedFrame frame =
        want_key ? encode_key(st.pipeline, st.camera, pf.iteration, img)
                 : encode_delta(st.pipeline, st.camera, pf.iteration, img,
                                st.key_iteration, st.key_image);
    if (frame.kind == static_cast<std::uint8_t>(FrameKind::key)) {
      st.key_iteration = pf.iteration;
      st.key_image = std::move(img);
    }
    st.cache[pf.iteration] = std::move(frame);
    st.latest = pf.iteration;
    // Evict stale frames, but never the current keyframe or anything a
    // pending delta still decodes from (everything >= key_iteration stays
    // until the next key takes over).
    while (st.cache.size() > config_.cache_frames &&
           st.cache.begin()->first < st.key_iteration) {
      st.cache.erase(st.cache.begin());
    }
    renders_->inc();
    const EncodedFrame& cached = st.cache.at(st.latest);
    for (std::uint64_t sid : st.subscribers) {
      Session* s = find_session(sid);
      if (s == nullptr) continue;
      Sub* sub = s->find(id);
      if (sub == nullptr || sub->queued) continue;  // delivery in flight
      sub->queued = true;
      enqueue_delivery(sid, *s, id, cached);
    }
    --pending_renders_;
    maybe_idle();
  }
}

// ---- delivery pump ---------------------------------------------------------

void ViewerTier::enqueue_delivery(std::uint64_t session_id, const Session& s,
                                  StreamId stream, const EncodedFrame& frame) {
  delivery_.push(class_tenant_[s.quality], DeliveryItem{session_id, stream},
                 frame.wire_bytes());
  pump_cv_.notify_one();
}

void ViewerTier::refill(Session& s) {
  const QualityClass& c = cls(s);
  const des::Time now = proc_->sim().now();
  if (now <= s.credit_at) return;
  const auto add = static_cast<unsigned __int128>(now - s.credit_at) *
                   c.rate_bytes_per_sec / 1000000000u;
  const std::uint64_t add64 =
      add > c.burst_bytes ? c.burst_bytes : static_cast<std::uint64_t>(add);
  s.credit = std::min(c.burst_bytes, s.credit + add64);
  s.credit_at = now;
}

void ViewerTier::pump_loop() {
  for (;;) {
    std::optional<DeliveryItem> item;
    {
      des::LockGuard g(mu_);
      for (;;) {
        item = delivery_.pop(
            [](std::uint64_t) { return true; },  // no global byte budget
            [this](const DeliveryItem& it) {
              Session* s = find_session(it.session);
              return s == nullptr || s->find(it.stream) == nullptr;
            });
        if (item.has_value()) break;
        maybe_idle();
        pump_cv_.wait(mu_);
      }
    }
    deliver(*item);
    maybe_idle();
  }
}

void ViewerTier::deliver(const DeliveryItem& item) {
  Session* s = find_session(item.session);
  if (s == nullptr) return;
  Sub* sub = s->find(item.stream);
  if (sub == nullptr) return;
  sub->queued = false;
  Stream& st = streams_[item.stream];
  if (st.latest == kNone || sub->delivered == st.latest) return;

  // Skip-to-latest: deliveries always serve the stream's newest frame, never
  // the backlog. A viewer whose base keyframe is stale gets the current
  // keyframe bundled in front of the delta.
  const EncodedFrame& latest = st.cache.at(st.latest);
  const EncodedFrame* frames[2];
  std::size_t n = 0;
  if (latest.kind == static_cast<std::uint8_t>(FrameKind::key) ||
      sub->base == latest.base_iteration) {
    frames[n++] = &latest;
  } else {
    auto kit = st.cache.find(latest.base_iteration);
    if (kit != st.cache.end()) frames[n++] = &kit->second;
    frames[n++] = &latest;
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += frames[i]->wire_bytes();

  refill(*s);
  const QualityClass& c = cls(*s);
  // A frame larger than the whole burst is delivered on a full bucket
  // (overdraft) -- otherwise it could never be sent at all.
  const bool affordable = s->credit >= total || s->credit >= c.burst_bytes;
  if (!affordable) {
    skips_->inc();
    if (c.rate_bytes_per_sec == 0) return;  // unrefillable: drop this wakeup
    const std::uint64_t deficit = total - s->credit;
    const auto wait_ns = static_cast<unsigned __int128>(deficit) * 1000000000u /
                             c.rate_bytes_per_sec +
                         1000;
    sub->queued = true;
    ++credit_waits_;
    proc_->sim().schedule_after(
        static_cast<des::Duration>(wait_ns),
        [this, again = item, cost = total] {
          --credit_waits_;
          Session* s2 = find_session(again.session);
          if (s2 != nullptr && s2->find(again.stream) != nullptr) {
            delivery_.push(class_tenant_[s2->quality], again, cost);
            pump_cv_.notify_one();
          } else {
            maybe_idle();
          }
        },
        /*daemon=*/true);
    return;
  }

  s->credit = s->credit >= total ? s->credit - total : 0;
  // Commit all bookkeeping before charging: the charge yields, and the
  // frames pointers die with it, so copy what a push session needs first.
  std::vector<EncodedFrame> to_push;
  if (s->remote != net::kInvalidProc) {
    to_push.reserve(n);
    for (std::size_t i = 0; i < n; ++i) to_push.push_back(*frames[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (frames[i]->kind == static_cast<std::uint8_t>(FrameKind::key)) {
      sub->base = frames[i]->iteration;
    }
  }
  sub->delivered = st.latest;
  frames_->inc(n);
  bytes_->inc(total);
  // Wire-size distribution: what the delta codec actually ships per frame.
  // Recorded before the charge -- the `frames` pointers die across the yield.
  obs::Histogram& hist = *frame_bytes_;
  for (std::size_t i = 0; i < n; ++i) hist.record(frames[i]->wire_bytes());
  const net::ProcId remote = s->remote;
  proc_->sim().charge(config_.deliver_cost * n);
  for (EncodedFrame& f : to_push) {
    engine_->notify(remote, "colza.viewer.frame", f);
  }
}

void ViewerTier::maybe_idle() {
  if (pending_renders_ == 0 && delivery_.empty() && credit_waits_ == 0) {
    idle_cv_.notify_all();
  }
}

void ViewerTier::set_class_weight(const std::string& cls_name,
                                  std::uint32_t weight) {
  delivery_.set_weight(delivery_.tenant(cls_name), weight);
  pump_cv_.notify_one();
}

void ViewerTier::quiesce() {
  des::LockGuard g(mu_);
  idle_cv_.wait(mu_, [this] {
    return pending_renders_ == 0 && delivery_.empty() && credit_waits_ == 0;
  });
}

// ---- RPC surface -----------------------------------------------------------

void ViewerTier::install_handlers() {
  engine_->define("colza.viewer.connect", [this](const rpc::RequestInfo& info,
                                                 InArchive& in,
                                                 OutArchive& out) {
    std::uint32_t quality = 0;
    std::uint8_t push = 0;
    in.load(quality);
    in.load(push);
    const std::uint64_t id =
        connect(quality, push != 0 ? info.caller : net::kInvalidProc);
    out.save(id);
    return Status::Ok();
  });

  engine_->define("colza.viewer.disconnect",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::uint64_t session = 0;
                    in.load(session);
                    if (!disconnect(session)) {
                      return Status::NotFound("viewer session " +
                                              std::to_string(session));
                    }
                    return Status::Ok();
                  });

  engine_->define("colza.viewer.subscribe",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::uint64_t session = 0;
                    std::string pipeline;
                    std::uint32_t camera = 0;
                    in.load(session);
                    in.load(pipeline);
                    in.load(camera);
                    return subscribe(session, pipeline, camera);
                  });

  engine_->define("colza.viewer.unsubscribe",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::uint64_t session = 0;
                    std::string pipeline;
                    std::uint32_t camera = 0;
                    in.load(session);
                    in.load(pipeline);
                    in.load(camera);
                    return unsubscribe(session, pipeline, camera);
                  });

  engine_->define("colza.viewer.steer",
                  [this](const rpc::RequestInfo&, InArchive& in, OutArchive&) {
                    std::string pipeline;
                    SteeringUpdate update;
                    in.load(pipeline);
                    in.load(update);
                    steer(pipeline, std::move(update));
                    return Status::Ok();
                  });

  engine_->define(
      "colza.viewer.drain_steering",
      [this](const rpc::RequestInfo&, InArchive& in, OutArchive& out) {
        std::string pipeline;
        std::uint64_t iteration = 0;
        in.load(pipeline);
        in.load(iteration);
        out.save(drain(pipeline, iteration));
        return Status::Ok();
      });

  engine_->define(
      "colza.viewer.fetch",
      [this](const rpc::RequestInfo&, InArchive& in, OutArchive& out) {
        std::string pipeline;
        std::uint32_t camera = 0;
        in.load(pipeline);
        in.load(camera);
        auto it = stream_ids_.find({pipeline, camera});
        if (it == stream_ids_.end() ||
            streams_[it->second].key_iteration == kNone) {
          return Status::NotFound("no keyframe for " + pipeline + "/cam" +
                                  std::to_string(camera));
        }
        const Stream& st = streams_[it->second];
        out.save(st.cache.at(st.key_iteration));
        return Status::Ok();
      });
}

// ---- ViewerClient ----------------------------------------------------------

ViewerClient::ViewerClient(rpc::Engine& engine) : engine_(&engine) {
  engine_->define("colza.viewer.frame", [this](const rpc::RequestInfo&,
                                               InArchive& in, OutArchive&) {
    EncodedFrame frame;
    in.load(frame);
    const std::pair<std::string, std::uint32_t> key{frame.pipeline,
                                                    frame.camera};
    const FrameImage* base = nullptr;
    auto it = bases_.find(key);
    if (it != bases_.end()) base = &it->second;
    auto decoded = decode(frame, base);
    if (!decoded.has_value()) {
      ++decode_failures_;
      return decoded.status();
    }
    if (frame.kind == static_cast<std::uint8_t>(FrameKind::key)) {
      bases_[key] = decoded.value();
    }
    images_[key] = std::move(decoded.value());
    received_.push_back(Received{frame.pipeline, frame.camera, frame.iteration,
                                 frame.image_hash});
    return Status::Ok();
  });
}

Expected<std::uint64_t> ViewerClient::connect(net::ProcId tier,
                                              std::uint32_t quality) {
  auto res = engine_->call<std::uint64_t>(tier, "colza.viewer.connect", quality,
                                          std::uint8_t{1});
  if (!res.has_value()) return res.status();
  tier_ = tier;
  session_ = res.value();
  return session_;
}

Status ViewerClient::disconnect() {
  if (session_ == 0) return Status::FailedPrecondition("not connected");
  auto res =
      engine_->call<rpc::None>(tier_, "colza.viewer.disconnect", session_);
  session_ = 0;
  return res.has_value() ? Status::Ok() : res.status();
}

Status ViewerClient::subscribe(const std::string& pipeline,
                               std::uint32_t camera) {
  if (session_ == 0) return Status::FailedPrecondition("not connected");
  auto res = engine_->call<rpc::None>(tier_, "colza.viewer.subscribe", session_,
                                      pipeline, camera);
  return res.has_value() ? Status::Ok() : res.status();
}

Status ViewerClient::unsubscribe(const std::string& pipeline,
                                 std::uint32_t camera) {
  if (session_ == 0) return Status::FailedPrecondition("not connected");
  auto res = engine_->call<rpc::None>(tier_, "colza.viewer.unsubscribe",
                                      session_, pipeline, camera);
  return res.has_value() ? Status::Ok() : res.status();
}

Status ViewerClient::steer(const std::string& pipeline,
                           const SteeringUpdate& update) {
  if (session_ == 0) return Status::FailedPrecondition("not connected");
  auto res =
      engine_->call<rpc::None>(tier_, "colza.viewer.steer", pipeline, update);
  return res.has_value() ? Status::Ok() : res.status();
}

const FrameImage* ViewerClient::image(const std::string& pipeline,
                                      std::uint32_t camera) const {
  auto it = images_.find({pipeline, camera});
  return it == images_.end() ? nullptr : &it->second;
}

}  // namespace colza::viewer
