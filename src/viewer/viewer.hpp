// The viewer delivery tier (docs/viewer.md): serve rendered frames to a
// massive observer fan-out without ever touching the simulation's critical
// path, and carry steering updates back in.
//
// One ViewerTier runs beside a staging server (or standalone). Observers
// open *sessions* (colza.viewer.connect) and subscribe each session to
// (pipeline, camera) streams. The tier renders each published iteration
// exactly once per stream -- single-flight by construction, because only the
// tier's render fiber produces frames -- caches the encoded result, and fans
// it out, so N viewers of one view cost one render plus N cache reads.
//
// Backpressure is per-viewer, never upstream: each session owns a token
// bucket sized by its quality class, and the delivery pump serves sessions
// through a flow::DrrQueue keyed by quality class. A session without credit
// is skipped (it re-enters the pump when its bucket refills and then
// receives the *latest* keyframe, not the backlog), so a slow viewer can
// never stall the simulation or starve faster viewers.
//
// publish() -- the only call on the simulation's path -- appends an entry
// and signals a condition variable: no charge, no blocking, no RPC. A run
// with a thousand viewers and a run with none have bit-identical simulation
// timelines as long as the viewers are local-session observers (remote push
// sessions share the fabric and therefore, intentionally, its contention).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "flow/drr.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "rpc/engine.hpp"
#include "viewer/frame.hpp"
#include "viewer/steering.hpp"

namespace colza::viewer {

// A delivery service level. Sessions name a class at connect time; the class
// sets both the DRR weight (fan-out fairness between classes) and the token
// bucket (per-session byte rate). Weight 0 pauses the whole class in place.
struct QualityClass {
  std::string name;
  std::uint32_t weight = 1;
  std::uint64_t rate_bytes_per_sec = 100ull << 20;
  std::uint64_t burst_bytes = 1ull << 20;
};

struct ViewerConfig {
  // Every Nth rendered frame of a stream is a self-contained keyframe; the
  // frames between are XOR-RLE deltas against it.
  std::uint32_t keyframe_interval = 4;
  // Encoded frames kept per stream for late deliveries. Frames older than
  // the current keyframe are evicted beyond this bound.
  std::size_t cache_frames = 16;
  // Modeled cost of rendering + encoding one frame, charged on the tier's
  // own render fiber (fixed, not wall-measured, so timelines replay).
  des::Duration render_cost = des::microseconds(200);
  // Modeled per-frame delivery bookkeeping, charged on the pump fiber.
  des::Duration deliver_cost = des::microseconds(1);
  // DRR quantum for the delivery queue.
  std::uint64_t quantum_bytes = 64ull << 10;
  // Service levels, best first. Empty = the built-in gold/silver/bronze.
  std::vector<QualityClass> classes;
};

// Renders one frame of a pipeline: called by the tier's render fiber with
// the iteration, camera preset, and the preset's steered parameter (azimuth
// by convention). Must be a pure function of its arguments so replays
// reproduce identical frames.
using Producer = std::function<FrameImage(
    std::uint64_t iteration, std::uint32_t camera, double param)>;

class ViewerTier {
 public:
  ViewerTier(net::Process& proc, rpc::Engine& engine, ViewerConfig config = {});
  ~ViewerTier();
  ViewerTier(const ViewerTier&) = delete;
  ViewerTier& operator=(const ViewerTier&) = delete;

  // ---- sessions ----------------------------------------------------------
  // Local API (the RPC handlers call these too). `remote` != kInvalidProc
  // makes this a push session: frames go out as colza.viewer.frame
  // notifications to that process. kInvalidProc = local accounting-only
  // observer (what the DES scenarios and the fan-out bench scale with).
  std::uint64_t connect(std::uint32_t quality,
                        net::ProcId remote = net::kInvalidProc);
  bool disconnect(std::uint64_t session);
  Status subscribe(std::uint64_t session, const std::string& pipeline,
                   std::uint32_t camera);
  Status unsubscribe(std::uint64_t session, const std::string& pipeline,
                     std::uint32_t camera);

  // ---- the producer side -------------------------------------------------
  void set_producer(const std::string& pipeline, Producer producer);
  void remove_producer(const std::string& pipeline);

  // Announce that `iteration` of `pipeline` is ready to render. Constant
  // work, never blocks, never charges: safe on the execute path. Applies
  // any still-queued steering for the pipeline at this boundary first.
  void publish(const std::string& pipeline, std::uint64_t iteration);

  // ---- steering ----------------------------------------------------------
  // Queue an update; it takes effect only at the next iteration boundary.
  void steer(const std::string& pipeline, SteeringUpdate update);

  // Iteration boundary: apply queued camera updates, log everything, return
  // the parameter updates for the application to fold into iteration
  // `iteration`. In replay mode the live queue is ignored and the loaded
  // log's records for `iteration` are re-applied instead.
  std::vector<SteeringUpdate> drain(const std::string& pipeline,
                                    std::uint64_t iteration);

  // Switch to replay: drain() re-applies `log`'s records at their recorded
  // iterations. The new steering_log() rebuilds to the same digest.
  void load_replay(SteeringLog log);

  [[nodiscard]] const SteeringLog& steering_log() const noexcept {
    return log_;
  }
  // Last applied value of a steered simulation parameter (0 when never set).
  [[nodiscard]] double parameter(const std::string& pipeline,
                                 const std::string& name) const;

  // ---- chaos hook --------------------------------------------------------
  // Deterministically disconnect ~`fraction` of live sessions (each session
  // flips a splitmix64 coin derived from `seed` and its id). Returns how
  // many were dropped. chaos::RuleKind::viewer_churn calls this.
  std::size_t churn(double fraction, std::uint64_t seed);

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t sessions() const noexcept {
    return live_sessions_;
  }
  // Totals, read from this tier's metrics scope.
  [[nodiscard]] std::uint64_t renders_total() const {
    return renders_.read().value;
  }
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return frames_.read().value;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const {
    return bytes_.read().value;
  }
  [[nodiscard]] std::uint64_t skips_total() const {
    return skips_.read().value;
  }
  // Frame-cache hit rate: every delivered frame is a cache read (hit), every
  // render is the miss that populated it.
  [[nodiscard]] double cache_hit_rate() const {
    const double frames = static_cast<double>(frames_delivered());
    const double total = frames + static_cast<double>(renders_total());
    return total == 0.0 ? 1.0 : frames / total;
  }
  // The metrics scope this tier records its viewer.* metrics into, so
  // co-hosted tiers keep separate counts, gauges and frame-size histograms.
  [[nodiscard]] obs::ScopeId metrics_scope() const noexcept { return scope_; }

  // Pauses/resumes a whole quality class (DRR weight; 0 = paused).
  void set_class_weight(const std::string& cls, std::uint32_t weight);

  // Blocks the calling fiber until every published frame is rendered and
  // every queued delivery has been served or skipped forward. Test/bench
  // helper; advances virtual time while slow sessions wait for credit.
  void quiesce();

  [[nodiscard]] net::ProcId self() const noexcept { return engine_->self(); }

 private:
  // A stream's handle: its index in streams_, fixed at first subscribe.
  using StreamId = std::uint32_t;
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  struct Sub {
    std::uint64_t delivered = kNone;  // last iteration this session received
    std::uint64_t base = kNone;       // keyframe iteration the viewer holds
    StreamId stream = 0;
    bool queued = false;              // an entry sits in the delivery queue
  };

  struct Session {
    std::uint32_t quality = 0;  // index into config_.classes
    net::ProcId remote = net::kInvalidProc;
    std::uint64_t credit = 0;  // token bucket, bytes
    des::Time credit_at = 0;
    std::vector<Sub> subs;  // a session watches a handful of streams

    [[nodiscard]] Sub* find(StreamId stream) noexcept {
      for (Sub& sub : subs) {
        if (sub.stream == stream) return &sub;
      }
      return nullptr;
    }
  };

  struct PendingFrame {
    std::uint64_t iteration;
    double param;  // camera parameter captured at publish (boundary) time
  };

  struct Stream {
    std::string pipeline;
    std::uint32_t camera = 0;
    std::deque<PendingFrame> pending;           // published, not yet rendered
    std::map<std::uint64_t, EncodedFrame> cache;  // iteration -> frame
    FrameImage key_image;                       // pixels of key_iteration
    std::uint64_t key_iteration = kNone;
    std::uint64_t latest = kNone;               // newest cached iteration
    std::uint64_t frame_index = 0;              // keyframe cadence counter
    double param = 0.0;                         // steered camera parameter
    std::set<std::uint64_t> subscribers;        // ascending session id
  };

  struct DeliveryItem {
    std::uint64_t session;
    StreamId stream;
  };

  void install_handlers();
  void render_loop();
  void pump_loop();
  // Serve one popped delivery item (or skip it and schedule a credit wait).
  void deliver(const DeliveryItem& item);
  void enqueue_delivery(std::uint64_t session_id, const Session& s,
                        StreamId stream, const EncodedFrame& frame);
  void refill(Session& s);
  void apply_update(const std::string& pipeline, SteeringRecord rec);
  // The handle of (pipeline, camera), creating the stream on first use.
  StreamId stream_id(const std::string& pipeline, std::uint32_t camera);
  // nullptr once the session has disconnected (or for an unknown id).
  [[nodiscard]] Session* find_session(std::uint64_t id) noexcept {
    return id - 1 < sessions_.size() ? sessions_[id - 1].get() : nullptr;
  }
  [[nodiscard]] const QualityClass& cls(const Session& s) const {
    return config_.classes[s.quality];
  }
  void maybe_idle();

  net::Process* proc_;
  rpc::Engine* engine_;
  ViewerConfig config_;
  des::Mutex mu_;
  des::CondVar render_cv_;
  des::CondVar pump_cv_;
  des::CondVar idle_cv_;

  // Session ids are dense and never reused: id N lives at sessions_[N - 1],
  // which is null once it disconnects.
  std::uint64_t next_session_ = 1;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t live_sessions_ = 0;
  // Streams are never erased, so a StreamId stays valid (and a deque keeps
  // each Stream in place) for the tier's lifetime. stream_ids_ iterates in
  // (pipeline, camera) order, the order the render fiber scans.
  std::deque<Stream> streams_;
  std::map<std::pair<std::string, std::uint32_t>, StreamId> stream_ids_;
  std::map<std::string, Producer> producers_;
  flow::DrrQueue<DeliveryItem> delivery_;
  std::vector<flow::DrrQueue<DeliveryItem>::TenantId> class_tenant_;
  std::uint64_t pending_renders_ = 0;  // published frames not yet rendered
  std::uint64_t credit_waits_ = 0;     // scheduled re-queues outstanding

  // Steering. The queue keeps each update's virtual arrival time; drain()
  // stamps it into the log so replays carry identical timestamps.
  std::map<std::string, std::deque<std::pair<des::Time, SteeringUpdate>>>
      steer_queue_;
  std::map<std::string, std::uint64_t> drained_;  // last drained iteration
  std::map<std::string, std::map<std::string, double>> params_;
  SteeringLog log_;
  std::optional<SteeringLog> replay_;
  std::uint64_t next_seq_ = 1;

  // This tier's metrics, recorded as they happen.
  obs::ScopeId scope_ = obs::MetricsRegistry::global().new_scope();
  obs::Handle<obs::Counter> connects_{"viewer.connects", scope_};
  obs::Handle<obs::Counter> disconnects_{"viewer.disconnects", scope_};
  obs::Handle<obs::Gauge> sessions_gauge_{"viewer.sessions", scope_};
  obs::Handle<obs::Counter> publish_no_producer_{"viewer.publish_no_producer",
                                                 scope_};
  obs::Handle<obs::Counter> steering_queued_{"viewer.steering_queued", scope_};
  obs::Handle<obs::Counter> steering_applied_{"viewer.steering_applied",
                                              scope_};
  obs::Handle<obs::Counter> churned_{"viewer.churned", scope_};
  obs::Handle<obs::Counter> renders_{"viewer.renders", scope_};
  obs::Handle<obs::Counter> skips_{"viewer.skips", scope_};
  obs::Handle<obs::Counter> frames_{"viewer.frames_delivered", scope_};
  obs::Handle<obs::Counter> bytes_{"viewer.bytes_delivered", scope_};
  // Wire size of every delivered frame.
  obs::Handle<obs::Histogram> frame_bytes_{"viewer.frame_bytes", scope_};
};

// Process-global lookup from (simulation, proc) to its ViewerTier, so the
// chaos layer can aim viewer churn at a tier without new link-time coupling
// (same shape as flow::Registry). ViewerTier registers itself.
class Registry {
 public:
  static ViewerTier* find(des::Simulation* sim, net::ProcId id);

 private:
  friend class ViewerTier;
  static void add(des::Simulation* sim, net::ProcId id, ViewerTier* tier);
  static void remove(des::Simulation* sim, net::ProcId id);
};

// Observer-process helper: installs the colza.viewer.frame push handler on
// its engine, keeps per-stream base keyframes, decodes and hash-verifies
// every delivered frame. One per observer process.
class ViewerClient {
 public:
  explicit ViewerClient(rpc::Engine& engine);

  Expected<std::uint64_t> connect(net::ProcId tier, std::uint32_t quality);
  Status disconnect();
  Status subscribe(const std::string& pipeline, std::uint32_t camera);
  Status unsubscribe(const std::string& pipeline, std::uint32_t camera);
  Status steer(const std::string& pipeline, const SteeringUpdate& update);

  struct Received {
    std::string pipeline;
    std::uint32_t camera = 0;
    std::uint64_t iteration = 0;
    std::uint64_t image_hash = 0;
  };
  [[nodiscard]] const std::vector<Received>& received() const noexcept {
    return received_;
  }
  [[nodiscard]] std::uint64_t decode_failures() const noexcept {
    return decode_failures_;
  }
  // Latest decoded image of a stream (nullptr before the first keyframe).
  [[nodiscard]] const FrameImage* image(const std::string& pipeline,
                                        std::uint32_t camera) const;
  [[nodiscard]] std::uint64_t session() const noexcept { return session_; }

 private:
  rpc::Engine* engine_;
  net::ProcId tier_ = net::kInvalidProc;
  std::uint64_t session_ = 0;
  // Deltas decode against the stream's last *keyframe* (what the tier's
  // base_iteration refers to), not the last decoded frame.
  std::map<std::pair<std::string, std::uint32_t>, FrameImage> bases_;
  std::map<std::pair<std::string, std::uint32_t>, FrameImage> images_;
  std::vector<Received> received_;
  std::uint64_t decode_failures_ = 0;
};

}  // namespace colza::viewer
